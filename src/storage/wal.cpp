#include "storage/wal.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/serde.h"
#include "storage/file_io.h"

namespace escape::storage {
namespace {

constexpr std::uint8_t kRecordAppend = 1;
constexpr std::uint8_t kRecordTruncate = 2;
constexpr std::uint8_t kRecordCompact = 3;

std::vector<std::uint8_t> encode_entry_payload(const rpc::LogEntry& e) {
  Encoder enc;
  enc.i64(e.term);
  enc.i64(e.index);
  enc.u8(static_cast<std::uint8_t>(e.kind));
  enc.bytes(e.command);
  return enc.take();
}

rpc::LogEntry decode_entry_payload(const std::vector<std::uint8_t>& p) {
  Decoder d(p);
  rpc::LogEntry e;
  e.term = d.i64();
  e.index = d.i64();
  const auto kind = d.u8();
  if (kind > static_cast<std::uint8_t>(rpc::EntryKind::kConfChange)) {
    throw DecodeError("invalid WAL entry kind");
  }
  e.kind = static_cast<rpc::EntryKind>(kind);
  e.command = d.bytes();
  d.expect_end();
  return e;
}

}  // namespace

void MemoryWal::append(const rpc::LogEntry& entry) {
  if (entry.index != base_ + static_cast<LogIndex>(entries_.size()) + 1) {
    throw std::logic_error("MemoryWal::append: non-contiguous index");
  }
  entries_.push_back(entry);
}

void MemoryWal::truncate_from(LogIndex from) {
  if (from <= base_) {
    throw std::logic_error("MemoryWal::truncate_from: index already compacted");
  }
  if (from - base_ <= static_cast<LogIndex>(entries_.size())) {
    entries_.resize(static_cast<std::size_t>(from - base_ - 1));
  }
}

void MemoryWal::compact_to(LogIndex upto) {
  if (upto <= base_) return;
  const LogIndex tail = base_ + static_cast<LogIndex>(entries_.size());
  if (upto >= tail) {
    entries_.clear();
  } else {
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(upto - base_));
  }
  base_ = upto;
}

FileWal::FileWal(std::string path) : path_(std::move(path)) {
  // Replay pass: read the whole file, apply records, stop at the first
  // corrupt/partial record and remember the valid byte length.
  std::vector<std::uint8_t> data;
  bool created = false;
  {
    const int rfd = ::open(path_.c_str(), O_RDONLY);
    if (rfd >= 0) {
      std::uint8_t chunk[1 << 16];
      ssize_t n;
      while ((n = ::read(rfd, chunk, sizeof(chunk))) > 0) data.insert(data.end(), chunk, chunk + n);
      ::close(rfd);
      if (n < 0) throw_errno("read", path_);
    } else if (errno == ENOENT) {
      created = true;
    } else {
      throw_errno("open", path_);
    }
  }

  std::size_t valid = 0;
  std::size_t pos = 0;
  while (pos + 9 <= data.size()) {  // kind(1) + len(4) + crc(4)
    const std::uint8_t kind = data[pos];
    Decoder hd(data.data() + pos + 1, 8);
    const auto len = hd.u32();
    const auto crc = hd.u32();
    if (pos + 9 + len > data.size()) break;  // torn tail
    std::vector<std::uint8_t> payload(data.begin() + static_cast<std::ptrdiff_t>(pos + 9),
                                      data.begin() + static_cast<std::ptrdiff_t>(pos + 9 + len));
    if (crc32(payload) != crc) break;  // corrupt tail
    try {
      const auto tail = [this] { return base_ + static_cast<LogIndex>(recovered_.size()); };
      if (kind == kRecordAppend) {
        auto e = decode_entry_payload(payload);
        if (e.index <= base_) break;  // append below the compaction point: stop
        // An append after an implicit divergence acts as truncate+append,
        // mirroring how the consensus core issues records.
        if (e.index <= tail()) {
          recovered_.resize(static_cast<std::size_t>(e.index - base_ - 1));
        }
        if (e.index != tail() + 1) break;  // hole: stop
        recovered_.push_back(std::move(e));
      } else if (kind == kRecordTruncate) {
        Decoder d(payload);
        const auto from = d.i64();
        d.expect_end();
        if (from <= base_) break;  // truncating the compacted prefix: stop
        if (from <= tail()) {
          recovered_.resize(static_cast<std::size_t>(from - base_ - 1));
        }
      } else if (kind == kRecordCompact) {
        Decoder d(payload);
        const auto upto = d.i64();
        d.expect_end();
        if (upto > base_) {
          if (upto >= tail()) {
            recovered_.clear();
          } else {
            recovered_.erase(recovered_.begin(),
                             recovered_.begin() + static_cast<std::ptrdiff_t>(upto - base_));
          }
          base_ = upto;
        }
      } else {
        break;  // unknown record kind: stop replay conservatively
      }
    } catch (const DecodeError&) {
      break;
    }
    pos += 9 + len;
    valid = pos;
  }

  if (valid < data.size()) {
    LOG_WARN("WAL " << path_ << ": dropping " << (data.size() - valid)
                    << " trailing bytes (torn or corrupt record)");
    if (::truncate(path_.c_str(), static_cast<off_t>(valid)) != 0 && errno != ENOENT) {
      throw_errno("truncate", path_);
    }
  }

  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) throw_errno("open", path_);
  // A synced record is only durable once the file's directory entry is.
  if (created) sync_parent_dir(path_);
}

FileWal::~FileWal() {
  if (fd_ >= 0) ::close(fd_);
}

namespace {

/// Appends one framed record ([kind][len][crc][payload]) onto `buf`.
void frame_record(std::vector<std::uint8_t>& buf, std::uint8_t kind,
                  const std::vector<std::uint8_t>& payload) {
  Encoder e;
  e.u8(kind);
  e.u32(static_cast<std::uint32_t>(payload.size()));
  e.u32(crc32(payload));
  auto header = e.take();
  buf.insert(buf.end(), header.begin(), header.end());
  buf.insert(buf.end(), payload.begin(), payload.end());
}

}  // namespace

void FileWal::write_buffer(const std::vector<std::uint8_t>& buf) {
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
    if (n < 0) throw_errno("write", path_);
    off += static_cast<std::size_t>(n);
  }
}

void FileWal::write_record(std::uint8_t kind, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> buf;
  frame_record(buf, kind, payload);
  write_buffer(buf);
}

void FileWal::append(const rpc::LogEntry& entry) {
  write_record(kRecordAppend, encode_entry_payload(entry));
}

void FileWal::append_batch(const std::vector<rpc::LogEntry>& entries) {
  // Group commit: frame the whole run into one buffer and issue a single
  // write. Recovery handles a torn tail inside the group the same as a torn
  // single record — the longest valid record prefix survives.
  std::vector<std::uint8_t> buf;
  for (const auto& e : entries) frame_record(buf, kRecordAppend, encode_entry_payload(e));
  write_buffer(buf);
}

void FileWal::truncate_from(LogIndex from) {
  Encoder e;
  e.i64(from);
  write_record(kRecordTruncate, e.take());
}

void FileWal::compact_to(LogIndex upto) {
  if (upto <= base_) return;
  Encoder e;
  e.i64(upto);
  write_record(kRecordCompact, e.take());
  base_ = upto;
}

void FileWal::sync() {
  if (::fsync(fd_) != 0) throw_errno("fsync", path_);
}

}  // namespace escape::storage
