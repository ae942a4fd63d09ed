#include "storage/state_store.h"

#include <algorithm>
#include <cerrno>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/serde.h"
#include "storage/file_io.h"

namespace escape::storage {
namespace {

constexpr std::size_t kSlotBytes = 4096;
constexpr std::size_t kFileBytes = 2 * kSlotBytes;

void encode_fields(Encoder& e, const PersistentState& s) {
  e.i64(s.current_term);
  e.u32(s.voted_for);
  e.i64(s.config.timer_period);
  e.i32(s.config.priority);
  e.i64(s.config.conf_clock);
}

PersistentState decode_fields(Decoder& d) {
  PersistentState s;
  s.current_term = d.i64();
  s.voted_for = d.u32();
  s.config.timer_period = d.i64();
  s.config.priority = d.i32();
  s.config.conf_clock = d.i64();
  return s;
}

/// [crc u32][len u32][payload], the CRC over the payload: the framing of a
/// slot, and of the whole file in the single-record format.
std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& payload) {
  Encoder framed;
  framed.u32(crc32(payload));
  framed.bytes(payload);
  return framed.take();
}

/// Decodes the CRC-valid record at the start of `data` with `decode`
/// (bytes after the record are ignored); nullopt when torn or corrupt.
template <typename T, typename Fn>
std::optional<T> unframe(const std::uint8_t* data, std::size_t size, Fn decode) {
  try {
    Decoder d(data, size);
    const auto crc = d.u32();
    const auto payload = d.bytes();
    if (crc32(payload) != crc) return std::nullopt;
    Decoder pd(payload);
    T value = decode(pd);
    pd.expect_end();
    return value;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

struct Slot {
  std::uint64_t sequence = 0;
  PersistentState state;
};

/// The valid slot with the higher sequence number; a slot's payload is
/// [sequence u64][state].
std::optional<Slot> newest_slot(const std::vector<std::uint8_t>& data) {
  std::optional<Slot> newest;
  for (std::size_t at = 0; at + kSlotBytes <= data.size(); at += kSlotBytes) {
    const auto slot = unframe<Slot>(data.data() + at, kSlotBytes, [](Decoder& d) {
      Slot s;
      s.sequence = d.u64();
      s.state = decode_fields(d);
      return s;
    });
    if (slot && (!newest || slot->sequence > newest->sequence)) newest = slot;
  }
  return newest;
}

/// Up to `limit` bytes from the start of the file.
std::vector<std::uint8_t> read_prefix(int fd, std::size_t limit, const std::string& path) {
  std::vector<std::uint8_t> data(limit);
  std::size_t off = 0;
  while (off < limit) {
    const ssize_t n = ::pread(fd, data.data() + off, limit - off, static_cast<off_t>(off));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw_errno("read", path);
    if (n == 0) break;
    off += static_cast<std::size_t>(n);
  }
  data.resize(off);
  return data;
}

void write_at(int fd, const std::vector<std::uint8_t>& buf, std::size_t at,
              const std::string& path) {
  std::size_t off = 0;
  while (off < buf.size()) {
    const auto pos = static_cast<off_t>(at + off);
    const ssize_t n = ::pwrite(fd, buf.data() + off, buf.size() - off, pos);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw_errno("write", path);
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

FileStateStore::FileStateStore(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("open", path_);
  try {
    const auto data = read_prefix(fd_, kFileBytes, path_);
    if (data.size() < kFileBytes) {
      // New, or in the single-record format: size the file once, with real
      // zeros so that no later save allocates a block. Existing bytes keep
      // their place, and the first save goes to the second block.
      write_at(fd_, std::vector<std::uint8_t>(kFileBytes - data.size(), 0), data.size(), path_);
      if (::fsync(fd_) != 0) throw_errno("fsync", path_);
      sync_parent_dir(path_);
    }
    if (const auto newest = newest_slot(data)) sequence_ = newest->sequence;
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

FileStateStore::~FileStateStore() { ::close(fd_); }

void FileStateStore::save(const PersistentState& state) {
  const std::uint64_t sequence = sequence_ + 1;
  Encoder e;
  e.u64(sequence);
  encode_fields(e, state);
  write_at(fd_, frame(e.take()), (sequence % 2) * kSlotBytes, path_);
  if (::fdatasync(fd_) != 0) throw_errno("fdatasync", path_);
  sequence_ = sequence;
}

std::optional<PersistentState> FileStateStore::load() {
  const auto data = read_prefix(fd_, kFileBytes, path_);
  if (const auto newest = newest_slot(data)) return newest->state;
  auto legacy = unframe<PersistentState>(data.data(), data.size(), decode_fields);
  if (!legacy && std::any_of(data.begin(), data.end(), [](std::uint8_t b) { return b != 0; })) {
    LOG_WARN("state file " << path_ << " is corrupt; treating as absent");
  }
  return legacy;
}

}  // namespace escape::storage
