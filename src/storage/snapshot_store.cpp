#include "storage/snapshot_store.h"

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

/// Bump when the body layout changes; load refuses unknown versions instead
/// of misparsing old files. v2 added the membership block after the
/// configuration; v1 files still decode (membership stays empty and the
/// node falls back to its bootstrap member list).
constexpr std::uint8_t kSnapshotVersionV1 = 1;
constexpr std::uint8_t kSnapshotVersion = 2;

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const Snapshot& snapshot) {
  Encoder e;
  e.u8(kSnapshotVersion);
  e.i64(snapshot.last_included_index);
  e.i64(snapshot.last_included_term);
  e.i64(snapshot.config.timer_period);
  e.i32(snapshot.config.priority);
  e.i64(snapshot.config.conf_clock);
  rpc::encode_membership(e, snapshot.membership);
  e.bytes(snapshot.state);
  auto body = e.take();
  Encoder framed;
  framed.u32(crc32(body));
  framed.bytes(body);
  return framed.take();
}

std::optional<Snapshot> decode_snapshot(const std::vector<std::uint8_t>& buf) {
  try {
    Decoder d(buf);
    const auto crc = d.u32();
    const auto body = d.bytes();
    d.expect_end();
    if (crc32(body) != crc) return std::nullopt;
    Decoder bd(body);
    const auto version = bd.u8();
    if (version != kSnapshotVersion && version != kSnapshotVersionV1) return std::nullopt;
    Snapshot s;
    s.last_included_index = bd.i64();
    s.last_included_term = bd.i64();
    s.config.timer_period = bd.i64();
    s.config.priority = bd.i32();
    s.config.conf_clock = bd.i64();
    if (version >= kSnapshotVersion) s.membership = rpc::decode_membership(bd);
    s.state = bd.bytes();
    bd.expect_end();
    return s;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

FileSnapshotStore::FileSnapshotStore(std::string path) : path_(std::move(path)) {}

void FileSnapshotStore::save(const Snapshot& snapshot) {
  const auto buf = encode_snapshot(snapshot);
  const std::string tmp = path_ + ".tmp";

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open", tmp);
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      ::close(fd);
      throw_errno("write", tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync", tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) throw_errno("rename", tmp);
  // The WAL drops the prefix this snapshot covers once save() returns; the
  // rename must not be lost to power failure after that.
  sync_parent_dir(path_);
}

std::optional<Snapshot> FileSnapshotStore::load() {
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw_errno("open", path_);
  }
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    buf.insert(buf.end(), chunk, chunk + n);
  }
  ::close(fd);
  if (n < 0) throw_errno("read", path_);
  auto snapshot = decode_snapshot(buf);
  if (!snapshot) {
    LOG_WARN("snapshot file " << path_ << " is corrupt; treating as absent");
  }
  return snapshot;
}

}  // namespace escape::storage
