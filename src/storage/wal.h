// Write-ahead log for replicated entries.
//
// The consensus core emits log mutations (append / truncate-suffix /
// compact-prefix) through the Wal interface before acting on them.
// Implementations:
//   * NullWal    — discards everything (pure in-memory simulation runs).
//   * MemoryWal  — replays into a vector; lets tests model a disk that
//                  survives a simulated crash.
//   * FileWal    — record-oriented file with CRC-protected records and
//                  torn-write recovery: a partially written final record is
//                  detected and discarded on open, everything before it is
//                  replayed. Creating the file fsyncs its directory.
//
// Compaction: compact_to(upto) records that every entry with index <= upto
// is now covered by a snapshot (in the paired SnapshotStore) and need not be
// replayed. Recovered entries therefore start at upto+1; the snapshot holds
// the state that those dropped entries produced.
//
// FileWal record layout: [kind u8][len u32][crc u32][payload len bytes].
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rpc/messages.h"

namespace escape::storage {

/// Durable sink for log mutations.
class Wal {
 public:
  virtual ~Wal() = default;

  /// Records that `entry` was appended at its index.
  virtual void append(const rpc::LogEntry& entry) = 0;

  /// Records a contiguous run of appends as one group. Implementations may
  /// amortize the whole run into a single I/O (group commit); the default
  /// forwards to append() per entry. Durability is still only guaranteed
  /// after sync() — a crash mid-group may leave a torn tail, which recovery
  /// resolves to the longest valid prefix of the group.
  virtual void append_batch(const std::vector<rpc::LogEntry>& entries) {
    for (const auto& e : entries) append(e);
  }

  /// Records that all entries with index >= `from` were discarded.
  virtual void truncate_from(LogIndex from) = 0;

  /// Records that entries with index <= `upto` were absorbed into a snapshot
  /// and will never be replayed. Also rebases the WAL so a later append at
  /// upto+1 is contiguous. Default: no-op (volatile implementations).
  virtual void compact_to(LogIndex upto) { (void)upto; }

  /// Blocks until all prior records are durable (no-op for volatile impls).
  virtual void sync() = 0;

  /// Entry sequence a restart would replay (those past the last compaction
  /// record). Drivers feed this into raft::Bootstrap::log; volatile
  /// implementations that keep nothing return empty.
  virtual std::vector<rpc::LogEntry> recovered() const { return {}; }
};

/// Discards all records.
class NullWal final : public Wal {
 public:
  void append(const rpc::LogEntry&) override {}
  void truncate_from(LogIndex) override {}
  void sync() override {}
};

/// Keeps the materialized entry sequence in memory.
class MemoryWal final : public Wal {
 public:
  void append(const rpc::LogEntry& entry) override;
  void truncate_from(LogIndex from) override;
  void compact_to(LogIndex upto) override;
  void sync() override {}
  std::vector<rpc::LogEntry> recovered() const override { return entries_; }

  /// Entry sequence as it would be recovered after a crash; starts at
  /// base()+1 once compacted.
  const std::vector<rpc::LogEntry>& entries() const { return entries_; }

  /// Highest compacted index (0 when never compacted). The paired
  /// SnapshotStore covers everything up to and including it.
  LogIndex base() const { return base_; }

 private:
  LogIndex base_ = 0;
  std::vector<rpc::LogEntry> entries_;
};

/// File-backed WAL.
class FileWal final : public Wal {
 public:
  /// Opens (creating if needed) the WAL at `path` and replays existing
  /// records. Recovered entries are available via recovered_entries() until
  /// the first mutation. A trailing torn record is truncated away.
  explicit FileWal(std::string path);
  ~FileWal() override;

  FileWal(const FileWal&) = delete;
  FileWal& operator=(const FileWal&) = delete;

  void append(const rpc::LogEntry& entry) override;
  void append_batch(const std::vector<rpc::LogEntry>& entries) override;
  void truncate_from(LogIndex from) override;
  void compact_to(LogIndex upto) override;
  void sync() override;
  std::vector<rpc::LogEntry> recovered() const override { return recovered_; }

  /// Entries reconstructed from the file at open time (those past the last
  /// compaction record; see recovered_base()).
  const std::vector<rpc::LogEntry>& recovered_entries() const { return recovered_; }

  /// Highest compacted index recorded in the file (0 when never compacted);
  /// recovered_entries() starts at recovered_base()+1.
  LogIndex recovered_base() const { return base_; }

 private:
  void write_record(std::uint8_t kind, const std::vector<std::uint8_t>& payload);
  void write_buffer(const std::vector<std::uint8_t>& buf);

  std::string path_;
  int fd_ = -1;
  LogIndex base_ = 0;
  std::vector<rpc::LogEntry> recovered_;
};

}  // namespace escape::storage
