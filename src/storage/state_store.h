// Durable per-server state.
//
// Raft requires current_term and voted_for to survive restarts; ESCAPE
// additionally persists the server's adopted configuration π(P, k) — the
// paper's Figure 5b depends on a recovering server restoring its (possibly
// stale) priority and configuration clock.
//
// FileStateStore writes in place, because every save lies on an election's
// critical path (a candidate's, each voter's, a follower adopting π(P, k)):
// the file holds two CRC-framed, sequence-numbered slots in separate 4 KiB
// blocks, and each save overwrites the older slot with one pwrite and one
// fdatasync. A save torn by a crash fails its CRC, and load() returns the
// other slot — the previous state. The file is sized, and its directory
// synced, once when it is created, so no save changes file metadata.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "raft/ready.h"
#include "rpc/messages.h"

namespace escape::storage {

/// State that must be durable before a server answers an RPC. The value type
/// is raft::HardState — the deterministic core emits it in Ready batches and
/// never touches the store itself; drivers persist it here.
using PersistentState = ::escape::raft::HardState;

/// Abstract durable store for PersistentState.
class StateStore {
 public:
  virtual ~StateStore() = default;

  /// Durably replaces the stored state. Must not return before the state
  /// would survive a crash (for file-backed implementations).
  virtual void save(const PersistentState& state) = 0;

  /// Loads the last saved state; nullopt when nothing was ever saved.
  virtual std::optional<PersistentState> load() = 0;
};

/// Volatile store for simulation and tests. A simulated crash keeps the
/// MemoryStateStore alive while the node object is destroyed, modelling a
/// machine whose disk survives the process.
class MemoryStateStore final : public StateStore {
 public:
  void save(const PersistentState& state) override {
    state_ = state;
    ++save_count_;
  }
  std::optional<PersistentState> load() override { return state_; }

  /// Number of save() calls (tests assert persistence happens when required).
  std::size_t save_count() const { return save_count_; }

 private:
  std::optional<PersistentState> state_;
  std::size_t save_count_ = 0;
};

/// Crash-safe file-backed store (two alternating slots, written in place).
class FileStateStore final : public StateStore {
 public:
  /// Opens the state file at `path`, creating and sizing it when absent. A
  /// file in the earlier single-record format (one CRC-framed record,
  /// replaced by tmp + rename) still loads; the first save leaves that
  /// record intact until the new slot is durable.
  explicit FileStateStore(std::string path);
  ~FileStateStore() override;

  FileStateStore(const FileStateStore&) = delete;
  FileStateStore& operator=(const FileStateStore&) = delete;

  void save(const PersistentState& state) override;
  std::optional<PersistentState> load() override;

 private:
  std::string path_;
  int fd_ = -1;
  /// Sequence of the newest valid slot (0: none). Save s + 1 goes to slot
  /// (s + 1) % 2, so it never overwrites the newest state.
  std::uint64_t sequence_ = 0;
};

}  // namespace escape::storage
