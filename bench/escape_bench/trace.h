// Spans for the traced run.
//
// A span is one interval on one thread of one process: a call into a layer
// (work) or a stretch a request spent waiting for a layer (wait). Work
// spans nest by time on their thread, and a span's self time is its
// duration minus the time its nested work spans cover. Wait spans are
// never nested; their self time is their duration. Every span of a client
// request carries the request's id (`rid`, the load generator's op id, which
// the request's command carries); replication spans carry the log index.
//
// Server processes buffer spans in memory per thread and append them to a
// binary file on request (before every kill and at the end of a pass). The
// benchmark process merges those files with its own client spans, derives
// the per-layer metrics and writes a Chrome trace-event file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace escape::bench {

enum class SpanKind : std::uint8_t {
  kClientRequest,   ///< wait: client submit -> completion callback (root)
  kClientSubmit,    ///< work: KvClient::submit
  kNetTransit,      ///< wait: client -> server and server -> client (derived)
  kServeDecode,     ///< work: decode_request of one frame
  kServeRespond,    ///< work: encode + queue one response (idx = status)
  kServePending,    ///< wait: write accepted -> its entry applies
  kServeReadWait,   ///< wait: read accepted -> its grant arrives
  kNetLockWait,     ///< wait: acquiring the node lock
  kNetMailboxWait,  ///< wait: peer message queued -> stepped
  kNetSend,         ///< work: TcpTransport::send_batch
  kRaftStep,        ///< work: RaftNode::step
  kRaftTick,        ///< work: RaftNode::tick
  kRaftSubmit,      ///< work: RaftNode::submit / submit_read
  kRaftPump,        ///< work: drain one Ready batch through NodeDriver
  kRaftCommit,      ///< instant: commit index advanced to idx
  kRaftReplRtt,     ///< wait: AppendEntries sent -> first ack covering idx
  kStorageWalWrite, ///< work: Wal append / append_batch / truncate
  kStorageWalSync,  ///< work: Wal::sync
  kStorageStateSave,///< work: StateStore::save
  kKvApply,         ///< work: KvStore::apply
  kKvPeek,          ///< work: KvStore::peek
  kCorePolicy,      ///< work: an ElectionPolicy call other than the patrol
  kCorePatrol,      ///< work: ElectionPolicy::begin_heartbeat_round
  kCount,
};

/// Fixed-layout record; span files are raw arrays of it (writer and reader
/// are the same binary).
struct Span {
  std::int64_t start = 0;  ///< mono_ns()
  std::int64_t end = 0;
  std::uint64_t rid = 0;   ///< client op id, 0 when not tied to a request
  std::int64_t idx = 0;    ///< log index (kRaftCommit: new commit index)
  std::int32_t pid = 0;
  std::int32_t tid = 0;
  SpanKind kind = SpanKind::kCount;
};

/// Records one span from the calling thread (server processes).
void record_span(SpanKind kind, std::int64_t start, std::int64_t end, std::uint64_t rid = 0,
                 std::int64_t idx = 0);

/// Appends every span buffered so far in this process to `path` and clears
/// the buffers.
void dump_spans(const std::string& path);

/// Times the enclosing scope as one span.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, std::uint64_t rid = 0, std::int64_t idx = 0)
      : kind_(kind), rid_(rid), idx_(idx), start_(mono_ns()) {}
  ~ScopedSpan() { record_span(kind_, start_, mono_ns(), rid_, idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanKind kind_;
  std::uint64_t rid_;
  std::int64_t idx_;
  std::int64_t start_;
};

/// Reads every span file in `dir`.
std::vector<Span> load_spans(const std::string& dir);

/// Derives the traced per-layer metrics (self times, commit and transit
/// times, request coverage) from `spans`, appending the derived transit
/// spans to it, then writes the spans that start in [slice_start,
/// slice_end) as a Chrome trace-event file at `chrome_path`.
/// `process_names` labels pids; `requests` is the number of client
/// requests the pass issued.
Metrics analyze_trace(std::vector<Span>& spans, std::size_t requests,
                      const std::map<std::int32_t, std::string>& process_names,
                      std::int64_t slice_start, std::int64_t slice_end,
                      const std::string& chrome_path);

}  // namespace escape::bench
