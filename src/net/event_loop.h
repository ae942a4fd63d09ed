// Epoll-based event loop for the real-network serving path.
//
// One EventLoop multiplexes a listening socket plus any number of inbound
// and outbound connections on a single thread, modeled on the single-writer
// network loop of tarantool's iproto: the loop thread is the only thread
// that ever touches a socket, so reads, frame parsing, and writes need no
// per-connection synchronization. It is also the only thread a RealNode's
// consensus core runs on: frames are stepped from on_frames, the core's
// timers fire from the loop timer, and its Ready batches drain from a posted
// closure. Other threads interact through thread-safe entry points —
// send() enqueues a frame onto the connection's output ring and wakes the
// loop via an eventfd; connect() opens a nonblocking outbound connection;
// post() / post_and_wait() run a closure on the loop thread — and the loop
// drains everything in batches:
//
//   * edge-triggered epoll (EPOLLET): each readiness edge is drained to
//     EAGAIN, so the kernel is consulted once per burst, not once per frame;
//   * per-connection input/output ring buffers (ByteRing): recv() lands
//     directly in the input ring, frames are parsed off it in place (wire
//     format identical to rpc::FrameReader), and every complete frame of a
//     readiness burst is delivered to the owner in ONE on_frames callback;
//   * posted closures run after the iteration's I/O callbacks and timer, so
//     a closure posted from them sees every input of the iteration — the
//     seam RealNode uses to drain once (one WAL sync) per iteration;
//   * deferred output flush: frames queued from the loop thread and from
//     other threads accumulate in the output rings and are written
//     socket-by-socket at the end of the poll iteration, coalescing many
//     small frames into few write() calls;
//   * backpressure: each output ring is bounded. When a frame would
//     overflow the bound the loop either evicts the connection (serving
//     mode: a client that stops reading cannot pin server memory; counted
//     in stats().evicted_slow) or rejects the frame (transport mode:
//     consensus tolerates dropped messages by design).
//
// A handler that sets on_close_cause learns why each connection ended: this
// side closed it, the far side did, or an outbound connect was refused
// (ECONNREFUSED: nothing listens on that port). TcpTransport builds its
// leader-loss signal on the refusal; see tcp_transport.h.
//
// Syscalls go through net::testhooks (shared with TcpTransport) so tests
// inject EINTR and short transfers deterministically.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/types.h>

#include "common/types.h"

namespace escape::net {

/// Syscall seams for fault-injection tests. Production code always calls the
/// sockets API through these pointers, which default to the real syscalls;
/// net tests swap them (before start(), restoring afterwards) to inject
/// EINTR returns and short transfers deterministically — conditions the
/// kernel produces rarely enough that a test relying on real signal timing
/// would be flaky — and to count dials. Not for use outside tests.
namespace testhooks {
using RecvFn = ssize_t (*)(int fd, void* buf, std::size_t len, int flags);
using SendFn = ssize_t (*)(int fd, const void* buf, std::size_t len, int flags);
using AcceptFn = int (*)(int fd, sockaddr* addr, socklen_t* addrlen);
using ConnectFn = int (*)(int fd, const sockaddr* addr, socklen_t addrlen);
extern RecvFn recv_fn;
extern SendFn send_fn;
extern AcceptFn accept_fn;
extern ConnectFn connect_fn;
/// Restores every hook to the real syscall.
void reset();
}  // namespace testhooks

/// An already-bound, listening loopback socket plus its kernel-assigned
/// port. Binding port 0 and discovering the result via getsockname is how
/// tests and examples avoid fixed-port collisions: reserve every listener
/// first, then hand the open fds to the transports — the port can never be
/// stolen between discovery and use.
struct BoundListener {
  int fd = -1;
  std::uint16_t port = 0;
};

/// Binds and listens on 127.0.0.1:`port` (0 = kernel-assigned), nonblocking,
/// SO_REUSEADDR. Throws std::runtime_error on failure. The caller owns the
/// fd until it hands the listener to an EventLoop.
BoundListener bind_loopback_listener(std::uint16_t port, int backlog = 1024);

/// Growable byte ring: a power-of-two circular buffer with contiguous-span
/// access for zero-copy recv()/send() at the head and tail. Grows on demand;
/// the serving layer bounds it externally (see EventLoop::Options).
class ByteRing {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return buf_.size(); }

  /// Appends `n` bytes, growing as needed.
  void append(const std::uint8_t* data, std::size_t n);

  /// Largest contiguous writable span at the tail, growing capacity to hold
  /// at least `want` more bytes. recv() targets this directly.
  std::pair<std::uint8_t*, std::size_t> tail_span(std::size_t want);

  /// Marks `n` bytes of the tail span as filled.
  void produce(std::size_t n);

  /// Contiguous readable span at the head (may be shorter than size() when
  /// the ring wraps). send() sources from this directly.
  std::pair<const std::uint8_t*, std::size_t> head_span() const;

  /// Copies `n` bytes starting `offset` bytes past the head into `out`
  /// (wrap-aware). Requires offset + n <= size().
  void peek(std::size_t offset, std::uint8_t* out, std::size_t n) const;

  /// Discards `n` bytes from the head. Requires n <= size().
  void consume(std::size_t n);

 private:
  void grow(std::size_t need);

  std::vector<std::uint8_t> buf_;  ///< power-of-two capacity (or empty)
  std::size_t head_ = 0;           ///< index of the first unread byte
  std::size_t size_ = 0;
};

/// Loop-wide statistics for tests, benches and diagnostics.
struct EventLoopStats {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> connected{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> frames_out{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> evicted_slow{0};  ///< slow-client evictions
  std::atomic<std::uint64_t> decode_errors{0};
  std::atomic<std::uint64_t> wakeups{0};
};

class EventLoop {
 public:
  /// Identifies one connection for the lifetime of the loop. Ids are never
  /// reused, so a stale id held by another thread can at worst miss.
  using ConnId = std::uint64_t;

  enum class SendResult : std::uint8_t {
    kOk = 0,
    kOverflow = 1,  ///< output bound exceeded; frame rejected (or conn evicted)
    kClosed = 2,    ///< no such connection
  };

  /// Why a connection ended (Handler::on_close_cause).
  enum class CloseCause : std::uint8_t {
    kLocal = 0,    ///< this side: close(), a slow-client eviction, a frame decode error
    kPeer = 1,     ///< the far side or the network: EOF, a reset, a socket error
    kRefused = 2,  ///< an outbound connect was refused (ECONNREFUSED)
  };

  struct Options {
    /// When > 0, sets SO_SNDBUF / SO_RCVBUF on every socket (tests use tiny
    /// buffers to force partial transfers); 0 keeps the kernel defaults.
    int sndbuf = 0;
    int rcvbuf = 0;
    /// Bound on a connection's output ring. A frame that would exceed it is
    /// rejected — and the connection evicted when evict_on_overflow is set.
    std::size_t max_outbuf_bytes = 8u << 20;
    /// Serving mode: a client whose output ring overflows is closed and
    /// counted (stats().evicted_slow) instead of merely throttled — a reader
    /// that stopped reading must not pin server memory. Transport mode
    /// (false) rejects the frame and keeps the connection; consensus
    /// retransmits by design.
    bool evict_on_overflow = false;
    /// recv() chunk requested per call.
    std::size_t read_chunk = 1u << 16;
  };

  /// Callbacks, all invoked on the loop thread; they must not block. They
  /// may call send()/close()/connect() freely.
  struct Handler {
    /// New connection: accepted (inbound=true) or established outbound.
    std::function<void(ConnId, bool inbound)> on_open;
    /// Every complete frame payload parsed from one readiness burst, in
    /// arrival order — the batching seam.
    std::function<void(ConnId, std::vector<std::vector<std::uint8_t>>&&)> on_frames;
    /// Connection closed (peer hangup, error, eviction, or close()). Not
    /// invoked for connections torn down by stop().
    std::function<void(ConnId)> on_close;
    /// When set, invoked instead of on_close, with the reason the
    /// connection ended.
    std::function<void(ConnId, CloseCause)> on_close_cause;
  };

  EventLoop(Handler handler, Options options);
  explicit EventLoop(Handler handler) : EventLoop(std::move(handler), Options()) {}
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Adopts an already-bound listener (see bind_loopback_listener) or, when
  /// `listener.fd < 0`, binds 127.0.0.1:`listener.port`. Call before
  /// start(); optional — a client-only loop never listens.
  void listen(BoundListener listener);

  /// Port the adopted listener is bound to (0 when not listening).
  std::uint16_t port() const { return listen_port_; }

  /// Launches the loop thread.
  void start();

  /// Stops the loop thread, then closes the listener, then every other
  /// socket. Idempotent. on_close is not invoked for the teardown. The
  /// thread is joined before the listener closes, so a dial that this
  /// loop's port refuses proves no callback of this loop runs again.
  void stop();

  /// Opens a nonblocking outbound connection to 127.0.0.1:`port`.
  /// Thread-safe; usable before or after start(). Returns 0 on immediate
  /// failure (socket exhaustion). The connection is usable for send() at
  /// once — frames queue until the connect completes. When `refused` is
  /// non-null, a refusal the kernel has already delivered — loopback
  /// answers a dial to a closed port before connect() returns — fails the
  /// call too: it returns 0 and sets *refused. Otherwise a refusal ends the
  /// connection later, through on_close_cause (kRefused) or on_close.
  ConnId connect(std::uint16_t port, bool* refused = nullptr);

  /// Queues one framed buffer on `conn`'s output ring and wakes the loop.
  /// Thread-safe, never blocks. See Options for the overflow policy.
  SendResult send(ConnId conn, const std::vector<std::uint8_t>& frame);

  /// Requests an asynchronous close of `conn`. Thread-safe; on_close fires
  /// on the loop thread.
  void close(ConnId conn);

  /// Live connection count (listener and wake fd excluded).
  std::size_t connection_count() const;

  /// Runs `fn` once on the loop thread, in FIFO order with other posted
  /// closures, after the current iteration's I/O callbacks and timer and
  /// before its output flush: frames `fn` sends leave in that same flush.
  /// Thread-safe. A closure posted by a posted closure runs in the next
  /// iteration. Closures posted while the loop is not running, or still
  /// queued when it stops, are destroyed without running.
  void post(std::function<void()> fn);

  /// Runs `fn` on the loop thread and returns after it ran; an exception
  /// `fn` throws there is rethrown to the caller. Runs it inline when called
  /// from the loop thread, or when the loop is not running or stops before
  /// reaching it — so callers never hang on a stopped loop.
  void post_and_wait(const std::function<void()>& fn);

  /// Installs the loop's one timer callback (call before start()). It runs
  /// on the loop thread each time an arm_timer() deadline passes.
  void set_timer(std::function<void()> fn);

  /// Arms the timer to fire once, `delay` microseconds from now (<= 0: at
  /// once), replacing any earlier deadline. Callable from any thread until
  /// stop().
  void arm_timer(Duration delay);

  const EventLoopStats& stats() const { return stats_; }

  /// True when called from the loop thread (callback context).
  bool on_loop_thread() const { return std::this_thread::get_id() == loop_tid_.load(); }

 private:
  struct Conn {
    int fd = -1;
    ConnId id = 0;
    bool inbound = false;
    std::atomic<bool> connecting{false};  ///< nonblocking connect() still in flight
    bool want_flush = false;              ///< queued output since the last flush pass (mu_)
    std::atomic<bool> doomed{false};      ///< close requested; torn down by the loop
    ByteRing in;               ///< loop-thread-only
    ByteRing out;              ///< guarded by mu_
  };

  void run();
  void run_posted();
  void accept_ready();
  void read_ready(Conn* conn);
  void flush_conn(Conn* conn);
  void flush_pending();
  void teardown(Conn* conn, CloseCause cause);
  Conn* find_locked(ConnId id);
  void wake();
  void apply_socket_options(int fd) const;
  void register_fd(int fd, std::uint64_t tag);

  Handler handler_;
  const Options options_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int timer_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;

  std::function<void()> on_timer_;

  mutable std::mutex mu_;  // guards conns_, flush_queue_, posted_, every Conn::out
  std::map<ConnId, std::unique_ptr<Conn>> conns_;
  std::vector<ConnId> flush_queue_;
  std::vector<std::function<void()>> posted_;
  std::atomic<ConnId> next_id_{3};  // 0 = wake tag, 1 = listener tag, 2 = timer tag

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::thread::id> loop_tid_{};
  EventLoopStats stats_;
};

}  // namespace escape::net
