#include "net/event_loop.h"

#include <cerrno>
#include <cstring>
#include <future>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/serde.h"
#include "rpc/wire.h"

namespace escape::net {
namespace {

// epoll_event.data.u64 tags for the three non-connection fds; connection ids
// start at 3 (see next_id_).
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenerTag = 1;
constexpr std::uint64_t kTimerTag = 2;

constexpr std::size_t kFrameHeaderBytes = 2 + 1 + 1 + 4 + 4;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Parses every complete frame off `in` (same wire format as
/// rpc::FrameReader, parsed in place on the ring). Returns false on a
/// magic/version/length/CRC violation — the stream is no longer trustworthy.
bool parse_frames(ByteRing& in, std::vector<std::vector<std::uint8_t>>& out) {
  for (;;) {
    if (in.size() < kFrameHeaderBytes) return true;
    std::uint8_t hdr[kFrameHeaderBytes];
    in.peek(0, hdr, kFrameHeaderBytes);
    Decoder d(hdr, kFrameHeaderBytes);
    const auto magic = d.u16();
    const auto version = d.u8();
    const auto flags = d.u8();
    const auto length = d.u32();
    const auto crc = d.u32();
    if (magic != rpc::kWireMagic || version != rpc::kWireVersion || flags != 0 ||
        length > rpc::kMaxFrameBytes) {
      return false;
    }
    if (in.size() < kFrameHeaderBytes + length) return true;
    std::vector<std::uint8_t> payload(length);
    in.peek(kFrameHeaderBytes, payload.data(), length);
    if (crc32(payload) != crc) return false;
    in.consume(kFrameHeaderBytes + length);
    out.push_back(std::move(payload));
  }
}

}  // namespace

namespace testhooks {
RecvFn recv_fn = &::recv;
SendFn send_fn = &::send;
AcceptFn accept_fn = &::accept;
void reset() {
  recv_fn = &::recv;
  send_fn = &::send;
  accept_fn = &::accept;
}
}  // namespace testhooks

BoundListener bind_loopback_listener(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("bind() failed on port " + std::to_string(port) + ": " +
                             std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("listen() failed: ") + std::strerror(err));
  }
  set_nonblocking(fd);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("getsockname() failed: ") + std::strerror(err));
  }
  return BoundListener{fd, ntohs(bound.sin_port)};
}

// --- ByteRing ----------------------------------------------------------------

void ByteRing::grow(std::size_t need) {
  std::size_t cap = buf_.empty() ? 4096 : buf_.size();
  while (cap < need) cap *= 2;
  if (cap == buf_.size()) return;
  std::vector<std::uint8_t> next(cap);
  peek(0, next.data(), size_);
  buf_ = std::move(next);
  head_ = 0;
}

void ByteRing::append(const std::uint8_t* data, std::size_t n) {
  if (size_ + n > buf_.size()) grow(size_ + n);
  const std::size_t tail = (head_ + size_) & (buf_.size() - 1);
  const std::size_t first = std::min(n, buf_.size() - tail);
  std::memcpy(buf_.data() + tail, data, first);
  std::memcpy(buf_.data(), data + first, n - first);
  size_ += n;
}

std::pair<std::uint8_t*, std::size_t> ByteRing::tail_span(std::size_t want) {
  if (size_ + want > buf_.size()) grow(size_ + want);
  const std::size_t tail = (head_ + size_) & (buf_.size() - 1);
  return {buf_.data() + tail, std::min(buf_.size() - tail, buf_.size() - size_)};
}

void ByteRing::produce(std::size_t n) { size_ += n; }

std::pair<const std::uint8_t*, std::size_t> ByteRing::head_span() const {
  if (buf_.empty()) return {nullptr, 0};
  return {buf_.data() + head_, std::min(size_, buf_.size() - head_)};
}

void ByteRing::peek(std::size_t offset, std::uint8_t* out, std::size_t n) const {
  if (n == 0) return;
  const std::size_t start = (head_ + offset) & (buf_.size() - 1);
  const std::size_t first = std::min(n, buf_.size() - start);
  std::memcpy(out, buf_.data() + start, first);
  std::memcpy(out + first, buf_.data(), n - first);
}

void ByteRing::consume(std::size_t n) {
  head_ = (head_ + n) & (buf_.size() - 1);
  size_ -= n;
  if (size_ == 0) head_ = 0;
}

// --- EventLoop ---------------------------------------------------------------

EventLoop::EventLoop(Handler handler, Options options)
    : handler_(std::move(handler)), options_(options) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1() failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw std::runtime_error("eventfd() failed");
  }
  register_fd(wake_fd_, kWakeTag);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timer_fd_ < 0) {
    ::close(wake_fd_);
    ::close(epoll_fd_);
    wake_fd_ = epoll_fd_ = -1;
    throw std::runtime_error("timerfd_create() failed");
  }
  register_fd(timer_fd_, kTimerTag);
}

EventLoop::~EventLoop() { stop(); }

void EventLoop::register_fd(int fd, std::uint64_t tag) {
  epoll_event ev{};
  // Every fd is registered once, edge-triggered, for both directions: the
  // loop drains each readiness edge to EAGAIN, so no EPOLL_CTL_MOD churn is
  // ever needed. (The wake/timer/listen fds only ever report EPOLLIN.)
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error(std::string("epoll_ctl(ADD) failed: ") + std::strerror(errno));
  }
}

void EventLoop::apply_socket_options(int fd) const {
  if (options_.sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf, sizeof(options_.sndbuf));
  }
  if (options_.rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &options_.rcvbuf, sizeof(options_.rcvbuf));
  }
}

void EventLoop::listen(BoundListener listener) {
  if (listen_fd_ >= 0) throw std::logic_error("EventLoop already listening");
  if (listener.fd < 0) listener = bind_loopback_listener(listener.port);
  apply_socket_options(listener.fd);
  listen_fd_ = listener.fd;
  listen_port_ = listener.port;
  register_fd(listen_fd_, kListenerTag);
}

void EventLoop::start() {
  running_.store(true);
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  const bool was_running = running_.exchange(false);
  if (was_running) {
    wake();
    if (thread_.joinable()) thread_.join();
  }
  std::lock_guard lock(mu_);
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns_.clear();
  flush_queue_.clear();
  posted_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (wake_fd_ >= 0) ::close(wake_fd_);
  wake_fd_ = -1;
  if (timer_fd_ >= 0) ::close(timer_fd_);
  timer_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

EventLoop::ConnId EventLoop::connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  set_nonblocking(fd);
  set_nodelay(fd);
  apply_socket_options(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return 0;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->id = next_id_.fetch_add(1);
  conn->inbound = false;
  // Even an instantly-successful loopback connect() goes through the
  // "connecting" state: registering with EPOLLET reports current readiness
  // as an initial edge, so the loop's first EPOLLOUT completes the connect
  // and fires on_open uniformly on the loop thread.
  conn->connecting.store(true, std::memory_order_relaxed);
  const ConnId id = conn->id;
  {
    std::lock_guard lock(mu_);
    conns_.emplace(id, std::move(conn));
  }
  try {
    register_fd(fd, id);
  } catch (const std::runtime_error&) {
    std::lock_guard lock(mu_);
    conns_.erase(id);
    ::close(fd);
    return 0;
  }
  stats_.connected.fetch_add(1, std::memory_order_relaxed);
  return id;
}

EventLoop::SendResult EventLoop::send(ConnId id, const std::vector<std::uint8_t>& frame) {
  bool need_wake = false;
  {
    std::lock_guard lock(mu_);
    Conn* conn = find_locked(id);
    if (!conn || conn->doomed.load(std::memory_order_relaxed)) return SendResult::kClosed;
    if (conn->out.size() + frame.size() > options_.max_outbuf_bytes) {
      if (options_.evict_on_overflow) {
        // Slow client: its output ring is full because it stopped reading.
        // Cut it loose rather than let it pin server memory.
        stats_.evicted_slow.fetch_add(1, std::memory_order_relaxed);
        conn->doomed.store(true, std::memory_order_relaxed);
        if (!conn->want_flush) {
          conn->want_flush = true;
          flush_queue_.push_back(id);
        }
        need_wake = !on_loop_thread();
      }
      if (need_wake) wake();
      return SendResult::kOverflow;
    }
    conn->out.append(frame.data(), frame.size());
    stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
    if (!conn->want_flush) {
      conn->want_flush = true;
      flush_queue_.push_back(id);
      need_wake = !on_loop_thread();
    }
  }
  // Off-loop senders wake the loop; on the loop thread the end-of-iteration
  // flush pass picks the connection up, coalescing many frames per write().
  if (need_wake) wake();
  return SendResult::kOk;
}

void EventLoop::close(ConnId id) {
  bool need_wake = false;
  {
    std::lock_guard lock(mu_);
    Conn* conn = find_locked(id);
    if (!conn || conn->doomed.load(std::memory_order_relaxed)) return;
    conn->doomed.store(true, std::memory_order_relaxed);
    if (!conn->want_flush) {
      conn->want_flush = true;
      flush_queue_.push_back(id);
    }
    need_wake = !on_loop_thread();
  }
  if (need_wake) wake();
}

std::size_t EventLoop::connection_count() const {
  std::lock_guard lock(mu_);
  return conns_.size();
}

void EventLoop::post(std::function<void()> fn) {
  // All under mu_: stop() clears posted_ and closes the eventfd under mu_
  // after the loop thread exits, so a closure is either queued (and woken
  // for) before that, or refused here — never stranded.
  std::lock_guard lock(mu_);
  if (!running_.load()) return;
  const bool need_wake = posted_.empty() && !on_loop_thread();
  posted_.push_back(std::move(fn));
  if (need_wake) wake();
}

void EventLoop::post_and_wait(const std::function<void()>& fn) {
  if (on_loop_thread() || !running_.load()) {
    fn();
    return;
  }
  // The promise lives only in the closure: a loop that stops first destroys
  // the closure unrun, which breaks the promise and releases the wait.
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> ran = done->get_future();
  post([&fn, done = std::move(done)] {
    try {
      fn();
      done->set_value();
    } catch (...) {
      done->set_exception(std::current_exception());  // rethrown to the caller
    }
  });
  try {
    ran.get();
  } catch (const std::future_error& e) {
    if (e.code() != std::future_errc::broken_promise) throw;
    fn();  // the loop thread is gone; nothing else runs fn concurrently
  }
}

void EventLoop::set_timer(std::function<void()> fn) { on_timer_ = std::move(fn); }

void EventLoop::arm_timer(Duration delay) {
  // A zero it_value would disarm; the earliest expiry is 1 ns out.
  const Duration ns = delay > 0 ? delay * 1000 : 1;
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  ::timerfd_settime(timer_fd_, 0, &spec, nullptr);
}

void EventLoop::run_posted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard lock(mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

EventLoop::Conn* EventLoop::find_locked(ConnId id) {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void EventLoop::accept_ready() {
  for (;;) {
    const int fd = testhooks::accept_fn(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;  // signal mid-accept; connection still queued
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        LOG_WARN("event loop: accept() failed: " << std::strerror(errno));
      }
      break;
    }
    set_nonblocking(fd);
    set_nodelay(fd);
    apply_socket_options(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_id_.fetch_add(1);
    conn->inbound = true;
    const ConnId id = conn->id;
    {
      std::lock_guard lock(mu_);
      conns_.emplace(id, std::move(conn));
    }
    try {
      register_fd(fd, id);
    } catch (const std::runtime_error&) {
      std::lock_guard lock(mu_);
      conns_.erase(id);
      ::close(fd);
      continue;
    }
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    if (handler_.on_open) handler_.on_open(id, true);
  }
}

void EventLoop::read_ready(Conn* conn) {
  bool peer_closed = false;
  for (;;) {
    auto [buf, cap] = conn->in.tail_span(options_.read_chunk);
    const ssize_t n = testhooks::recv_fn(conn->fd, buf, cap, 0);
    if (n > 0) {
      conn->in.produce(static_cast<std::size_t>(n));
      stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    } else if (n == 0) {
      peer_closed = true;  // orderly shutdown; deliver what already arrived
      break;
    } else {
      // errno is only meaningful on a negative return. EINTR means a signal
      // landed mid-syscall: the connection is healthy, retry immediately.
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      teardown(conn, true);
      return;
    }
  }
  std::vector<std::vector<std::uint8_t>> frames;
  if (!parse_frames(conn->in, frames)) {
    stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
    LOG_WARN("event loop: closing connection " << conn->id << " after frame decode error");
    teardown(conn, true);
    return;
  }
  if (!frames.empty()) {
    stats_.frames_in.fetch_add(frames.size(), std::memory_order_relaxed);
    if (handler_.on_frames) handler_.on_frames(conn->id, std::move(frames));
  }
  if (peer_closed) teardown(conn, true);
}

void EventLoop::flush_conn(Conn* conn) {
  std::unique_lock lock(mu_);
  conn->want_flush = false;
  while (!conn->out.empty()) {
    const auto [data, len] = conn->out.head_span();
    const ssize_t n = testhooks::send_fn(conn->fd, data, len, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out.consume(static_cast<std::size_t>(n));
      stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    } else if (n == 0) {
      // No bytes accepted but no error either; errno is stale here and must
      // not be consulted. No writability edge is owed for it, so queue the
      // connection for the next flush pass.
      conn->want_flush = true;
      flush_queue_.push_back(conn->id);
      break;
    } else if (errno == EINTR) {
      continue;  // signal mid-send; the connection is fine
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;  // kernel buffer full; EPOLLET delivers an edge when it drains
    } else {
      lock.unlock();
      teardown(conn, true);
      return;
    }
  }
}

void EventLoop::flush_pending() {
  std::vector<ConnId> queue;
  {
    std::lock_guard lock(mu_);
    queue.swap(flush_queue_);
  }
  for (const ConnId id : queue) {
    Conn* conn;
    {
      std::lock_guard lock(mu_);
      conn = find_locked(id);
    }
    if (!conn) continue;
    if (conn->doomed.load(std::memory_order_relaxed)) {
      teardown(conn, true);
      continue;
    }
    flush_conn(conn);
  }
}

void EventLoop::teardown(Conn* conn, bool deliver_close) {
  std::unique_ptr<Conn> owned;
  {
    std::lock_guard lock(mu_);
    const auto it = conns_.find(conn->id);
    if (it == conns_.end()) return;
    owned = std::move(it->second);
    conns_.erase(it);
  }
  ::close(owned->fd);
  owned->fd = -1;
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  if (deliver_close && handler_.on_close) handler_.on_close(owned->id);
}

void EventLoop::run() {
  loop_tid_.store(std::this_thread::get_id());
  std::vector<epoll_event> events(256);
  while (running_.load()) {
    int timeout_ms = 100;  // bounded: shutdown cannot hang on a quiet loop
    {
      std::lock_guard lock(mu_);
      if (!posted_.empty()) timeout_ms = 0;  // posted by last iteration's closures
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                               timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!running_.load()) break;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint32_t ev = events[i].events;
      if (tag == kWakeTag) {
        std::uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        stats_.wakeups.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (tag == kTimerTag) {
        std::uint64_t expirations;
        if (::read(timer_fd_, &expirations, sizeof(expirations)) > 0 && on_timer_) on_timer_();
        continue;
      }
      if (tag == kListenerTag) {
        accept_ready();
        continue;
      }
      Conn* conn;
      {
        std::lock_guard lock(mu_);
        conn = find_locked(tag);
      }
      if (!conn) continue;  // torn down earlier this iteration
      if (ev & EPOLLERR) {
        teardown(conn, true);
        continue;
      }
      if (ev & EPOLLOUT) {
        if (conn->connecting.exchange(false, std::memory_order_relaxed)) {
          int err = 0;
          socklen_t len = sizeof(err);
          ::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            teardown(conn, true);
            continue;
          }
          if (handler_.on_open) handler_.on_open(conn->id, false);
          // on_open may have queued frames or closed the connection.
          {
            std::lock_guard lock(mu_);
            conn = find_locked(tag);
          }
          if (!conn) continue;
        }
        flush_conn(conn);
        {
          std::lock_guard lock(mu_);
          conn = find_locked(tag);
        }
        if (!conn) continue;  // flush hit a fatal error
      }
      if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) read_ready(conn);
    }
    run_posted();
    // End-of-iteration output pass: every connection send() touched this
    // iteration — frames queued by callbacks, posted closures and other
    // threads — flushes here, many frames per write().
    flush_pending();
  }
}

}  // namespace escape::net
