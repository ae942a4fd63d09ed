#include "serve/kv_client.h"

#include <algorithm>

#include "rpc/wire.h"

namespace escape::serve {
namespace {

std::vector<ServerId> server_list(const std::map<ServerId, std::uint16_t>& ports) {
  std::vector<ServerId> out;
  out.reserve(ports.size());
  for (const auto& [id, port] : ports) out.push_back(id);
  return out;
}

}  // namespace

KvClient::KvClient(std::map<ServerId, std::uint16_t> client_ports, std::uint64_t base_client_id,
                   Options options)
    : ports_(std::move(client_ports)),
      base_client_id_(base_client_id),
      options_(options),
      servers_(server_list(ports_)),
      loop_(
          [this] {
            net::EventLoop::Handler h;
            h.on_frames = [this](ConnId conn, std::vector<std::vector<std::uint8_t>>&& frames) {
              on_frames(conn, std::move(frames));
            };
            h.on_close = [this](ConnId conn) { on_close(conn); };
            return h;
          }(),
          net::EventLoop::Options{}),
      lanes_(static_cast<std::size_t>(std::max(1, options.lanes))),
      leader_(servers_.empty() ? kNoServer : servers_.front()) {
  for (const ServerId server : servers_) {
    links_[server].resize(static_cast<std::size_t>(std::max(1, options_.connections_per_server)));
  }
  loop_.set_timer([this] { on_timer(); });
}

KvClient::~KvClient() { stop(); }

void KvClient::start() {
  loop_.start();
  const TimePoint now = clock_.now();
  std::lock_guard lock(mu_);
  for (auto& [server, slots] : links_) {
    for (std::size_t slot = 0; slot < slots.size(); ++slot) {
      if (slots[slot].conn == 0) dial_locked(server, slot, now);
    }
  }
}

void KvClient::stop() {
  {
    std::lock_guard lock(mu_);
    if (stopped_) return;
    stopped_ = true;  // no submit() touches the loop from here on
  }
  loop_.stop();
  // Complete whatever is left so no callback is silently dropped.
  Completions completions;
  {
    std::lock_guard lock(mu_);
    for (auto& [id, pending] : pending_) {
      completions.emplace_back(std::move(pending.done),
                               std::make_pair(Status::kRetry, kv::CommandResult{}));
    }
    pending_.clear();
    for (auto& lane : lanes_) {
      lane.active = 0;
      lane.waiting.clear();
    }
  }
  for (auto& [done, outcome] : completions) {
    if (done) done(outcome.first, outcome.second);
  }
}

std::size_t KvClient::outstanding() const {
  std::lock_guard lock(mu_);
  return pending_.size();
}

void KvClient::dial_locked(ServerId server, std::size_t slot, TimePoint now) {
  Link& link = links_[server][slot];
  link.conn = loop_.connect(ports_.at(server));
  if (link.conn == 0) {
    link.redial_at = now + options_.retry_backoff;
    schedule_locked(link.redial_at);
    return;
  }
  link_of_[link.conn] = {server, slot};
}

KvClient::ConnId KvClient::target_conn_locked(std::uint64_t request_id) {
  const auto it = links_.find(leader_);
  if (it == links_.end()) return 0;
  const auto& slots = it->second;
  // The request's own slot first, so one server's slots share the load.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const ConnId conn = slots[(request_id + i) % slots.size()].conn;
    if (conn != 0) return conn;
  }
  return 0;
}

void KvClient::rotate_leader_locked() {
  if (servers_.empty()) return;
  const auto it = std::find(servers_.begin(), servers_.end(), leader_);
  const std::size_t at = it == servers_.end() ? 0 : (it - servers_.begin());
  leader_ = servers_[(at + 1) % servers_.size()];
}

bool KvClient::is_open_locked(ServerId server) const {
  const auto it = links_.find(server);
  if (it == links_.end()) return false;
  for (const Link& link : it->second) {
    if (link.conn != 0) return true;
  }
  return false;
}

bool KvClient::sendable_locked(std::uint64_t request_id, const Pending& pending) const {
  if (pending.in_flight) return false;
  return pending.lane < 0 || lanes_[static_cast<std::size_t>(pending.lane)].active == request_id;
}

void KvClient::send_locked(std::uint64_t request_id, Pending& pending, TimePoint now) {
  const ConnId conn = target_conn_locked(request_id);
  // Encoded once, on first send: the session identity is stamped by then.
  if (pending.frame.empty()) pending.frame = rpc::frame_payload(encode_request(pending.request));
  if (conn == 0 || loop_.send(conn, pending.frame) != net::EventLoop::SendResult::kOk) {
    retry_later_locked(pending, now);
    return;
  }
  pending.in_flight = true;
  pending.sent_conn = conn;
  pending.sent_notices = notices_;
}

void KvClient::retry_later_locked(Pending& pending, TimePoint now) {
  pending.in_flight = false;
  pending.retry_at = now + options_.retry_backoff;
  schedule_locked(pending.retry_at);
}

void KvClient::schedule_locked(TimePoint at) {
  if (at >= timer_at_) return;
  timer_at_ = at;
  loop_.arm_timer(at - clock_.now());
}

void KvClient::submit(kv::Command command, Callback done) {
  const TimePoint now = clock_.now();
  std::unique_lock lock(mu_);
  if (stopped_) {
    lock.unlock();
    if (done) done(Status::kRetry, kv::CommandResult{});
    return;
  }
  const std::uint64_t request_id = next_request_++;
  Pending pending;
  pending.done = std::move(done);
  pending.deadline = now + options_.timeout;
  pending.request.request_id = request_id;
  pending.request.command = std::move(command);
  schedule_locked(pending.deadline);

  if (pending.request.command.op == kv::Op::kGet) {
    // Reads carry no session identity and run with unbounded concurrency.
    auto& slot = pending_[request_id] = std::move(pending);
    send_locked(request_id, slot, now);
    return;
  }

  const int lane_index = static_cast<int>(next_lane_++ % lanes_.size());
  pending.lane = lane_index;
  auto& lane = lanes_[static_cast<std::size_t>(lane_index)];
  auto& slot = pending_[request_id] = std::move(pending);
  if (lane.active != 0) {
    // The session already has a write in flight; sequence is stamped at
    // activation so per-lane sequences match send order exactly.
    lane.waiting.push_back(request_id);
    return;
  }
  lane.active = request_id;
  slot.request.command.client_id = base_client_id_ + static_cast<std::uint64_t>(lane_index);
  slot.request.command.sequence = lane.next_sequence++;
  send_locked(request_id, slot, now);
}

void KvClient::finish_locked(std::uint64_t request_id, Status status, kv::CommandResult result,
                             TimePoint now, Completions& completions) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  const int lane_index = it->second.lane;
  completions.emplace_back(std::move(it->second.done),
                           std::make_pair(status, std::move(result)));
  pending_.erase(it);
  if (lane_index < 0) return;
  auto& lane = lanes_[static_cast<std::size_t>(lane_index)];
  if (lane.active != request_id) return;
  lane.active = 0;
  // Activate the next queued write on this session.
  while (!lane.waiting.empty()) {
    const std::uint64_t next_id = lane.waiting.front();
    lane.waiting.pop_front();
    const auto next = pending_.find(next_id);
    if (next == pending_.end()) continue;  // timed out while waiting
    lane.active = next_id;
    next->second.request.command.client_id =
        base_client_id_ + static_cast<std::uint64_t>(lane_index);
    next->second.request.command.sequence = lane.next_sequence++;
    send_locked(next_id, next->second, now);
    break;
  }
}

void KvClient::on_frames(ConnId conn, std::vector<std::vector<std::uint8_t>>&& frames) {
  const TimePoint now = clock_.now();
  Completions completions;
  {
    std::lock_guard lock(mu_);
    const auto from = link_of_.find(conn);
    const ServerId sender = from == link_of_.end() ? kNoServer : from->second.first;
    for (const auto& payload : frames) {
      const auto response = decode_response(payload);
      if (!response) continue;  // tolerate garbage; the deadline backstops
      if (response->request_id == 0) {
        // A leadership notice: retarget, and resend everything waiting now.
        if (!ports_.count(response->leader_hint)) continue;
        leader_ = response->leader_hint;
        ++notices_;
        for (auto& [id, pending] : pending_) {
          if (sendable_locked(id, pending)) send_locked(id, pending, now);
        }
        continue;
      }
      const auto it = pending_.find(response->request_id);
      if (it == pending_.end()) continue;  // late answer for a timed-out request
      Pending& pending = it->second;
      switch (response->status) {
        case Status::kOk:
          finish_locked(response->request_id, Status::kOk, response->result, now, completions);
          break;
        case Status::kNotLeader: {
          const ServerId hint = response->leader_hint;
          if (pending.sent_notices != notices_) {
            // Sent before the latest notice: its answer is older news than
            // the target the notice set.
            send_locked(response->request_id, pending, now);
          } else if (hint != sender && is_open_locked(hint)) {
            leader_ = hint;
            send_locked(response->request_id, pending, now);
          } else {
            // No leader this client can reach yet: wait for the hinted one
            // (its failed re-dials move the target on) or try the next.
            if (hint != sender && ports_.count(hint)) {
              leader_ = hint;
            } else if (sender == leader_) {
              rotate_leader_locked();
            }
            retry_later_locked(pending, now);
          }
          break;
        }
        case Status::kRetry:
        default:
          retry_later_locked(pending, now);
          break;
      }
    }
  }
  for (auto& [done, outcome] : completions) {
    if (done) done(outcome.first, outcome.second);
  }
}

void KvClient::on_close(ConnId conn) {
  const TimePoint now = clock_.now();
  std::lock_guard lock(mu_);
  const auto owner = link_of_.find(conn);
  if (owner == link_of_.end()) return;
  const auto [server, slot] = owner->second;
  link_of_.erase(owner);
  const TimePoint redial_at = now + options_.retry_backoff;
  links_[server][slot] = Link{0, redial_at};
  schedule_locked(redial_at);
  // A dropped leader link usually means the leader died; try elsewhere.
  if (server == leader_) rotate_leader_locked();
  for (auto& [id, pending] : pending_) {
    if (!pending.in_flight || pending.sent_conn != conn) continue;
    // A failover can finish before its dead leader's link reports the drop:
    // a command sent before the latest notice goes to the notice's leader now.
    if (pending.sent_notices != notices_) {
      pending.in_flight = false;
      send_locked(id, pending, now);
    } else {
      retry_later_locked(pending, now);
    }
  }
}

void KvClient::on_timer() {
  const TimePoint now = clock_.now();
  Completions completions;
  {
    std::lock_guard lock(mu_);
    timer_at_ = kNever;  // one-shot: the timer is disarmed once it fires
    std::vector<std::uint64_t> expired;
    for (const auto& [id, pending] : pending_) {
      if (pending.deadline <= now) expired.push_back(id);
    }
    for (const auto id : expired) {
      finish_locked(id, Status::kTimeout, kv::CommandResult{}, now, completions);
    }
    // Resend what is due and re-dial what dropped, then re-arm for the
    // earliest of what is left.
    TimePoint next = kNever;
    for (auto& [id, pending] : pending_) {
      if (sendable_locked(id, pending) && pending.retry_at <= now) send_locked(id, pending, now);
      if (sendable_locked(id, pending)) next = std::min(next, pending.retry_at);
      next = std::min(next, pending.deadline);
    }
    for (auto& [server, slots] : links_) {
      for (std::size_t slot = 0; slot < slots.size(); ++slot) {
        if (slots[slot].conn == 0 && slots[slot].redial_at <= now) dial_locked(server, slot, now);
        if (slots[slot].conn == 0) next = std::min(next, slots[slot].redial_at);
      }
    }
    schedule_locked(next);
  }
  for (auto& [done, outcome] : completions) {
    if (done) done(outcome.first, outcome.second);
  }
}

}  // namespace escape::serve
