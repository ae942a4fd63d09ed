// Client-facing KV protocol, framed like every other wire exchange
// (rpc::frame_payload: magic/version/length/CRC header).
//
// A Request wraps one kv::Command with a connection-local request_id the
// client uses to match the Response. Responses carry a Status: kOk completes
// the request; kNotLeader redirects (leader_hint names the leader's server
// when known); kRetry tells the client to resubmit the same command —
// session dedup (client_id, sequence) makes the retry exactly-once even when
// the original actually committed.
//
// A request_id of 0 is never a client's: a Response carrying it answers no
// request. It is a leadership notice, which a server sends every open client
// connection the moment it becomes leader — kNotLeader with leader_hint
// naming itself.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "kv/kv_command.h"
#include "rpc/messages.h"

namespace escape::serve {

enum class Status : std::uint8_t {
  kOk = 0,
  kNotLeader = 1,  ///< submit to leader_hint (or any other server when unset)
  kRetry = 2,      ///< transient (lost leadership mid-flight); resubmit as-is
  kTimeout = 3,    ///< client-side only: no response within the deadline
};

struct Request {
  std::uint64_t request_id = 0;  ///< >= 1; 0 is reserved for leadership notices
  kv::Command command;

  bool operator==(const Request&) const = default;
};

struct Response {
  std::uint64_t request_id = 0;
  Status status = Status::kRetry;
  ServerId leader_hint = kNoServer;  ///< meaningful for kNotLeader
  kv::CommandResult result;          ///< meaningful for kOk

  bool operator==(const Response&) const = default;
};

std::vector<std::uint8_t> encode_request(const Request& request);
std::optional<Request> decode_request(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_response(const Response& response);
std::optional<Response> decode_response(const std::vector<std::uint8_t>& bytes);

}  // namespace escape::serve
