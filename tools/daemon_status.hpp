// accountnetd's status object, shared by its --status-file and /status
// endpoint (and by the test that checks the object parses). Quarantined and
// evicted addresses are remote peers' claims, so every string goes through
// obs::json_escape: accountnet-top's strict parser must accept any byte in
// them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accountnet/obs/sink.hpp"

namespace accountnet::tools {

struct DaemonStatus {
  std::string addr;
  long pid = 0;
  bool joined = false;
  std::uint64_t round = 0;
  std::size_t peers = 0;
  std::int64_t uptime_us = 0;
  /// Increments with every housekeeping tick: a poller that sees it go
  /// backwards knows the daemon restarted; one that sees it stall knows the
  /// daemon is wedged (uptime_us gives the same signal in wall time).
  std::uint64_t seq = 0;
  std::vector<std::string> quarantined;
  std::vector<std::string> evicted;
};

inline std::string json_string_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + obs::json_escape(v[i]) + "\"";
  }
  return out + "]";
}

inline std::string status_json(const DaemonStatus& s) {
  return "{\"addr\":\"" + obs::json_escape(s.addr) + "\",\"pid\":" +
         std::to_string(s.pid) + ",\"joined\":" + (s.joined ? "true" : "false") +
         ",\"round\":" + std::to_string(s.round) +
         ",\"peers\":" + std::to_string(s.peers) +
         ",\"uptime_us\":" + std::to_string(s.uptime_us) +
         ",\"seq\":" + std::to_string(s.seq) +
         ",\"quarantined\":" + json_string_list(s.quarantined) +
         ",\"evicted\":" + json_string_list(s.evicted) + "}";
}

}  // namespace accountnet::tools
