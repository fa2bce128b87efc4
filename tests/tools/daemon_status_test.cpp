// accountnetd status object: must stay valid JSON whatever bytes remote
// peers put in the addresses it lists.
#include <gtest/gtest.h>

#include "../../tools/daemon_status.hpp"
#include "accountnet/util/json.hpp"

namespace accountnet::tools {
namespace {

TEST(DaemonStatus, HostileAddressesStayValidJson) {
  DaemonStatus s;
  s.addr = "127.0.0.1:9101";
  s.pid = 4242;
  s.joined = true;
  s.round = 17;
  s.peers = 5;
  s.uptime_us = 1500000;
  s.seq = 3;
  // Control bytes, a quote, a backslash and a NUL.
  const std::string hostile("10.0.0.9:7\x01\x1f\n\t\"\\\0", 17);
  s.quarantined = {hostile, "10.0.0.2:9000"};
  s.evicted = {hostile};

  const std::string json = status_json(s);
  EXPECT_EQ(json.find('\n'), std::string::npos) << json;
  const auto doc = util::json_parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  EXPECT_EQ(doc->get_string("addr"), "127.0.0.1:9101");
  EXPECT_EQ(doc->get_number("round"), 17.0);
  EXPECT_EQ(doc->get_number("seq"), 3.0);
  EXPECT_TRUE(doc->get("joined")->as_bool());
  const auto& quarantined = doc->get("quarantined")->as_array();
  ASSERT_EQ(quarantined.size(), 2u);
  EXPECT_EQ(quarantined[0].as_string(), hostile);
  EXPECT_EQ(quarantined[1].as_string(), "10.0.0.2:9000");
  ASSERT_EQ(doc->get("evicted")->as_array().size(), 1u);
  EXPECT_EQ(doc->get("evicted")->as_array()[0].as_string(), hostile);
}

}  // namespace
}  // namespace accountnet::tools
