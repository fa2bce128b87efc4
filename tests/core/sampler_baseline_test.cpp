// Guard: the default VRF sampler backend must reproduce the pre-refactor
// seed build byte-for-byte. The digest constants below were captured by
// running the identical scenarios (sampler_baseline_scenarios.hpp) against
// the library BEFORE the SamplerBackend interface was introduced; if any of
// them drifts, the refactor changed default-path behavior and the
// byte-identical acceptance criterion for bench/byz_soak and
// bench/fig20_ml_latency is broken too.
//
// If a FUTURE protocol change legitimately alters these digests, re-capture
// them in the same commit and say so in the commit message — this test
// exists to make that an explicit decision, never an accident.
#include <gtest/gtest.h>

#include "sampler_baseline_scenarios.hpp"

namespace accountnet::testing {
namespace {

// Captured from the seed build (commit fbf8256, pre-SamplerBackend).
constexpr const char* kByzDigest =
    "d2441d3a7f40ef2c8b625c02e83c7aadd50f60eb0c1481d1155fd1b122ea0603";
constexpr const char* kHarnessDigest =
    "6ba00388ec5516306dc1eb49d01e1e7960c9b1c7bce8c9872f74e8b7ebb6c1b6";
constexpr const char* kFig20Digest =
    "9ef488fa096d65cc0c120b4ffca475a4a75874221cb62a6c882a48cf5b810ece";

TEST(SamplerBaseline, ByzSoakScenarioMatchesSeedBuild) {
  EXPECT_EQ(guard_byz_digest(), kByzDigest);
}

TEST(SamplerBaseline, HarnessScenarioMatchesSeedBuild) {
  EXPECT_EQ(guard_harness_digest(guard_bias_policy()), kHarnessDigest);
}

TEST(SamplerBaseline, Fig20ScenarioMatchesSeedBuild) {
  EXPECT_EQ(guard_fig20_digest(), kFig20Digest);
}

// The alternative backends must actually change the draw stream — if a
// non-default backend reproduced the VRF digest, the NodeConfig plumbing
// would be dead and the head-to-head bench meaningless.
TEST(SamplerBaseline, HarnessDigestDependsOnBackend) {
  harness::ExperimentConfig c;
  c.network_size = 48;
  c.f = 5;
  c.l = 3;
  c.pm = 0.0;
  c.lane_size = 16;
  c.verify_fraction = 1.0;
  c.seed = 7;

  auto digest_for = [&](core::SamplerKind kind) {
    c.sampler = kind;
    harness::NetworkSim net(c);
    net.run(6, [](std::size_t) {});
    wire::Writer w;
    for (std::size_t i = 0; i < net.size(); ++i) {
      w.u64(net.node_state(i).round());
      guard_fold_peers(w, net.node_state(i).peerset().sorted());
    }
    w.u64(net.stats().shuffles_completed);
    w.u64(net.stats().verification_failures);
    const Bytes bytes = std::move(w).take();
    return guard_hex(crypto::Sha256::hash(bytes));
  };

  const std::string vrf = digest_for(core::SamplerKind::kVrf);
  const std::string peerswap = digest_for(core::SamplerKind::kPeerSwap);
  const std::string honeybee = digest_for(core::SamplerKind::kHoneybee);
  EXPECT_NE(vrf, peerswap);
  EXPECT_NE(vrf, honeybee);
  EXPECT_NE(peerswap, honeybee);
}

// Honest overlays must keep verifying cleanly under every backend.
TEST(SamplerBaseline, HonestHarnessCleanUnderEveryBackend) {
  for (const core::SamplerKind kind :
       {core::SamplerKind::kVrf, core::SamplerKind::kPeerSwap,
        core::SamplerKind::kHoneybee}) {
    harness::ExperimentConfig c;
    c.network_size = 48;
    c.f = 5;
    c.l = 3;
    c.lane_size = 16;
    c.verify_fraction = 1.0;
    c.seed = 11;
    c.sampler = kind;
    harness::NetworkSim net(c);
    net.run(6, [](std::size_t) {});
    EXPECT_EQ(net.stats().verification_failures, 0u)
        << core::sampler_kind_name(kind);
    EXPECT_GT(net.stats().shuffles_verified, 0u) << core::sampler_kind_name(kind);
  }
}

}  // namespace
}  // namespace accountnet::testing
