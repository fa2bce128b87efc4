// Wave-parallel drive determinism (docs/PARALLELISM.md): every pinned
// scenario must produce a bit-identical digest at threads ∈ {1, 2, 4, 8} and
// with the classic sequential loop (threads = 0), under both crypto
// backends. The harness digest is additionally pinned to the seed-build
// constant, so "parallel == sequential == the pre-refactor library" is one
// transitive assertion.
#include <gtest/gtest.h>

#include "../core/sampler_baseline_scenarios.hpp"

namespace accountnet::testing {
namespace {

constexpr std::size_t kThreadGrid[] = {1, 2, 4, 8};

// Same constant as sampler_baseline_test.cpp (captured from the seed build).
constexpr const char* kHarnessDigest =
    "6ba00388ec5516306dc1eb49d01e1e7960c9b1c7bce8c9872f74e8b7ebb6c1b6";

TEST(ParallelDeterminism, HarnessScenarioBitIdenticalAtEveryThreadCount) {
  const auto policy = guard_bias_policy();
  ASSERT_EQ(guard_harness_digest(policy, 0), kHarnessDigest);
  for (const std::size_t t : kThreadGrid) {
    EXPECT_EQ(guard_harness_digest(policy, t), kHarnessDigest) << "threads " << t;
  }
}

// The same scenario with every shuffle-facing attack rolled at 50%, captured
// before the offer mutations moved into core::apply_offer_attacks. Pins the
// attack set and the order of the attack-rate draws on each node's Rng.
constexpr const char* kAllAttacksDigest =
    "d40dfbdc261fbbfaf35d4be1ad50d175320a8b9684c99164944ac1c5a84c05c5";

TEST(ParallelDeterminism, AllAttacksHarnessScenarioPinned) {
  const auto policy = guard_all_attacks_policy();
  EXPECT_EQ(guard_harness_digest(policy, 0), kAllAttacksDigest);
  EXPECT_EQ(guard_harness_digest(policy, 2), kAllAttacksDigest);
}

/// Stress scenario for the wave machinery's flush triggers: churn events
/// (prologue flush), dead partners (inline flush + leave fan-out), injected
/// faults, coverage tracking and the separate-overlay refusal leg, folded
/// into one digest.
std::string churny_digest(std::size_t threads, bool real_crypto) {
  harness::ExperimentConfig c;
  c.network_size = real_crypto ? 48 : 160;
  c.f = 5;
  c.l = 3;
  c.pm = 0.2;
  c.malicious_mode = harness::MaliciousMode::kSeparateOverlay;
  c.lane_size = 24;
  c.history_limit = 32;
  c.verify_fraction = real_crypto ? 0.5 : 1.0;
  c.track_coverage = true;
  c.use_real_crypto = real_crypto;
  c.seed = 13;
  c.threads = threads;
  sim::FaultPlan plan;
  plan.seed = 5;
  sim::LinkFault lf;
  lf.loss = 0.05;  // wildcard rule: every leg of every shuffle may drop
  plan.links.push_back(lf);
  c.fault_plan = plan;

  harness::NetworkSim net(c);
  net.schedule_churn(c.network_size / 8, sim::seconds(25), sim::seconds(40));
  net.run(10, [](std::size_t) {});

  wire::Writer w;
  for (std::size_t i = 0; i < net.size(); ++i) {
    w.u64(net.is_alive(i) ? 1 : 0);
    if (!net.is_alive(i)) continue;
    const auto& st = net.node_state(i);
    w.u64(st.round());
    guard_fold_peers(w, st.peerset().sorted());
  }
  const auto& s = net.stats();
  w.u64(s.shuffles_attempted);
  w.u64(s.shuffles_completed);
  w.u64(s.shuffles_verified);
  w.u64(s.verification_failures);
  w.u64(s.dead_partner_hits);
  w.u64(s.refused_cross_group);
  w.u64(s.leave_reports);
  w.u64(s.fault_failures);
  const auto coverage = net.coverage_counts();
  w.u64(coverage.count());
  for (const double v : coverage.data()) {
    w.u64(static_cast<std::uint64_t>(v));
  }
  const Bytes bytes = std::move(w).take();
  return guard_hex(crypto::Sha256::hash(bytes));
}

TEST(ParallelDeterminism, ChurnFaultScenarioBitIdenticalFastCrypto) {
  const std::string baseline = churny_digest(0, false);
  for (const std::size_t t : kThreadGrid) {
    EXPECT_EQ(churny_digest(t, false), baseline) << "threads " << t;
  }
}

TEST(ParallelDeterminism, ChurnFaultScenarioBitIdenticalRealCrypto) {
  const std::string baseline = churny_digest(0, true);
  for (const std::size_t t : kThreadGrid) {
    EXPECT_EQ(churny_digest(t, true), baseline) << "threads " << t;
  }
}

/// Crash/restart recovery under the wave drive: the restart prologue must
/// settle pending waves before rebuilding the node from its journal.
std::string recovery_digest(std::size_t threads) {
  harness::ExperimentConfig c;
  c.network_size = 64;
  c.f = 5;
  c.l = 3;
  c.lane_size = 16;
  c.verify_fraction = 1.0;
  c.durable_nodes = true;
  c.checkpoint_interval = 16;
  c.seed = 17;
  c.threads = threads;
  harness::NetworkSim net(c);
  net.schedule_crash_restart(5, sim::seconds(35), sim::seconds(60));
  net.schedule_crash_restart(9, sim::seconds(45), sim::seconds(80));
  net.run(12, [](std::size_t) {});

  wire::Writer w;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& st = net.node_state(i);
    w.u64(st.round());
    guard_fold_peers(w, st.peerset().sorted());
  }
  w.u64(net.stats().shuffles_completed);
  w.u64(net.stats().verification_failures);
  w.u64(net.recovery_crashes());
  w.u64(net.recovery_restarts());
  w.u64(net.recovery_entries_replayed());
  const Bytes bytes = std::move(w).take();
  return guard_hex(crypto::Sha256::hash(bytes));
}

TEST(ParallelDeterminism, CrashRestartScenarioBitIdentical) {
  const std::string baseline = recovery_digest(0);
  for (const std::size_t t : kThreadGrid) {
    EXPECT_EQ(recovery_digest(t), baseline) << "threads " << t;
  }
}

}  // namespace
}  // namespace accountnet::testing
