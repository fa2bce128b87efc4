// Experiment-harness behaviour: launch dynamics, shuffling convergence,
// neighborhood statistics matching the analysis, churn, malicious modes.
#include <gtest/gtest.h>

#include "accountnet/analysis/bounds.hpp"
#include "accountnet/harness/network_sim.hpp"
#include "accountnet/obs/span.hpp"

namespace accountnet::harness {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig c;
  c.network_size = 120;
  c.f = 5;
  c.l = 3;
  c.d = 2;
  c.lane_size = 30;
  c.verify_fraction = 1.0;  // tests verify every exchange
  c.seed = 11;
  return c;
}

TEST(NetworkSim, LaunchesReachFullSize) {
  NetworkSim sim(small_config());
  std::size_t final_alive = 0;
  sim.run(40, [&](std::size_t) { final_alive = sim.alive_count(); });
  EXPECT_EQ(final_alive, 120u);
  EXPECT_EQ(sim.joined_count(), 120u);
}

TEST(NetworkSim, GrowthIsStaggered) {
  NetworkSim sim(small_config());
  std::vector<std::size_t> sizes;
  sim.run(40, [&](std::size_t) { sizes.push_back(sim.alive_count()); });
  EXPECT_LT(sizes[1], 120u);  // not everyone is up immediately
  EXPECT_EQ(sizes.back(), 120u);
  for (std::size_t i = 1; i < sizes.size(); ++i) EXPECT_GE(sizes[i], sizes[i - 1]);
}

TEST(NetworkSim, FullyVerifiedShufflingHasNoFailures) {
  NetworkSim sim(small_config());
  sim.run(30, nullptr);
  EXPECT_GT(sim.stats().shuffles_completed, 100u);
  EXPECT_GT(sim.stats().shuffles_verified, 100u);
  EXPECT_EQ(sim.stats().verification_failures, 0u);
}

TEST(NetworkSim, NeighborhoodSizeMatchesAlgorithm4) {
  auto config = small_config();
  config.network_size = 400;
  config.lane_size = 100;
  NetworkSim sim(config);
  sim.run(60, nullptr);
  Rng rng(5);
  const double measured = sim.sample_avg_neighborhood(2, 200, rng);
  const double analytic = analysis::expected_neighborhood_size(400, 5, 2);
  EXPECT_NEAR(measured, analytic, analytic * 0.06);
}

TEST(NetworkSim, CommonNodesMatchLemma1) {
  auto config = small_config();
  config.network_size = 400;
  config.lane_size = 100;
  NetworkSim sim(config);
  sim.run(60, nullptr);
  Rng rng(6);
  const double nbh = sim.sample_avg_neighborhood(2, 200, rng);
  const double measured = sim.sample_avg_common(2, 300, rng);
  const double analytic = analysis::expected_common_nodes(400, nbh, nbh);
  EXPECT_NEAR(measured, analytic, std::max(0.5, analytic * 0.25));
}

TEST(NetworkSim, MaliciousFlaggingMatchesPm) {
  auto config = small_config();
  config.network_size = 1000;
  config.pm = 0.10;
  NetworkSim sim(config);
  sim.run(1, nullptr);
  std::size_t m = 0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    if (sim.is_malicious(i)) ++m;
  }
  // Binomial(1000, 0.1): within +-4 sigma.
  EXPECT_GT(m, 100u - 40u);
  EXPECT_LT(m, 100u + 40u);
}

TEST(NetworkSim, NeighborMaliciousFractionCentersOnPm) {
  auto config = small_config();
  config.network_size = 600;
  config.lane_size = 150;
  config.pm = 0.10;
  config.verify_fraction = 0.1;
  NetworkSim sim(config);
  sim.run(50, nullptr);
  Rng rng(7);
  const auto samples = sim.sample_neighbor_malicious_fraction(2, 300, rng);
  ASSERT_GT(samples.count(), 100u);
  EXPECT_NEAR(samples.mean(), 0.10, 0.02);
}

TEST(NetworkSim, ChurnShrinksNetworkAndHeals) {
  auto config = small_config();
  config.network_size = 200;
  config.lane_size = 50;
  config.verify_fraction = 0.2;
  NetworkSim sim(config);
  std::vector<std::size_t> alive;
  sim.schedule_churn(20, sim::seconds(200), sim::seconds(100));
  sim.run(60, [&](std::size_t) { alive.push_back(sim.alive_count()); });
  EXPECT_EQ(alive.back(), 180u);
  EXPECT_GT(sim.stats().dead_partner_hits, 0u);
  EXPECT_GT(sim.stats().leave_reports, 0u);
  // Dead nodes should be purged from most live peersets by the end.
  const auto adj = sim.snapshot_adjacency();
  std::size_t dead_refs = 0, total_refs = 0;
  for (std::size_t i = 0; i < adj.size(); ++i) {
    for (const auto j : adj[i]) {
      ++total_refs;
      if (!sim.is_alive(j)) ++dead_refs;
    }
  }
  EXPECT_LT(static_cast<double>(dead_refs), 0.05 * static_cast<double>(total_refs));
}

TEST(NetworkSim, SeparateOverlayModeSplitsGraph) {
  auto config = small_config();
  config.network_size = 300;
  config.lane_size = 75;
  config.pm = 0.2;
  config.malicious_mode = MaliciousMode::kSeparateOverlay;
  config.verify_fraction = 0.1;
  NetworkSim sim(config);
  sim.run(60, nullptr);
  // No edge crosses the coalition boundary.
  const auto adj = sim.snapshot_adjacency();
  for (std::size_t i = 0; i < adj.size(); ++i) {
    for (const auto j : adj[i]) {
      EXPECT_EQ(sim.is_malicious(i), sim.is_malicious(j))
          << i << " -> " << j << " crosses the coalition boundary";
    }
  }
  // Both coalitions form working overlays of their own.
  std::size_t benign_edges = 0, malicious_edges = 0;
  for (std::size_t i = 0; i < adj.size(); ++i) {
    (sim.is_malicious(i) ? malicious_edges : benign_edges) += adj[i].size();
  }
  EXPECT_GT(benign_edges, 0u);
  EXPECT_GT(malicious_edges, 0u);
}

TEST(NetworkSim, HistoryLengthsStayShort) {
  NetworkSim sim(small_config());
  sim.run(40, nullptr);
  const auto samples = sim.take_history_length_samples();
  ASSERT_GT(samples.count(), 100u);
  // f=5, L=3: a peer survives a round with prob 2/5 -> suffixes are short.
  EXPECT_LT(samples.mean(), 12.0);
  EXPECT_LT(samples.percentile(99), 30.0);
}

TEST(NetworkSim, CoverageGrowsTowardFullNetwork) {
  auto config = small_config();
  config.track_coverage = true;
  NetworkSim sim(config);
  std::vector<double> coverage;
  sim.run(60, [&](std::size_t round) {
    if (round % 10 == 0 && sim.joined_count() > 0) {
      coverage.push_back(sim.coverage_counts().mean());
    }
  });
  ASSERT_GE(coverage.size(), 3u);
  EXPECT_GT(coverage.back(), coverage.front());
  EXPECT_GT(coverage.back(), 40.0);  // saw at least a third of a 120-node net
}

TEST(NetworkSim, ShufflePairTrackingForHeatmap) {
  auto config = small_config();
  config.network_size = 60;
  config.lane_size = 15;
  config.track_shuffle_pairs = true;
  NetworkSim sim(config);
  sim.run(40, nullptr);
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    for (std::size_t j = i + 1; j < 60; ++j) {
      if (sim.ever_shuffled(i, j)) ++pairs;
    }
  }
  EXPECT_GT(pairs, 100u);
}

TEST(NetworkSim, DeterministicAcrossRuns) {
  auto run_once = [] {
    NetworkSim sim(small_config());
    sim.run(20, nullptr);
    return sim.stats().shuffles_completed;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(NetworkSim, ShuffleRateScalesWithNetworkSize) {
  // Paper: shuffle rate ~ 0.1 |V| shuffles/sec at steady state.
  auto config = small_config();
  config.network_size = 300;
  config.lane_size = 300;  // all in one lane would take forever; keep 300
  config.lane_size = 75;
  config.verify_fraction = 0.05;
  NetworkSim sim(config);
  std::vector<std::uint64_t> deltas;
  sim.run(60, [&](std::size_t round) {
    const auto d = sim.take_shuffle_delta();
    if (round > 45) deltas.push_back(d);
  });
  double mean = 0;
  for (auto d : deltas) mean += static_cast<double>(d);
  mean /= static_cast<double>(deltas.size());
  // Per 10 s analysis period each of the 300 nodes initiates ~1 shuffle.
  EXPECT_NEAR(mean, 300.0, 60.0);
}

TEST(NetworkSim, TracerBuildsCrossNodeShuffleTrees) {
  obs::Tracer tracer(7);
  NetworkSim sim(small_config());
  sim.set_tracer(&tracer);
  sim.run(10, nullptr);
  ASSERT_GT(tracer.size(), 0u);

  const auto traces = obs::build_traces(tracer.spans());
  bool found = false;
  for (const auto& t : traces) {
    if (t.root == nullptr || t.root->name != "shuffle") continue;
    const std::string* outcome = t.root->find_attr("outcome");
    if (outcome == nullptr || *outcome != "completed") continue;
    for (const obs::Span* s : t.spans) {
      if (s->name == "shuffle.respond" && s->node != t.root->node &&
          s->parent_span == t.root->span_id) {
        found = true;
      }
    }
    if (found) break;
  }
  EXPECT_TRUE(found) << "no completed shuffle trace with a cross-node respond leg";
}

TEST(NetworkSim, AdversaryDetectionLandsQuarantineSpanInShuffleTrace) {
  auto config = small_config();
  config.pm = 0.2;
  config.adversary.bias_sample = true;
  obs::Tracer tracer(9);
  NetworkSim sim(config);
  sim.set_tracer(&tracer);
  sim.run(20, nullptr);
  ASSERT_GT(sim.stats().byz_detections, 0u);

  const auto traces = obs::build_traces(tracer.spans());
  bool found = false;
  for (const auto& t : traces) {
    if (t.root == nullptr || t.root->name != "shuffle") continue;
    for (const obs::Span* s : t.spans) {
      // The responder (a different node than the cheating initiator)
      // quarantines inside the shuffle's own trace.
      if (s->name == "accuse.quarantine" && s->node != t.root->node) found = true;
    }
    if (found) break;
  }
  EXPECT_TRUE(found) << "no accuse.quarantine span linked to a shuffle trace";
}

TEST(NetworkSim, TracerDoesNotPerturbHarnessOutcomes) {
  NetworkSim plain(small_config());
  plain.run(20, nullptr);
  obs::Tracer tracer(3);
  NetworkSim traced(small_config());
  traced.set_tracer(&tracer);
  traced.run(20, nullptr);
  EXPECT_GT(tracer.size(), 0u);
  EXPECT_EQ(plain.stats().shuffles_completed, traced.stats().shuffles_completed);
  EXPECT_EQ(plain.stats().shuffles_verified, traced.stats().shuffles_verified);
  EXPECT_EQ(plain.stats().verification_failures,
            traced.stats().verification_failures);
  EXPECT_EQ(plain.joined_count(), traced.joined_count());
}

/// Seeded traced run reaching every span leg: adversary detections
/// (quarantine spans and later refusals), churn (dead partners) and lossy
/// links (faults).
std::vector<obs::Span> traced_spans(std::size_t threads) {
  auto config = small_config();
  config.pm = 0.2;
  config.adversary.bias_sample = true;
  sim::FaultPlan plan;
  plan.seed = 3;
  sim::LinkFault lossy;
  lossy.loss = 0.02;
  plan.links.push_back(lossy);
  config.fault_plan = plan;
  config.threads = threads;
  obs::Tracer tracer(5);
  NetworkSim sim(config);
  sim.set_tracer(&tracer);
  sim.schedule_churn(10, sim::seconds(40), sim::seconds(30));
  // Every thread count accepts a tracer (the wave drive once refused it).
  EXPECT_NO_THROW(sim.run(12, nullptr)) << "threads " << threads;
  return tracer.spans();
}

TEST(NetworkSim, TracedSpansIdenticalAtEveryThreadCount) {
  const auto base = traced_spans(0);
  const auto has = [&](const char* name, const char* outcome) {
    return std::any_of(base.begin(), base.end(), [&](const obs::Span& s) {
      const std::string* o = s.find_attr("outcome");
      return s.name == name && (outcome == nullptr || (o != nullptr && *o == outcome));
    });
  };
  ASSERT_TRUE(has("accuse.quarantine", nullptr));
  ASSERT_TRUE(has("shuffle", "dead_partner"));
  ASSERT_TRUE(has("shuffle", "fault"));
  ASSERT_TRUE(has("shuffle", "refused_quarantined"));
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto spans = traced_spans(threads);
    ASSERT_EQ(spans.size(), base.size()) << "threads " << threads;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      ASSERT_EQ(obs::span_to_json_line(spans[i]), obs::span_to_json_line(base[i]))
          << "threads " << threads << ", span " << i;
    }
  }
}

TEST(NetworkSim, EngineCountersIdenticalAtEveryThreadCount) {
  // Every responder verifies with its own engine at every thread count, so
  // engine cache and batch traffic is the threads = 0 run's exactly, and a
  // pooled run interns no series of its own. Small caches make evictions
  // happen.
  struct Scrape {
    std::vector<std::uint64_t> engine;
    std::vector<std::string> names;
  };
  const auto scrape = [](std::size_t threads) {
    auto config = small_config();
    config.verification.sig_cache_capacity = 8;
    config.verification.vrf_cache_capacity = 8;
    config.threads = threads;
    NetworkSim sim(config);
    sim.run(10, nullptr);
    Scrape out;
    for (const char* name : {"verify.cache.hit", "verify.cache.miss",
                             "verify.cache.evict", "verify.batch.calls",
                             "verify.batch.jobs"}) {
      const auto id = sim.metrics().find(name);
      EXPECT_TRUE(id.has_value()) << name;
      out.engine.push_back(id ? sim.metrics().counter_value(*id) : 0);
    }
    for (obs::MetricId id = 0; id < sim.metrics().size(); ++id) {
      out.names.push_back(sim.metrics().metric_name(id));
    }
    return out;
  };
  const Scrape sequential = scrape(0);
  EXPECT_GT(sequential.engine[2], 0u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const Scrape pooled = scrape(threads);
    EXPECT_EQ(pooled.engine, sequential.engine) << "threads " << threads;
    EXPECT_EQ(pooled.names, sequential.names) << "threads " << threads;
  }
}

/// Separate-overlay adversaries that both bias samples and equivocate. An
/// undetected equivocation plants a fabricated `zz-fab-*` address in a
/// peerset; picking it as a partner once aborted the harness ("unknown peer
/// address"). It must count as a dead partner instead.
HarnessStats fabricated_partner_stats(std::size_t threads) {
  auto config = small_config();
  config.network_size = 150;
  config.pm = 0.2;
  config.seed = 14;
  config.malicious_mode = MaliciousMode::kSeparateOverlay;
  config.adversary.bias_sample = true;
  config.adversary.equivocate = true;
  config.threads = threads;
  NetworkSim sim(config);
  // The analysis walks every peerset too, fabricated addresses included.
  EXPECT_NO_THROW(sim.run(14, [&](std::size_t) { sim.snapshot_adjacency(); }))
      << "threads " << threads;
  return sim.stats();
}

TEST(NetworkSim, FabricatedPartnerCountsAsDeadPartner) {
  const HarnessStats sequential = fabricated_partner_stats(0);
  EXPECT_EQ(sequential.verification_failures, 0u);
  EXPECT_GT(sequential.byz_attacks, 0u);
  EXPECT_GT(sequential.dead_partner_hits, 0u);
  const HarnessStats pooled = fabricated_partner_stats(2);
  EXPECT_EQ(pooled.verification_failures, 0u);
  const auto fields = [](const HarnessStats& s) {
    return std::vector<std::uint64_t>{
        s.shuffles_attempted, s.shuffles_completed, s.shuffles_verified,
        s.verification_failures, s.dead_partner_hits, s.refused_cross_group,
        s.leave_reports, s.fault_failures, s.byz_attacks, s.byz_detections,
        s.byz_quarantines, s.byz_refused_quarantined};
  };
  EXPECT_EQ(fields(pooled), fields(sequential));
}

}  // namespace
}  // namespace accountnet::harness
