// graph_sim and accountable_shuffle: both drive harness::NetworkSim through
// its public run() call, one analysis round (one shuffle period) per call,
// and read everything else from stats() and the shared metrics registry.
//
// NetworkSim builds its CryptoProvider internally and its wave drive refuses
// metric timing, so nothing below run() can be timed from outside: the
// ledger of these two workloads attributes no time (see README.md).
#include <cstdio>
#include <memory>

#include "accountnet/crypto/sha256.hpp"
#include "accountnet/harness/network_sim.hpp"
#include "accountnet/wire/codec.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using namespace accountnet;

/// bench/bench_sim.hpp's paper_config(v, f = 5, d = 2): Table I defaults
/// with 2% spot verification and a 96-entry history.
harness::ExperimentConfig paper_config(std::size_t v, std::uint64_t seed) {
  harness::ExperimentConfig c;
  c.network_size = v;
  c.f = 5;
  c.l = 3;
  c.d = 2;
  c.seed = seed;
  c.verify_fraction = 0.02;
  c.history_limit = 96;
  // Launch compressed as in bench/scale_soak: steady-state throughput is
  // measured, not Fig. 11's growth curve.
  c.launch_spacing_max = sim::seconds(1);
  return c;
}

harness::ExperimentConfig graph_sim_config(std::uint64_t seed) {
  auto c = paper_config(2000, seed);
  c.threads = 0;
  return c;
}

harness::ExperimentConfig accountable_config(std::size_t v, std::size_t threads,
                                             std::uint64_t seed) {
  auto c = paper_config(v, seed);
  c.use_real_crypto = true;
  c.verify_fraction = 1.0;
  c.threads = threads;
  return c;
}

/// bench/bench_sim.hpp's steady_rounds(): rounds until the launch schedule
/// has finished, plus `settle` rounds.
std::size_t launch_rounds(const harness::ExperimentConfig& c, std::size_t settle) {
  const std::size_t lanes = (c.network_size + c.lane_size - 1) / c.lane_size;
  const double per_lane = static_cast<double>((c.network_size + lanes - 1) / lanes);
  const double launch_seconds =
      per_lane * sim::to_seconds(c.launch_spacing_max) / 2.0 * 1.15;
  return static_cast<std::size_t>(launch_seconds / sim::to_seconds(c.analysis_period)) +
         settle;
}

/// Protocol-state fold, the same as state_digest in bench/scale_soak.cpp:
/// aliveness, membership, per-node round + sorted peerset, cumulative stats.
std::string state_digest(const harness::NetworkSim& net) {
  wire::Writer w;
  for (std::size_t i = 0; i < net.size(); ++i) {
    w.u64(net.is_alive(i) ? 1 : 0);
    w.u64(net.is_joined(i) ? 1 : 0);
    const auto& st = net.node_state(i);
    w.u64(st.round());
    const auto peers = st.peerset().sorted();
    w.u64(peers.size());
    for (const auto& p : peers) w.str(p.addr);
  }
  const auto& s = net.stats();
  w.u64(s.shuffles_attempted);
  w.u64(s.shuffles_completed);
  w.u64(s.shuffles_verified);
  w.u64(s.verification_failures);
  const Bytes bytes = std::move(w).take();
  const auto d = crypto::Sha256::hash(bytes);
  return to_hex(BytesView(d.data(), d.size()));
}

/// The registry counters a run reports as deltas over the measured window.
struct Counters {
  std::uint64_t hit, miss, exact, extended, full, flushes, jobs;
  explicit Counters(const harness::NetworkSim& net)
      : hit(counter_of(net.metrics(), "verify.cache.hit")),
        miss(counter_of(net.metrics(), "verify.cache.miss")),
        exact(counter_of(net.metrics(), "verify.history.exact")),
        extended(counter_of(net.metrics(), "verify.history.extended")),
        full(counter_of(net.metrics(), "verify.history.full")),
        flushes(counter_of(net.metrics(), "verify.epoch_batch.flushes")),
        jobs(counter_of(net.metrics(), "verify.epoch_batch.jobs")) {}
};

void run_harness(const Options& opt, const harness::ExperimentConfig& cfg, int setups,
                 Report& out) {
  const std::size_t warm = launch_rounds(cfg, 4);

  // Set-up = construction + launch + settle, repeated; the last one is kept.
  std::unique_ptr<harness::NetworkSim> net;
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) {
    net.reset();
    const auto t0 = Clock::now();
    net = std::make_unique<harness::NetworkSim>(cfg);
    net->run(warm, nullptr);
    setup_s.push_back(seconds_since(t0));
  }
  out.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Measured rounds: one run(1) call each, until --seconds have passed.
  // With --trace 1, odd rounds are the traced ones; the benchmark's round
  // timer is the only timing available from outside, so both halves run
  // identical code and the overhead should read as noise around 0.
  const harness::HarnessStats before = net->stats();
  const Counters c0(*net);
  std::vector<double> round_ms;
  SliceRates untraced, traced;
  const auto start = Clock::now();
  double probe = probe_s();
  for (std::size_t i = 0; i < 3 || seconds_since(start) < opt.seconds; ++i) {
    const std::uint64_t done = net->stats().shuffles_completed;
    const auto t0 = Clock::now();
    net->run(1, nullptr);
    const double dt = seconds_since(t0);
    round_ms.push_back(dt * 1e3);
    const double probe_after = probe_s();
    (opt.trace && i % 2 == 1 ? traced : untraced)
        .add(static_cast<double>(net->stats().shuffles_completed - done), dt, probe,
             probe_after);
    probe = probe_after;
  }
  const double wall_s = seconds_since(start);
  const harness::HarnessStats& after = net->stats();
  const Counters c1(*net);

  const std::uint64_t attempted = after.shuffles_attempted - before.shuffles_attempted;
  const std::uint64_t completed = after.shuffles_completed - before.shuffles_completed;
  out.attempted = attempted;
  out.failed = attempted - completed;
  out.gate(after.verification_failures == 0, "harness verification failures");
  out.gate(completed > 0, "no shuffle completed in the measured rounds");

  out.set("setup_s", median(setup_s), "s");
  out.set("ops_per_ref_s", median(untraced.scaled), "1/ref_s");
  out.set("ops_per_s", median(untraced.raw), "1/s");
  out.set("shuffles_per_s", median(untraced.raw), "1/s");
  out.set("fail_ratio", ratio(static_cast<double>(out.failed), static_cast<double>(attempted)),
          "ratio");
  out.set("harness.round_ms_p50", median(round_ms), "ms");
  out.set("harness.shuffles_completed", static_cast<double>(completed), "count");
  out.set("harness.verification_failures", static_cast<double>(after.verification_failures),
          "count");
  out.set("verify.cache.hit_ratio",
          ratio(static_cast<double>(c1.hit - c0.hit),
                static_cast<double>(c1.hit - c0.hit + c1.miss - c0.miss)),
          "ratio");
  out.set("verify.history.full_share",
          ratio(static_cast<double>(c1.full - c0.full),
                static_cast<double>(c1.exact - c0.exact + c1.extended - c0.extended +
                                    c1.full - c0.full)),
          "ratio");
  out.set("verify.epoch_batch.flushes", static_cast<double>(c1.flushes - c0.flushes), "count");
  out.set("verify.epoch_batch.jobs_per_flush",
          ratio(static_cast<double>(c1.jobs - c0.jobs),
                static_cast<double>(c1.flushes - c0.flushes)),
          "jobs/flush");
  // No layer below run() is timeable from outside: all measured wall time
  // is unattributed (the gap ROADMAP item 2 targets).
  out.set("ledger.unattributed_share", 1.0, "ratio");
  if (opt.trace) {
    out.set("trace.overhead_share",
            1.0 - ratio(median(traced.scaled), median(untraced.scaled)), "ratio");
  }
  out.info["network_size"] = std::to_string(cfg.network_size);
  out.info["threads"] = std::to_string(cfg.threads);
  out.info["measured_rounds"] = std::to_string(round_ms.size());
  out.info["measured_wall_s"] = std::to_string(wall_s);
  out.info["shuffles_verified"] =
      std::to_string(after.shuffles_verified - before.shuffles_verified);
  out.info["state_digest"] = state_digest(*net);
}

/// Digest and deterministic counts of a short run, for the self-test.
struct Fingerprint {
  std::string digest;
  std::uint64_t attempted, completed, verified, failures;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const harness::ExperimentConfig& cfg, std::size_t extra_rounds) {
  harness::NetworkSim net(cfg);
  net.run(launch_rounds(cfg, 4) + extra_rounds, nullptr);
  const auto& s = net.stats();
  return {state_digest(net), s.shuffles_attempted, s.shuffles_completed, s.shuffles_verified,
          s.verification_failures};
}

}  // namespace

void run_graph_sim(const Options& opt, Report& out) {
  run_harness(opt, graph_sim_config(opt.seed), 3, out);
}

void run_accountable_shuffle(const Options& opt, Report& out) {
  run_harness(opt, accountable_config(64, 2, opt.seed), 3, out);
}

int run_selftest() {
  // Tiny sizes of both harness workloads: a repeated run must reproduce the
  // digest and counts, and threads = 2 must match the sequential drive
  // (the wave-drive contract, docs/PARALLELISM.md).
  struct Case {
    const char* name;
    harness::ExperimentConfig (*make)(std::size_t threads);
  };
  const Case cases[] = {
      {"graph_sim",
       [](std::size_t threads) {
         auto c = graph_sim_config(7);
         c.network_size = 300;
         c.threads = threads;
         return c;
       }},
      {"accountable_shuffle",
       [](std::size_t threads) { return accountable_config(16, threads, 7); }},
  };
  int failures = 0;
  for (const auto& c : cases) {
    const Fingerprint seq = fingerprint(c.make(0), 4);
    const Fingerprint again = fingerprint(c.make(0), 4);
    const Fingerprint waves = fingerprint(c.make(2), 4);
    const bool ok = seq == again && seq == waves && seq.completed > 0 && seq.failures == 0;
    std::printf("%-20s digest %.16s  completed %llu  verified %llu  repeat %s  threads=2 %s\n",
                c.name, seq.digest.c_str(), static_cast<unsigned long long>(seq.completed),
                static_cast<unsigned long long>(seq.verified),
                seq == again ? "same" : "DIFFERENT", seq == waves ? "same" : "DIFFERENT");
    if (!ok) ++failures;
  }
  std::printf("selftest %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
