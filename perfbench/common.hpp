// Shared plumbing of the perfbench program: options, the result record each
// workload fills, wall-clock helpers and the self-time ledger.
//
// Every number here is taken from outside the library: the benchmark times
// and counts its own calls into each layer's public functions and reads the
// counters those layers already export. Nothing is traced inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "accountnet/obs/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run reports. `metrics` holds every number the run
/// measured (end-to-end and per-layer); run.py picks the ones BENCHMARK.json
/// asks for in the selected trace mode.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  std::map<std::string, std::pair<double, std::string>> metrics;  ///< name -> (value, unit)
  std::map<std::string, std::string> info;                        ///< digests, sizes

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Correctness gate: a false `ok` fails the run (non-zero exit).
  void gate(bool ok, const std::string& why) {
    if (ok) return;
    correct = false;
    gate_failures.push_back(why);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// num / den, or 0 when nothing was counted.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A counter's value, or 0 if the layer never registered it.
inline std::uint64_t counter_of(const accountnet::obs::MetricsRegistry& r,
                                const std::string& name) {
  const auto id = r.find(name);
  return id ? r.counter_value(*id) : 0;
}

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Host-speed probe: the wall time of a fixed chain of dependent integer
/// operations in the benchmark's own code (never library code). It takes
/// about 1 ms on the reference host.
double probe_s();

/// Throughput samples of the measured slices. Each slice's rate is kept raw
/// and rescaled by the probe timed around it: `scaled` is the rate the host
/// would have shown had the probe taken exactly 1 ms. The reference host's
/// speed swings by up to 1.7x from minute to minute (README.md); the probe
/// swings with it, so the rescaled rate is what stays comparable across runs.
struct SliceRates {
  std::vector<double> raw, scaled;
  void add(double ops, double wall_s, double probe_before_s, double probe_after_s) {
    const double rate = ops / wall_s;
    raw.push_back(rate);
    scaled.push_back(rate * (probe_before_s + probe_after_s) / 2.0 / 1e-3);
  }
};

/// Peak resident set size of this process (VmHWM), in MB. Workloads
/// report it right after set-up as `peak_rss_mb`: the measured phase runs for
/// a wall-clock budget, so its end state (history, evidence, buffers) grows
/// with host speed, while set-up is a fixed amount of work.
double peak_rss_mb();

/// Self-time ledger over the benchmark's own layer scopes. A scope's self
/// time is its duration minus the time of scopes opened inside it, so nested
/// layer calls (a crypto call made from inside a timed node call) are never
/// counted twice. Single-threaded: every scope must open and close on the
/// thread that drives the workload. Inert (no clock reads) while disabled.
class Ledger {
 public:
  class Scope {
   public:
    /// `total_s`, when given, receives the scope's full duration (children
    /// included) on close, so a caller can keep its own distribution without
    /// reading the clock twice more.
    Scope(Ledger& ledger, const char* layer, double* total_s = nullptr);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger& ledger_;
    bool active_;
    double* total_s_;
  };

  void set_enabled(bool on) { enabled_ = on; }
  /// Self time per layer, seconds.
  const std::map<std::string, double, std::less<>>& self_s() const { return self_s_; }
  double total_s() const;

 private:
  struct Frame {
    const char* layer;
    Clock::time_point start;
    double child_s;
  };
  bool enabled_ = false;
  std::vector<Frame> stack_;
  std::map<std::string, double, std::less<>> self_s_;
};

void run_graph_sim(const Options& opt, Report& out);
void run_accountable_shuffle(const Options& opt, Report& out);
void run_witness_channel(const Options& opt, Report& out);
void run_transport_stream(const Options& opt, Report& out);
/// The benchmark's own determinism check (see README.md); returns 0 on pass.
int run_selftest();

}  // namespace perfbench
