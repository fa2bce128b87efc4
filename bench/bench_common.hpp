// Shared plumbing for the table/figure reproduction binaries.
//
// Every binary runs a scaled-down-but-shape-preserving configuration by
// default (so `for b in build/bench/*; do $b; done` completes in minutes)
// and the full paper-scale grid under --full. Each prints the rows/series
// the corresponding paper table or figure reports.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "accountnet/util/stats.hpp"
#include "accountnet/util/table.hpp"

namespace accountnet::bench {

struct BenchArgs {
  bool full = false;
  std::uint64_t seed = 1;
  /// --timeseries: soak benches attach an obs::TimeSeriesScraper and append
  /// "kind":"timeseries" rows to their BENCH_*.json. Off by default so the
  /// default artifacts stay byte-identical.
  bool timeseries = false;
  /// --threads N: worker threads of the harness wave drive
  /// (harness::ExperimentConfig::threads). Results are bit-identical at
  /// every N; only wall-clock changes. 0 (the default) and 1 run the
  /// sequential drive without a pool.
  std::size_t threads = 0;
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      args.full = true;
    } else if (std::strcmp(argv[i], "--timeseries") == 0) {
      args.timeseries = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      args.threads = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 10));
    }
  }
  return args;
}

inline void print_header(const std::string& experiment, const std::string& paper_ref,
                         bool full) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Mode: %s (pass --full for the paper-scale grid)\n",
              full ? "FULL" : "default (scaled)");
  std::printf("==================================================================\n");
}

inline std::string dist_row(const Samples& s, int precision = 3) {
  if (s.empty()) return "(no samples)";
  return "mean=" + Table::num(s.mean(), precision) +
         " sd=" + Table::num(s.stddev(), precision) +
         " p5=" + Table::num(s.percentile(5), precision) +
         " p50=" + Table::num(s.median(), precision) +
         " p95=" + Table::num(s.percentile(95), precision) +
         " n=" + std::to_string(s.count());
}

}  // namespace accountnet::bench
