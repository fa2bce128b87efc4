// perfbench: runs one workload of the repo benchmark in this process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// Prints a human-readable line per metric, then, as the last line, one JSON
// object with every number the run measured. run.py builds this binary,
// selects the metrics BENCHMARK.json names for the trace mode and writes the
// result record. Exit status is 0 only if every correctness gate passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double probe_s() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 300000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x *= 0xD1B54A32D192ED03ull;
  }
  asm volatile("" : : "r"(x));  // keeps the chain from being folded away
  return seconds_since(t0);
}

double peak_rss_mb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss is not used:
  // it keeps the high-water mark of the image before exec, so a run started
  // from a larger launcher (python) would report the launcher's RSS.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

Ledger::Scope::Scope(Ledger& ledger, const char* layer, double* total_s)
    : ledger_(ledger), active_(ledger.enabled_), total_s_(total_s) {
  if (active_) ledger_.stack_.push_back({layer, Clock::now(), 0.0});
}

Ledger::Scope::~Scope() {
  if (!active_) return;
  const Frame f = ledger_.stack_.back();
  ledger_.stack_.pop_back();
  const double total = seconds_since(f.start);
  auto it = ledger_.self_s_.find(std::string_view(f.layer));
  if (it == ledger_.self_s_.end()) it = ledger_.self_s_.emplace(f.layer, 0.0).first;
  it->second += total - f.child_s;
  if (total_s_) *total_s_ = total;
  if (!ledger_.stack_.empty()) ledger_.stack_.back().child_s += total;
}

double Ledger::total_s() const {
  double t = 0.0;
  for (const auto& [layer, s] : self_s_) t += s;
  return t;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload graph_sim|accountable_shuffle|"
               "witness_channel|transport_stream --seed N --seconds S --trace 0|1\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return run_selftest();
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0.0)) return usage();

  Report r;
  try {
    if (opt.workload == "graph_sim") {
      run_graph_sim(opt, r);
    } else if (opt.workload == "accountable_shuffle") {
      run_accountable_shuffle(opt, r);
    } else if (opt.workload == "witness_channel") {
      run_witness_channel(opt, r);
    } else if (opt.workload == "transport_stream") {
      run_transport_stream(opt, r);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  r.info["peak_rss_end_mb"] = std::to_string(peak_rss_mb());

  for (const auto& [name, m] : r.metrics) {
    std::printf("%-36s %16.6f %s\n", name.c_str(), m.first, m.second.c_str());
  }
  for (const auto& [key, value] : r.info) std::printf("%-36s %s\n", key.c_str(), value.c_str());
  for (const auto& why : r.gate_failures) std::printf("GATE FAILED: %s\n", why.c_str());

  std::string line = "{\"workload\":" + json_string(opt.workload) +
                     ",\"correct\":" + (r.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) + ",\"gates\":[";
  for (std::size_t i = 0; i < r.gate_failures.size(); ++i) {
    line += (i ? "," : "") + json_string(r.gate_failures[i]);
  }
  line += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    line += (first ? "" : ",") + json_string(name) + ":{\"value\":" + json_number(m.first) +
            ",\"unit\":" + json_string(m.second) + "}";
    first = false;
  }
  line += "},\"info\":{";
  first = true;
  for (const auto& [key, value] : r.info) {
    line += (first ? "" : ",") + json_string(key) + ":" + json_string(value);
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return r.correct ? 0 : 1;
}
