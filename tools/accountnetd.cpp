// accountnetd — one AccountNet node as a real network daemon.
//
// Hosts an unmodified core::Node on the epoll transport (net::RealNetHost):
// the exact protocol object every simulation runs, now speaking framed TCP
// on a real socket. Demonstrates, end to end on loopback:
//
//   * joining a running network (--join) or seeding one (--seed)
//   * durable write-ahead journaling (--data-dir) via storage::NodeStore
//   * crash-restart recovery (--recover): reload the journal, re-announce
//     the latest checkpoint, catch up over real TCP
//   * accountability: an adversarial daemon (--adversary) is convicted by
//     its honest peers (watch "evicted" in the status file)
//   * clean shutdown on SIGTERM/SIGINT (graceful leave + metrics dump)
//
// Status is published as an atomically-replaced JSON file (--status-file) so
// scripts can poll verdicts without a control socket; --metrics-dump scrapes
// every metric as JSON lines on exit.
//
// Example (see scripts/daemon_demo.sh for the full multi-process scenario):
//   accountnetd --listen 127.0.0.1:9101 --seed --node-seed 1 &
//   accountnetd --listen 127.0.0.1:9102 --join 127.0.0.1:9101 --node-seed 2 &

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <algorithm>

#include "accountnet/core/node.hpp"
#include "accountnet/crypto/provider.hpp"
#include "accountnet/net/http.hpp"
#include "accountnet/net/real_host.hpp"
#include "accountnet/obs/exposition.hpp"
#include "accountnet/obs/sink.hpp"
#include "accountnet/obs/timeseries.hpp"
#include "accountnet/storage/node_store.hpp"
#include "accountnet/storage/segment_store.hpp"
#include "daemon_status.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int sig) { g_signal = sig; }

struct Options {
  std::string listen = "127.0.0.1:0";
  std::string join;        // bootstrap address; empty with --seed or --recover
  bool seed = false;
  bool recover = false;
  bool adversary = false;
  std::string data_dir;    // enables durability + journaling
  std::string status_file;
  std::string metrics_dump;
  std::uint64_t node_seed = 1;
  long shuffle_ms = 1000;
  long run_for_s = 0;      // 0 = until signal
  long http_port = -1;     // -1 = exposition off (the default); 0 = ephemeral
  long scrape_interval_ms = 1000;
  std::size_t f = 10, L = 5;
  std::uint64_t checkpoint_interval = 8;
  std::size_t evict_threshold = 2;
  std::size_t witness_count = 4;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --listen H:P (--seed | --join H:P | --recover)\n"
               "  [--data-dir DIR] [--status-file F] [--metrics-dump F]\n"
               "  [--node-seed N] [--shuffle-ms N] [--run-for SECONDS]\n"
               "  [--f N] [--L N] [--checkpoint-interval N]\n"
               "  [--evict-threshold N] [--witness-count N] [--adversary]\n"
               "  [--http-port P] [--scrape-interval-ms N]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--seed") {
      o.seed = true;
    } else if (a == "--recover") {
      o.recover = true;
    } else if (a == "--adversary") {
      o.adversary = true;
    } else if (const char* v = nullptr; true) {
      if (a == "--listen" && (v = value())) o.listen = v;
      else if (a == "--join" && (v = value())) o.join = v;
      else if (a == "--data-dir" && (v = value())) o.data_dir = v;
      else if (a == "--status-file" && (v = value())) o.status_file = v;
      else if (a == "--metrics-dump" && (v = value())) o.metrics_dump = v;
      else if (a == "--node-seed" && (v = value())) o.node_seed = std::strtoull(v, nullptr, 10);
      else if (a == "--shuffle-ms" && (v = value())) o.shuffle_ms = std::strtol(v, nullptr, 10);
      else if (a == "--run-for" && (v = value())) o.run_for_s = std::strtol(v, nullptr, 10);
      else if (a == "--f" && (v = value())) o.f = std::strtoul(v, nullptr, 10);
      else if (a == "--L" && (v = value())) o.L = std::strtoul(v, nullptr, 10);
      else if (a == "--checkpoint-interval" && (v = value()))
        o.checkpoint_interval = std::strtoull(v, nullptr, 10);
      else if (a == "--evict-threshold" && (v = value()))
        o.evict_threshold = std::strtoul(v, nullptr, 10);
      else if (a == "--witness-count" && (v = value()))
        o.witness_count = std::strtoul(v, nullptr, 10);
      else if (a == "--http-port" && (v = value()))
        o.http_port = std::strtol(v, nullptr, 10);
      else if (a == "--scrape-interval-ms" && (v = value()))
        o.scrape_interval_ms = std::strtol(v, nullptr, 10);
      else return false;
    }
  }
  const int modes = int(o.seed) + int(!o.join.empty()) + int(o.recover);
  return modes == 1;
}

/// One status object, shared by the --status-file and the /status endpoint.
std::string status_json(const accountnet::core::Node& node, std::int64_t uptime_us,
                        std::uint64_t seq) {
  accountnet::tools::DaemonStatus s;
  s.addr = node.id().addr;
  s.pid = static_cast<long>(::getpid());
  s.joined = node.joined();
  s.round = node.state().round();
  s.peers = node.state().peerset().size();
  s.uptime_us = uptime_us;
  s.seq = seq;
  s.quarantined = node.quarantined_addrs();
  s.evicted = node.evicted_addrs();
  return accountnet::tools::status_json(s);
}

/// Atomic replace: scripts polling the file never see a torn write.
void write_status(const Options& o, const accountnet::core::Node& node,
                  std::int64_t uptime_us, std::uint64_t seq) {
  if (o.status_file.empty()) return;
  const std::string tmp = o.status_file + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "%s\n", status_json(node, uptime_us, seq).c_str());
  std::fclose(f);
  std::rename(tmp.c_str(), o.status_file.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace accountnet;

  Options opt;
  if (!parse(argc, argv, opt)) return usage(argv[0]);

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);  // belt and braces; all sends use MSG_NOSIGNAL

  net::TransportConfig transport;
  if (!net::parse_addr(opt.listen, transport.host, transport.port)) {
    // parse_addr rejects port 0, but "--listen host:0" (ephemeral) is legal
    // for a daemon.
    const auto colon = opt.listen.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        opt.listen.substr(colon + 1) != "0") {
      return usage(argv[0]);
    }
    transport.host = opt.listen.substr(0, colon);
    transport.port = 0;
  }

  net::EventLoop loop;
  if (!loop.valid()) {
    std::fprintf(stderr, "accountnetd: epoll unavailable\n");
    return 1;
  }
  obs::MetricsRegistry transport_metrics;
  net::RealNetHost host(loop, transport, transport_metrics, opt.node_seed);
  if (!host.ok()) {
    std::fprintf(stderr, "accountnetd: cannot listen on %s\n", opt.listen.c_str());
    return 1;
  }
  std::fprintf(stderr, "accountnetd: listening on %s\n", host.self_addr().c_str());

  // Identity: 32 key-seed bytes derived from --node-seed. Real crypto — the
  // daemons sign, prove and verify exactly as the paper's testbed nodes do.
  const auto crypto_provider = crypto::make_real_crypto();
  std::uint64_t sm = opt.node_seed;
  Bytes seed32(32);
  for (std::size_t i = 0; i < 32; i += 8) {
    const std::uint64_t w = splitmix64(sm);
    std::memcpy(seed32.data() + i, &w, 8);
  }

  std::shared_ptr<storage::SegmentStore> segments;
  std::unique_ptr<storage::NodeStore> journal;
  if (!opt.data_dir.empty()) {
    segments = std::make_shared<storage::FileSegmentStore>(opt.data_dir);
    journal = std::make_unique<storage::NodeStore>(segments);
  }

  core::Node::Config config;
  config.protocol.max_peerset = opt.f;
  config.protocol.shuffle_length = opt.L;
  config.protocol.checkpoint_interval = journal ? opt.checkpoint_interval : 0;
  config.shuffle_period = sim::milliseconds(opt.shuffle_ms);
  config.witness_count = opt.witness_count;
  config.accountability.enabled = true;
  config.accountability.evict_threshold = opt.evict_threshold;
  if (journal) {
    config.durability.enabled = true;
    config.durability.journal = journal.get();
  }
  if (opt.adversary) config.adversary.bias_sample = true;

  core::Node& node =
      host.make_node(*crypto_provider, seed32, std::move(config), opt.node_seed);

  if (opt.recover) {
    if (!journal) {
      std::fprintf(stderr, "accountnetd: --recover requires --data-dir\n");
      return 2;
    }
    const core::RecoveredNode rec = journal->load();
    node.start_recovered(rec);
    std::fprintf(stderr, "accountnetd: recovered %zu journaled entries\n",
                 rec.entries.size());
  } else if (opt.seed) {
    node.start_as_seed();
  } else {
    node.start_join(opt.join);
  }
  host.pump();

  // Telemetry plane (opt-in): a time-series scraper over both registries and
  // an HTTP/1.0 exposition server on the same event loop.
  const std::int64_t started = loop.now_us();
  std::uint64_t status_seq = 0;
  obs::TimeSeriesScraper scraper;
  scraper.add_source(&node.metrics());
  scraper.add_source(&transport_metrics);
  // Function-scope like `tick` below: the recurring timer captures this
  // std::function by reference, so it must outlive loop.run().
  std::function<void()> scrape_tick;
  std::unique_ptr<net::HttpServer> http;
  if (opt.http_port >= 0) {
    net::HttpServerConfig http_config;
    http_config.port = static_cast<std::uint16_t>(opt.http_port);
    http = std::make_unique<net::HttpServer>(loop, http_config);
    if (!http->listening()) {
      std::fprintf(stderr, "accountnetd: cannot serve http on port %ld\n",
                   opt.http_port);
      return 1;
    }
    std::fprintf(stderr, "accountnetd: http on 127.0.0.1:%u\n", http->port());
    http->set_handler([&](const net::HttpRequest& req) {
      net::HttpResponse r;
      if (req.target == "/metrics") {
        auto samples = node.metrics().snapshot();
        auto transport_samples = transport_metrics.snapshot();
        samples.insert(samples.end(),
                       std::make_move_iterator(transport_samples.begin()),
                       std::make_move_iterator(transport_samples.end()));
        std::stable_sort(samples.begin(), samples.end(),
                         [](const obs::MetricSample& a, const obs::MetricSample& b) {
                           return a.name < b.name;
                         });
        r.content_type = "text/plain; version=0.0.4; charset=utf-8";
        r.body = obs::prometheus_text(samples);
      } else if (req.target == "/healthz") {
        if (node.joined()) {
          r.body = "ok\n";
        } else {
          r.status = 503;
          r.body = "not joined\n";
        }
      } else if (req.target == "/timeseries") {
        r.content_type = "application/json";
        r.body = scraper.to_json_array();
      } else if (req.target == "/status") {
        r.content_type = "application/json";
        r.body = status_json(node, loop.now_us() - started, status_seq) + "\n";
      } else {
        r.status = 404;
        r.body = "not found\n";
      }
      return r;
    });
    // The scrape cadence is the exposition server's, not the protocol's:
    // only armed when the telemetry plane is on.
    const std::int64_t interval_us =
        std::max<long>(opt.scrape_interval_ms, 10) * 1000;
    scrape_tick = [&scraper, &loop, interval_us, &scrape_tick] {
      scraper.sample(loop.now_us());
      loop.schedule_after(interval_us, scrape_tick);
    };
    loop.schedule_after(0, scrape_tick);
  }

  // Housekeeping tick: pump virtual time (cheap; pump() is also driven by
  // traffic and timer wakeups), publish status, honor signals and --run-for.
  bool shutting_down = false;
  std::function<void()> tick = [&] {
    host.pump();
    ++status_seq;
    write_status(opt, node, loop.now_us() - started, status_seq);
    const bool expired =
        opt.run_for_s > 0 && loop.now_us() - started >= opt.run_for_s * 1000000LL;
    if ((g_signal != 0 || expired) && !shutting_down) {
      shutting_down = true;
      std::fprintf(stderr, "accountnetd: %s, leaving gracefully\n",
                   g_signal != 0 ? "signal" : "run time over");
      node.stop_gracefully();
      host.pump();
      // Give the leave notices and any queued frames a moment to flush.
      loop.schedule_after(300000, [&] { loop.stop(); });
      return;
    }
    if (!shutting_down) loop.schedule_after(100000, tick);
  };
  loop.schedule_after(0, tick);
  loop.run();

  write_status(opt, node, loop.now_us() - started, ++status_seq);
  if (!opt.metrics_dump.empty()) {
    obs::JsonLinesSink sink(opt.metrics_dump);
    node.metrics().scrape_to(sink, host.simulator().now());
    transport_metrics.scrape_to(sink, loop.now_us());
    sink.flush();
  }
  host.shutdown();
  std::fprintf(stderr, "accountnetd: bye\n");
  return 0;
}
