// witness_channel: the paper's data plane on 48 event-driven core::Nodes.
//
// Real Ed25519 + ECVRF, wrapped by crypto::make_timed_crypto and by the
// benchmark's own ledger decorator; accountability mode on; 20 ms netem
// hops. Eight producer -> consumer pairs each open a fresh witnessed channel
// every few simulated seconds while the producers send a 256 B payload every
// 100 simulated ms (open loop in simulated time). Background shuffles keep
// running. Each delivery is checked byte for byte at the consumer.
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>

#include "accountnet/core/node.hpp"
#include "accountnet/crypto/timed.hpp"
#include "accountnet/obs/metrics.hpp"
#include "accountnet/sim/network.hpp"
#include "accountnet/util/rng.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using namespace accountnet;

constexpr std::size_t kNodes = 48;
constexpr std::size_t kPairs = 8;
constexpr std::size_t kPayloadBytes = 256;
constexpr sim::Duration kSendPeriod = sim::milliseconds(100);
constexpr sim::Duration kRotation = sim::seconds(4);   ///< fresh channel per pair
constexpr sim::Duration kDeadline = sim::seconds(3);   ///< delivery deadline after due
constexpr sim::Duration kSlice = sim::seconds(1);      ///< measurement slice
constexpr sim::Duration kWarmup = sim::seconds(40);    ///< join + shuffle mixing
constexpr int kSetups = 3;

/// Ledger scope around every call into the crypto layer.
class LedgerSigner final : public crypto::Signer {
 public:
  LedgerSigner(std::unique_ptr<crypto::Signer> inner, Ledger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}
  const crypto::PublicKeyBytes& public_key() const override { return inner_->public_key(); }
  Bytes sign(BytesView msg) const override {
    Ledger::Scope s(ledger_, "crypto");
    return inner_->sign(msg);
  }
  Bytes vrf_prove(BytesView alpha) const override {
    Ledger::Scope s(ledger_, "crypto");
    return inner_->vrf_prove(alpha);
  }
  std::array<std::uint8_t, 64> vrf_output(BytesView alpha) const override {
    Ledger::Scope s(ledger_, "crypto");
    return inner_->vrf_output(alpha);
  }

 private:
  std::unique_ptr<crypto::Signer> inner_;
  Ledger& ledger_;
};

class LedgerCrypto final : public crypto::CryptoProvider {
 public:
  LedgerCrypto(const crypto::CryptoProvider& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}
  std::unique_ptr<crypto::Signer> make_signer(BytesView seed32) const override {
    Ledger::Scope s(ledger_, "crypto");
    return std::make_unique<LedgerSigner>(inner_.make_signer(seed32), ledger_);
  }
  bool verify(const crypto::PublicKeyBytes& pk, BytesView msg, BytesView sig) const override {
    Ledger::Scope s(ledger_, "crypto");
    return inner_.verify(pk, msg, sig);
  }
  std::optional<std::array<std::uint8_t, 64>> vrf_verify(const crypto::PublicKeyBytes& pk,
                                                         BytesView alpha,
                                                         BytesView proof) const override {
    Ledger::Scope s(ledger_, "crypto");
    return inner_.vrf_verify(pk, alpha, proof);
  }
  void verify_batch(std::span<const crypto::VerifyJob> jobs,
                    std::span<crypto::VerifyVerdict> verdicts) const override {
    Ledger::Scope s(ledger_, "crypto");
    inner_.verify_batch(jobs, verdicts);
  }
  const char* name() const override { return inner_.name(); }

 private:
  const crypto::CryptoProvider& inner_;
  Ledger& ledger_;
};

/// Deterministic 256 B payload of (pair, msg): a header naming both, then
/// bytes from a keyed xorshift stream, so the consumer can rebuild it.
Bytes make_payload(std::uint64_t seed, std::uint32_t pair, std::uint64_t msg) {
  Bytes p(kPayloadBytes);
  std::memcpy(p.data(), &pair, sizeof(pair));
  std::memcpy(p.data() + 4, &msg, sizeof(msg));
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull ^ (msg << 8 | pair) ^ 0xD1B54A32D192ED03ull;
  for (std::size_t i = 12; i < p.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    p[i] = static_cast<std::uint8_t>(x);
  }
  return p;
}

double timer_sum_ms(const obs::MetricsRegistry& r, const std::string& name) {
  for (const auto& s : r.snapshot()) {
    if (s.name == name) return s.sum / 1e6;
  }
  return 0.0;
}

struct Pair {
  std::size_t producer = 0;
  std::size_t consumer = 0;
  std::uint64_t channel = 0;  ///< channel the producer currently sends on
  std::uint64_t next_msg = 0;
};

struct Sent {
  sim::TimePoint due = 0;
  sim::TimePoint delivered = -1;
};

/// One network: members are declared so the nodes die first.
class WitnessNet {
 public:
  WitnessNet(std::uint64_t seed, Ledger& ledger)
      : seed_(seed),
        fabric_(sim_, sim::netem_latency(), seed),
        timed_(crypto::make_timed_crypto(crypto::make_real_crypto(), crypto_metrics_)),
        provider_(*timed_, ledger),
        ledger_(ledger) {
    core::Node::Config config;
    config.protocol.max_peerset = 5;
    config.protocol.shuffle_length = 3;
    config.shuffle_period = sim::seconds(10);
    config.depth = 2;
    config.witness_count = 4;
    config.accountability.enabled = true;
    Rng seeder(seed);
    for (std::size_t i = 0; i < kNodes; ++i) {
      Bytes node_seed(32);
      for (auto& b : node_seed) b = static_cast<std::uint8_t>(seeder.next_u64());
      nodes_.push_back(std::make_unique<core::Node>(fabric_, "w" + std::to_string(100 + i),
                                                    provider_, node_seed, config,
                                                    seeder.next_u64()));
    }
    nodes_[0]->start_as_seed();
    for (std::size_t i = 1; i < kNodes; ++i) {
      const std::size_t via = static_cast<std::size_t>(seeder.uniform(i));
      sim_.schedule(sim::milliseconds(static_cast<std::int64_t>(100 * i)),
                    [this, i, via] { nodes_[i]->start_join(nodes_[via]->id().addr); });
    }
    // Pairs over 16 distinct nodes.
    std::vector<std::size_t> order(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) order[i] = i;
    seeder.shuffle(order);
    for (std::size_t p = 0; p < kPairs; ++p) pairs_.push_back({order[2 * p], order[2 * p + 1]});
    for (std::size_t p = 0; p < kPairs; ++p) {
      const std::uint32_t pair = static_cast<std::uint32_t>(p);
      nodes_[pairs_[p].consumer]->set_delivery_callback(
          [this, pair](std::uint64_t, std::uint64_t, const Bytes& payload,
                       const core::PeerId& from) { on_delivery(pair, payload, from); });
    }
    sim_.run_until(kWarmup);
    run_until_or_throw([this] { return all_joined(); }, "a node failed to join");
    // Every pair starts the measurement with a ready channel.
    for (std::size_t p = 0; p < kPairs; ++p) open_channel(p);
    run_until_or_throw([this] { return all_ready(); }, "initial witnessed channel failed");
  }

  void set_traced(bool on) {
    crypto_metrics_.set_timing_enabled(on);
    for (auto& n : nodes_) n->metrics().set_timing_enabled(on);
    ledger_.set_enabled(on);
  }

  /// Starts the open-loop generators and channel rotation at the current time.
  void start_load() {
    setup_sim_ms.clear();
    channels_failed = 0;
    const sim::TimePoint t0 = sim_.now();
    for (std::size_t p = 0; p < kPairs; ++p) {
      const auto offset = static_cast<sim::Duration>(p) * kSendPeriod / kPairs;
      sim_.schedule_at(t0 + offset, [this, p] { send_tick(p); });
      sim_.schedule_at(t0 + offset + static_cast<sim::Duration>(p + 1) * kRotation / kPairs,
                       [this, p] { rotate_tick(p); });
    }
  }
  void stop_load() { sending_ = false; }

  sim::Simulator& sim() { return sim_; }
  sim::SimNetwork& fabric() { return fabric_; }
  const obs::MetricsRegistry& crypto_metrics() const { return crypto_metrics_; }
  const std::vector<std::unique_ptr<core::Node>>& nodes() const { return nodes_; }

  std::uint64_t deliveries = 0;  ///< intact first deliveries
  std::uint64_t duplicates = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t channels_failed = 0;
  std::vector<double> setup_sim_ms;
  std::vector<std::vector<Sent>> sent = std::vector<std::vector<Sent>>(kPairs);

 private:
  /// Advances simulated time in 100 ms steps until `done`, for at most 30 s.
  template <typename Pred>
  void run_until_or_throw(Pred done, const char* what) {
    const sim::TimePoint give_up = sim_.now() + sim::seconds(30);
    while (!done()) {
      if (sim_.now() >= give_up) throw std::runtime_error(what);
      sim_.run_until(sim_.now() + sim::milliseconds(100));
    }
  }

  bool all_joined() const {
    for (const auto& n : nodes_) {
      if (!n->joined()) return false;
    }
    return true;
  }

  bool all_ready() const {
    for (const auto& pr : pairs_) {
      if (pr.channel == 0) return false;
    }
    return true;
  }

  void open_channel(std::size_t p) {
    const sim::TimePoint t0 = sim_.now();
    Ledger::Scope s(ledger_, "core.node_api");
    nodes_[pairs_[p].producer]->open_channel(
        nodes_[pairs_[p].consumer]->id().addr, [this, p, t0](std::uint64_t id, bool ok) {
          if (!ok) {
            ++channels_failed;
            return;
          }
          setup_sim_ms.push_back(sim::to_milliseconds(sim_.now() - t0));
          pairs_[p].channel = id;
        });
  }

  void send_tick(std::size_t p) {
    if (!sending_) return;
    Pair& pr = pairs_[p];
    const std::uint64_t msg = pr.next_msg++;
    sent[p].push_back({sim_.now(), -1});
    {
      Ledger::Scope s(ledger_, "core.node_api");
      nodes_[pr.producer]->send_data(pr.channel,
                                     make_payload(seed_, static_cast<std::uint32_t>(p), msg));
    }
    sim_.schedule(kSendPeriod, [this, p] { send_tick(p); });
  }

  void rotate_tick(std::size_t p) {
    if (!sending_) return;
    open_channel(p);
    sim_.schedule(kRotation, [this, p] { rotate_tick(p); });
  }

  void on_delivery(std::uint32_t pair, const Bytes& payload, const core::PeerId& from) {
    std::uint32_t got_pair = 0;
    std::uint64_t msg = 0;
    if (payload.size() == kPayloadBytes) {
      std::memcpy(&got_pair, payload.data(), sizeof(got_pair));
      std::memcpy(&msg, payload.data() + 4, sizeof(msg));
    }
    if (payload.size() != kPayloadBytes || got_pair != pair || msg >= sent[pair].size() ||
        from.addr != nodes_[pairs_[pair].producer]->id().addr ||
        payload != make_payload(seed_, pair, msg)) {
      ++corrupted;
      return;
    }
    Sent& s = sent[pair][msg];
    if (s.delivered >= 0) {
      ++duplicates;
      return;
    }
    s.delivered = sim_.now();
    ++deliveries;
  }

  std::uint64_t seed_;
  sim::Simulator sim_;
  sim::SimNetwork fabric_;
  obs::MetricsRegistry crypto_metrics_;
  std::unique_ptr<crypto::CryptoProvider> timed_;
  LedgerCrypto provider_;
  Ledger& ledger_;
  std::vector<Pair> pairs_;
  bool sending_ = true;
  std::vector<std::unique_ptr<core::Node>> nodes_;
};

struct NodeTotals {
  std::uint64_t verification_failures = 0, rpc_retries = 0;
  std::uint64_t hit = 0, miss = 0, exact = 0, extended = 0, full = 0;
  explicit NodeTotals(const WitnessNet& net) {
    for (const auto& n : net.nodes()) {
      const auto st = n->stats();
      verification_failures += st.verification_failures;
      rpc_retries += st.rpc_retries;
      const auto& e = n->verification_engine().stats();
      hit += e.sig_hits + e.vrf_hits;
      miss += e.sig_misses + e.vrf_misses;
      exact += e.history_exact;
      extended += e.history_extended;
      full += e.history_full;
    }
  }
};

}  // namespace

void run_witness_channel(const Options& opt, Report& out) {
  Ledger ledger;
  std::unique_ptr<WitnessNet> net;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    net.reset();
    const auto t0 = Clock::now();
    net = std::make_unique<WitnessNet>(opt.seed, ledger);
    setup_s.push_back(seconds_since(t0));
  }
  out.set("peak_rss_mb", peak_rss_mb(), "MB");

  const char* kCryptoOps[] = {"sign", "verify", "vrf_prove", "vrf_output", "vrf_verify",
                              "verify_batch"};
  const auto& cm = net->crypto_metrics();
  std::map<std::string, std::uint64_t> calls0;
  for (const char* op : kCryptoOps) {
    calls0[op] = counter_of(cm, std::string("crypto.") + op + ".calls");
  }
  const std::uint64_t jobs0 = counter_of(cm, "crypto.verify_batch.jobs");
  const NodeTotals n0(*net);
  const std::uint64_t events0 = net->sim().events_processed();
  const sim::NetworkStats fabric0 = net->fabric().stats();

  // Measured slices of one simulated second each, until --seconds of wall
  // time have passed. With --trace 1 odd slices are traced.
  net->start_load();
  SliceRates untraced, traced;
  double traced_wall = 0.0;
  const auto start = Clock::now();
  double probe = probe_s();
  for (std::size_t i = 0; i < 3 || seconds_since(start) < opt.seconds; ++i) {
    const bool is_traced = opt.trace && i % 2 == 1;
    net->set_traced(is_traced);
    const std::uint64_t d0 = net->deliveries;
    const auto t0 = Clock::now();
    net->sim().run_until(net->sim().now() + kSlice);
    const double dt = seconds_since(t0);
    net->set_traced(false);
    if (is_traced) traced_wall += dt;
    const double probe_after = probe_s();
    (is_traced ? traced : untraced)
        .add(static_cast<double>(net->deliveries - d0), dt, probe, probe_after);
    probe = probe_after;
  }
  const std::uint64_t measured_deliveries = net->deliveries;
  const std::uint64_t events1 = net->sim().events_processed();
  const sim::NetworkStats fabric1 = net->fabric().stats();
  net->stop_load();
  net->sim().run_until(net->sim().now() + kDeadline + sim::seconds(1));  // drain

  std::uint64_t attempted = 0, late = 0;
  std::vector<double> latency_ms;
  for (const auto& per_pair : net->sent) {
    for (const Sent& s : per_pair) {
      ++attempted;
      if (s.delivered < 0 || s.delivered - s.due > kDeadline) {
        ++late;
      } else {
        latency_ms.push_back(sim::to_milliseconds(s.delivered - s.due));
      }
    }
  }
  const NodeTotals n1(*net);
  out.attempted = attempted;
  out.failed = late + net->corrupted;
  out.gate(n1.verification_failures == 0, "node verification failures");
  out.gate(late == 0, "payloads not delivered by the deadline");
  out.gate(net->corrupted == 0, "payloads delivered corrupted or misattributed");

  out.set("setup_s", median(setup_s), "s");
  out.set("ops_per_ref_s", median(untraced.scaled), "1/ref_s");
  out.set("ops_per_s", median(untraced.raw), "1/s");
  out.set("deliveries_per_s", median(untraced.raw), "1/s");
  out.set("delivery_sim_ms_p50", percentile(latency_ms, 50), "sim_ms");
  out.set("delivery_sim_ms_p99", percentile(latency_ms, 99), "sim_ms");
  out.set("fail_ratio", ratio(static_cast<double>(out.failed), static_cast<double>(attempted)),
          "ratio");

  for (const char* op : kCryptoOps) {
    const std::string base = std::string("crypto.") + op;
    out.set(base + ".calls", static_cast<double>(counter_of(cm, base + ".calls") - calls0[op]),
            "count");
    out.set(base + ".busy_ms", timer_sum_ms(cm, base), "ms");
  }
  out.set("crypto.verify_batch.jobs",
          static_cast<double>(counter_of(cm, "crypto.verify_batch.jobs") - jobs0), "count");
  out.set("verify.cache.hit_ratio",
          ratio(static_cast<double>(n1.hit - n0.hit),
                static_cast<double>(n1.hit - n0.hit + n1.miss - n0.miss)),
          "ratio");
  out.set("verify.history.full_share",
          ratio(static_cast<double>(n1.full - n0.full),
                static_cast<double>(n1.exact - n0.exact + n1.extended - n0.extended + n1.full -
                                    n0.full)),
          "ratio");
  for (const char* t : {"make_offer", "verify_offer", "make_response", "verify_response"}) {
    double ms = 0.0;
    for (const auto& n : net->nodes()) ms += timer_sum_ms(n->metrics(), std::string("node.") + t);
    out.set(std::string("node.") + t + ".busy_ms", ms, "ms");
  }
  out.set("node.rpc_retries", static_cast<double>(n1.rpc_retries - n0.rpc_retries), "count");
  out.set("witness.channel_setup_sim_ms_p50", median(net->setup_sim_ms), "sim_ms");
  out.set("witness.channels_failed", static_cast<double>(net->channels_failed), "count");
  const double per = static_cast<double>(measured_deliveries);
  out.set("sim.events_per_delivery", ratio(static_cast<double>(events1 - events0), per),
          "events/delivery");
  out.set("fabric.messages_per_delivery",
          ratio(static_cast<double>(fabric1.messages_sent - fabric0.messages_sent), per),
          "msgs/delivery");
  out.set("fabric.bytes_per_delivery",
          ratio(static_cast<double>(fabric1.bytes_sent - fabric0.bytes_sent), per),
          "B/delivery");
  if (opt.trace) {
    out.set("ledger.unattributed_share", 1.0 - ratio(ledger.total_s(), traced_wall), "ratio");
    out.set("trace.overhead_share",
            1.0 - ratio(median(traced.scaled), median(untraced.scaled)), "ratio");
    for (const auto& [layer, s] : ledger.self_s()) {
      out.info["ledger." + layer + "_share"] = std::to_string(ratio(s, traced_wall));
    }
  }
  out.info["measured_slices"] = std::to_string(untraced.raw.size() + traced.raw.size());
  out.info["measured_wall_s"] = std::to_string(seconds_since(start));
  out.info["duplicates"] = std::to_string(net->duplicates);
  out.info["generator_late_ms"] = "0 (open loop in simulated time)";
}

}  // namespace perfbench
