// Reduced byz_soak- and fig20-style scenarios whose end-to-end state is
// folded into a SHA-256 digest. The digests were captured from the
// pre-SamplerBackend seed build; sampler_baseline_test asserts the default
// VRF backend still reproduces them byte-for-byte, so any refactor of the
// draw/verify plumbing that perturbs the default path fails loudly.
//
// Everything here is seeded and uses simulated time only, so the digests are
// stable across machines for a fixed build of the library.
#pragma once

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "accountnet/core/adversary.hpp"
#include "accountnet/core/node.hpp"
#include "accountnet/crypto/sha256.hpp"
#include "accountnet/harness/network_sim.hpp"
#include "accountnet/pubsub/pubsub.hpp"
#include "accountnet/sim/network.hpp"
#include "accountnet/wire/codec.hpp"

namespace accountnet::testing {

inline std::string guard_hex(const std::array<std::uint8_t, 32>& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const auto b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

inline void guard_fold_peers(wire::Writer& w, const std::vector<core::PeerId>& peers) {
  w.u64(peers.size());
  for (const auto& p : peers) w.str(p.addr);
}

inline void guard_fold_node(wire::Writer& w, const core::Node& node) {
  w.str(node.id().addr);
  w.u64(node.state().round());
  guard_fold_peers(w, node.state().peerset().sorted());
  w.u64(node.quarantined_count());
  const auto s = node.stats();
  w.u64(s.shuffles_initiated);
  w.u64(s.shuffles_completed);
  w.u64(s.shuffles_responded);
  w.u64(s.shuffles_rejected);
  w.u64(s.shuffle_failures);
  w.u64(s.verification_failures);
  w.u64(s.relays_forwarded);
  w.u64(s.leaves_reported);
}

/// Miniature bench/byz_soak: 24 nodes on the event-driven stack, witnessed
/// channels between honest endpoints, a 3-node contingent armed with
/// bias_sample (the attack every sampler backend must make detectable).
inline std::string guard_byz_digest() {
  sim::Simulator simu;
  const auto provider_ptr = crypto::make_fast_crypto();
  const crypto::CryptoProvider& provider = *provider_ptr;
  sim::SimNetwork net(simu, sim::netem_latency(), 7);

  core::Node::Config config;
  config.protocol.max_peerset = 5;
  config.protocol.shuffle_length = 3;
  config.shuffle_period = sim::seconds(10);
  config.depth = 3;
  config.witness_count = 4;
  config.majority_opt = true;
  config.accountability.enabled = true;

  const std::size_t n = 24;
  const std::vector<std::size_t> adversaries = {4, 12, 20};
  std::vector<std::unique_ptr<core::Node>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    Bytes node_seed(32);
    Rng rng(7 * 1000 + i);
    for (auto& b : node_seed) b = static_cast<std::uint8_t>(rng.next_u64());
    char buf[8];
    std::snprintf(buf, sizeof(buf), "g%03zu", i);
    nodes.push_back(std::make_unique<core::Node>(net, buf, provider, node_seed, config,
                                                 rng.next_u64()));
  }
  nodes[0]->start_as_seed();
  for (std::size_t i = 1; i < n; ++i) {
    simu.schedule(sim::milliseconds(static_cast<std::int64_t>(20 * i)),
                  [&nodes, i] { nodes[i]->start_join(nodes[i - 1]->id().addr); });
  }
  simu.run_until(simu.now() + sim::seconds(120));  // settle honestly

  // Honest-endpoint channels; adversaries can only appear as witnesses.
  std::vector<std::pair<std::size_t, std::uint64_t>> ready;
  const std::pair<std::size_t, std::size_t> pairs[] = {{1, 19}, {2, 18}, {3, 17}};
  for (const auto& [prod, cons] : pairs) {
    nodes[prod]->open_channel(nodes[cons]->id().addr,
                              [&ready, prod = prod](std::uint64_t ch, bool ok) {
                                if (ok) ready.push_back({prod, ch});
                              });
  }
  simu.run_until(simu.now() + sim::seconds(30));

  core::AdversaryPolicy policy;
  policy.bias_sample = true;
  for (const std::size_t a : adversaries) {
    policy.colluders.push_back(nodes[a]->id().addr);
  }
  for (const std::size_t a : adversaries) nodes[a]->adversary() = policy;

  std::uint64_t seq = 0;
  for (std::size_t period = 0; period < 8; ++period) {
    const sim::TimePoint stop = simu.now() + sim::seconds(10);
    while (simu.now() < stop) {
      for (const auto& [prod, ch] : ready) {
        Bytes payload{0xB2, static_cast<std::uint8_t>(seq++)};
        nodes[prod]->send_data(ch, std::move(payload));
      }
      simu.run_until(simu.now() + sim::seconds(2));
    }
  }

  wire::Writer w;
  w.u64(ready.size());
  for (const auto& nd : nodes) guard_fold_node(w, *nd);
  for (const std::size_t a : adversaries) {
    std::uint64_t quarantined_by = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (nodes[i]->is_quarantined(nodes[a]->id().addr)) ++quarantined_by;
    }
    w.u64(quarantined_by);
  }
  const Bytes bytes = std::move(w).take();
  return guard_hex(crypto::Sha256::hash(bytes));
}

/// The pinned harness scenario's original contingent: bias_sample only.
inline core::AdversaryPolicy guard_bias_policy() {
  core::AdversaryPolicy policy;
  policy.bias_sample = true;
  return policy;
}

/// Every shuffle-facing attack at once, each rolled at 50% so the order of
/// the attack-rate draws on the shared node Rng shows up in the digest.
inline core::AdversaryPolicy guard_all_attacks_policy() {
  core::AdversaryPolicy policy;
  policy.bias_sample = true;
  policy.forge_history = true;
  policy.truncate_history = true;
  policy.equivocate = true;
  policy.attack_rate = 0.5;
  return policy;
}

/// Miniature harness run with active `policy` adversaries and full
/// verification (the NetworkSim detection path). `threads` selects the
/// wave-parallel drive (0 = classic sequential loop); the digest must be
/// identical for every value — that IS the parallel-determinism contract.
inline std::string guard_harness_digest(const core::AdversaryPolicy& policy,
                                        std::size_t threads = 0) {
  harness::ExperimentConfig c;
  c.network_size = 128;
  c.f = 5;
  c.l = 3;
  c.d = 2;
  c.pm = 0.15;
  c.lane_size = 32;
  c.history_limit = 48;
  c.verify_fraction = 1.0;
  c.seed = 7;
  c.adversary = policy;
  c.threads = threads;
  harness::NetworkSim net(c);
  net.run(12, [](std::size_t) {});

  wire::Writer w;
  for (std::size_t i = 0; i < net.size(); ++i) {
    w.u64(net.is_alive(i) ? 1 : 0);
    w.u64(net.is_joined(i) ? 1 : 0);
    w.u64(net.is_malicious(i) ? 1 : 0);
    const auto& st = net.node_state(i);
    w.u64(st.round());
    guard_fold_peers(w, st.peerset().sorted());
  }
  const auto& s = net.stats();
  w.u64(s.shuffles_attempted);
  w.u64(s.shuffles_completed);
  w.u64(s.shuffles_verified);
  w.u64(s.verification_failures);
  w.u64(s.byz_attacks);
  w.u64(s.byz_detections);
  w.u64(s.byz_quarantines);
  w.u64(net.quarantine_edges());
  const Bytes bytes = std::move(w).take();
  return guard_hex(crypto::Sha256::hash(bytes));
}

/// Miniature bench/fig20_ml_latency: the pubsub case study over the
/// event-driven stack, witness policy reconfigured via update_config, four
/// publish round-trips timed in virtual time.
inline std::string guard_fig20_digest() {
  sim::Simulator simu;
  const auto provider_ptr = crypto::make_fast_crypto();
  const crypto::CryptoProvider& provider = *provider_ptr;
  sim::SimNetwork net(simu, sim::netem_latency(), 11);

  core::Node::Config config;
  config.protocol.max_peerset = 5;
  config.protocol.shuffle_length = 3;
  config.shuffle_period = sim::seconds(10);
  config.depth = 3;
  config.witness_count = 4;

  const std::size_t n = 20;
  std::vector<std::unique_ptr<core::Node>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    Bytes node_seed(32);
    Rng rng(11 * 1000 + i);
    for (auto& b : node_seed) b = static_cast<std::uint8_t>(rng.next_u64());
    nodes.push_back(std::make_unique<core::Node>(net, "v" + std::to_string(1000 + i),
                                                 provider, node_seed, config,
                                                 rng.next_u64()));
  }
  nodes[0]->start_as_seed();
  for (std::size_t i = 1; i < n; ++i) {
    simu.schedule(sim::milliseconds(static_cast<std::int64_t>(20 * i)),
                  [&nodes, i] { nodes[i]->start_join(nodes[i - 1]->id().addr); });
  }
  simu.run_until(simu.now() + sim::seconds(120));

  core::Node& vehicle = *nodes[2];
  core::Node& service = *nodes[n / 2];
  core::Node::ConfigDelta policy;
  policy.witness_count = std::size_t{2};
  policy.majority_opt = true;
  vehicle.update_config(policy);
  service.update_config(policy);

  pubsub::TopicDirectory directory;
  pubsub::PubSubNode veh(vehicle, directory);
  pubsub::PubSubNode svc(service, directory);

  svc.subscribe("scene", [&svc](const std::string&, const Bytes& img,
                                const core::PeerId&) {
    Bytes reply = img;
    reply.push_back(0xD7);
    svc.publish("detected", std::move(reply));
  });

  std::vector<sim::TimePoint> latencies;
  sim::TimePoint sent_at = 0;
  bool outstanding = false;
  veh.subscribe("detected", [&](const std::string&, const Bytes&, const core::PeerId&) {
    if (!outstanding) return;
    outstanding = false;
    latencies.push_back(simu.now() - sent_at);
  });

  const Bytes frame{0xF1, 0x90, 0x20};
  veh.publish("scene", frame);  // warm-up: establish both channels
  simu.run_until(simu.now() + sim::seconds(20));
  latencies.clear();

  for (int t = 0; t < 4; ++t) {
    sent_at = simu.now();
    outstanding = true;
    veh.publish("scene", frame);
    simu.run_until(simu.now() + sim::seconds(4));
  }

  wire::Writer w;
  w.u64(latencies.size());
  for (const auto l : latencies) w.u64(static_cast<std::uint64_t>(l));
  for (const auto& nd : nodes) guard_fold_node(w, *nd);
  const Bytes bytes = std::move(w).take();
  return guard_hex(crypto::Sha256::hash(bytes));
}

}  // namespace accountnet::testing
