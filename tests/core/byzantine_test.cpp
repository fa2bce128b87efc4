// End-to-end Byzantine pipeline over the event-driven stack: armed
// adversaries attack, detectors package accusations, gossip spreads them,
// honest nodes quarantine and (past the accuser threshold) evict — while a
// clean network stays silent and injected forged accusations bounce.
#include <gtest/gtest.h>

#include <algorithm>

#include "accountnet/core/accusation.hpp"
#include "accountnet/core/node.hpp"
#include "accountnet/util/bytes.hpp"
#include "accountnet/util/rng.hpp"
#include "test_util.hpp"

namespace accountnet::core {
namespace {

struct ByzNet {
  explicit ByzNet(std::vector<std::size_t> adversary_idx = {})
      : net(sim, sim::netem_latency(), 77), adversaries(std::move(adversary_idx)) {
    config.protocol.max_peerset = 4;
    config.protocol.shuffle_length = 2;
    config.shuffle_period = sim::seconds(2);
    config.witness_count = 4;
    config.majority_opt = true;
    config.depth = 2;
    config.accountability.enabled = true;
    for (std::size_t i = 0; i < 24; ++i) {
      Bytes seed(32);
      Rng rng(7000 + i);
      for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
      nodes.push_back(std::make_unique<Node>(net, "z" + std::to_string(100 + i),
                                             *provider, seed, config, rng.next_u64()));
    }
    nodes[0]->start_as_seed();
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      sim.schedule(sim::milliseconds(static_cast<std::int64_t>(40 * i)),
                   [this, i] { nodes[i]->start_join(nodes[i - 1]->id().addr); });
    }
    sim.run_until(sim::seconds(40));  // settle honestly before any arming
  }

  void arm(const AdversaryPolicy& policy) {
    for (const std::size_t i : adversaries) nodes[i]->adversary() = policy;
  }

  /// Rebuilds node i's signer from its construction seed (fast backend keys
  /// are seed-deterministic), letting tests craft genuinely-signed evidence.
  std::unique_ptr<crypto::Signer> signer_for(std::size_t i) const {
    Bytes seed(32);
    Rng rng(7000 + i);
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
    return provider->make_signer(seed);
  }

  /// A valid kInvalidOffer accusation of node `cheater_idx` by node
  /// `accuser_idx`: an offer that fails static verification, body-signed
  /// with the cheater's real key.
  Accusation invalid_offer_accusation(std::size_t accuser_idx, std::size_t cheater_idx,
                                      std::uint64_t round) const {
    ShuffleOffer fake;
    fake.initiator = nodes[cheater_idx]->id();
    fake.initiator_round = round;
    fake.initiator_round_sig = bytes_of("bogus");  // fails static verification
    fake.body_sig = signer_for(cheater_idx)->sign(
        offer_body_payload(fake.encode_core(), nodes[accuser_idx]->id()));

    Accusation acc;
    acc.kind = AccusationKind::kInvalidOffer;
    acc.accused = nodes[cheater_idx]->id();
    acc.accuser = nodes[accuser_idx]->id();
    acc.items.push_back({1, fake.encode(), {}, nodes[accuser_idx]->id()});
    acc.accuser_sig = signer_for(accuser_idx)->sign(acc.signing_payload());
    return acc;
  }

  bool is_adversary(std::size_t i) const {
    return std::find(adversaries.begin(), adversaries.end(), i) != adversaries.end();
  }

  /// Fraction of honest nodes that quarantine node `idx`.
  double coverage(std::size_t idx) const {
    std::size_t honest = 0, quarantining = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i == idx || is_adversary(i)) continue;
      ++honest;
      if (nodes[i]->is_quarantined(nodes[idx]->id().addr)) ++quarantining;
    }
    return honest ? static_cast<double>(quarantining) / static_cast<double>(honest)
                  : 0.0;
  }

  std::size_t honest_honest_quarantines() const {
    std::size_t fp = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (is_adversary(i)) continue;
      for (std::size_t j = 0; j < nodes.size(); ++j) {
        if (i == j || is_adversary(j)) continue;
        if (nodes[i]->is_quarantined(nodes[j]->id().addr)) ++fp;
      }
    }
    return fp;
  }

  std::uint64_t total_counter(const std::string& name) const {
    std::uint64_t c = 0;
    for (const auto& nd : nodes) {
      const auto& m = nd->metrics();
      if (const auto id = m.find(name)) c += m.counter_value(*id);
    }
    return c;
  }

  std::uint64_t accusations_created() const {
    static const char* kTags[] = {"invalid_offer",        "invalid_response",
                                  "history_equivocation", "relay_tamper",
                                  "testimony_mismatch",   "testimony_equivocation",
                                  "relay_omission"};
    std::uint64_t c = 0;
    for (const char* tag : kTags) {
      c += total_counter(std::string("acc.accuse.created.") + tag);
    }
    return c;
  }

  sim::Simulator sim;
  std::unique_ptr<crypto::CryptoProvider> provider = crypto::make_fast_crypto();
  sim::SimNetwork net;
  Node::Config config;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<std::size_t> adversaries;
};

TEST(ByzantineTest, CleanNetworkStaysSilent) {
  ByzNet bn;
  bn.sim.run_until(bn.sim.now() + sim::seconds(40));
  EXPECT_EQ(bn.accusations_created(), 0u);
  EXPECT_EQ(bn.total_counter("acc.quarantine.peers"), 0u);
  for (const auto& n : bn.nodes) EXPECT_EQ(n->quarantined_count(), 0u);
}

TEST(ByzantineTest, ShuffleCheatersAccusedQuarantinedEvicted) {
  ByzNet bn({7, 16});
  AdversaryPolicy p;
  p.bias_sample = true;
  bn.arm(p);

  // Run until gossip has carried both cheaters to full honest coverage (or
  // the bounded window expires).
  for (int t = 0; t < 60; ++t) {
    bn.sim.run_until(bn.sim.now() + sim::seconds(2));
    if (bn.coverage(7) >= 1.0 && bn.coverage(16) >= 1.0) break;
  }
  EXPECT_GE(bn.coverage(7), 1.0);
  EXPECT_GE(bn.coverage(16), 1.0);
  EXPECT_GT(bn.accusations_created(), 0u);
  EXPECT_EQ(bn.honest_honest_quarantines(), 0u);
}

TEST(ByzantineTest, ThresholdEvictionNeedsDistinctAccusers) {
  // Eviction is threshold-gated on DISTINCT accusers (default 2). Gossip is
  // much faster than the attack cadence, so in a live run the first accuser
  // usually quarantines a cheater network-wide before a second detection can
  // occur; here two valid accusations from different accusers are crafted
  // directly (the fast backend's signers are reproducible from node seeds)
  // and injected, driving accuse -> quarantine -> evict deterministically.
  ByzNet bn;
  Node& cheater = *bn.nodes[7];
  Node& observer = *bn.nodes[12];

  auto crafted = [&](std::size_t accuser_idx, std::uint64_t round) {
    Accusation acc = bn.invalid_offer_accusation(accuser_idx, 7, round);
    EXPECT_TRUE(verify_accusation(acc, *bn.provider, bn.config.protocol));
    return acc;
  };

  const Accusation first = crafted(3, 41);
  bn.net.send({bn.nodes[3]->id().addr, observer.id().addr,
               static_cast<std::uint32_t>(MsgType::kAccusation), first.encode()});
  bn.sim.run_until(bn.sim.now() + sim::seconds(2));
  EXPECT_TRUE(observer.is_quarantined(cheater.id().addr));
  EXPECT_FALSE(observer.is_evicted(cheater.id().addr));  // one accuser only

  const Accusation second = crafted(9, 43);
  bn.net.send({bn.nodes[9]->id().addr, observer.id().addr,
               static_cast<std::uint32_t>(MsgType::kAccusation), second.encode()});
  bn.sim.run_until(bn.sim.now() + sim::seconds(2));
  EXPECT_TRUE(observer.is_evicted(cheater.id().addr));

  const auto& m = observer.metrics();
  const auto id = m.find("acc.evict.peers");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(m.counter_value(*id), 1u);
}

TEST(ByzantineTest, LateJoinerIsHandedEarlierVerdicts) {
  // Gossip reaches only the peersets of the moment, and a joiner enters
  // peersets only through its own shuffles. A node that joins after a
  // verdict must still learn it: its first exchange partners hand it over.
  ByzNet bn;
  const std::string cheater = bn.nodes[7]->id().addr;
  const Accusation acc = bn.invalid_offer_accusation(3, 7, 41);
  bn.net.send({bn.nodes[3]->id().addr, bn.nodes[12]->id().addr,
               static_cast<std::uint32_t>(MsgType::kAccusation), acc.encode()});
  bn.sim.run_until(bn.sim.now() + sim::seconds(10));
  ASSERT_TRUE(bn.nodes[12]->is_quarantined(cheater));

  Node late(bn.net, "z200", *bn.provider, testing::seed_from_name("late"), bn.config,
            4242);
  late.start_join(bn.nodes[0]->id().addr);
  bn.sim.run_until(bn.sim.now() + sim::seconds(20));
  ASSERT_TRUE(late.joined());
  EXPECT_TRUE(late.is_quarantined(cheater));
  EXPECT_GT(bn.total_counter("acc.accuse.handed_over"), 0u);
}

TEST(ByzantineTest, ForgedAccusationIsRejectedNetworkWide) {
  ByzNet bn;
  Node& target = *bn.nodes[5];

  // A rogue identity (valid keypair, not part of the overlay) fabricates an
  // offer "from" the honest target, body-signs it with its own key, and
  // packages a properly accuser-signed kInvalidOffer accusation. Attribution
  // must fail at every recipient: the body signature does not verify under
  // the target's real key.
  auto rogue_signer = bn.provider->make_signer(testing::seed_from_name("rogue"));
  const PeerId rogue{"zz-rogue", rogue_signer->public_key()};

  ShuffleOffer fake;
  fake.initiator = target.id();
  fake.initiator_round = 1;
  fake.initiator_round_sig = rogue_signer->sign(bytes_of("not-a-round-sig"));
  fake.body_sig = rogue_signer->sign(
      offer_body_payload(fake.encode_core(), bn.nodes[6]->id()));

  Accusation acc;
  acc.kind = AccusationKind::kInvalidOffer;
  acc.accused = target.id();
  acc.accuser = rogue;
  acc.items.push_back({1, fake.encode(), {}, bn.nodes[6]->id()});
  acc.accuser_sig = rogue_signer->sign(acc.signing_payload());
  ASSERT_FALSE(verify_accusation(acc, *bn.provider, bn.config.protocol));

  const std::uint64_t rejected_before = bn.total_counter("acc.accuse.rejected");
  for (std::size_t i = 0; i < bn.nodes.size(); ++i) {
    if (i == 5) continue;
    bn.net.send({rogue.addr, bn.nodes[i]->id().addr,
                 static_cast<std::uint32_t>(MsgType::kAccusation), acc.encode()});
  }
  bn.sim.run_until(bn.sim.now() + sim::seconds(10));

  EXPECT_GT(bn.total_counter("acc.accuse.rejected"), rejected_before);
  for (const auto& n : bn.nodes) {
    EXPECT_FALSE(n->is_quarantined(target.id().addr));
    EXPECT_FALSE(n->is_evicted(target.id().addr));
  }
  EXPECT_EQ(bn.total_counter("acc.quarantine.peers"), 0u);
}

TEST(ByzantineTest, TamperingWitnessCaughtByConsumer) {
  ByzNet bn;
  Node& producer = *bn.nodes[1];
  Node& consumer = *bn.nodes[20];
  std::optional<std::uint64_t> channel;
  producer.open_channel(consumer.id().addr, [&](std::uint64_t id, bool ok) {
    if (ok) channel = id;
  });
  bn.sim.run_until(bn.sim.now() + sim::seconds(10));
  ASSERT_TRUE(channel.has_value());
  const auto* witnesses = producer.channel_witnesses(*channel);
  ASSERT_NE(witnesses, nullptr);
  ASSERT_FALSE(witnesses->empty());

  // Arm exactly one of the selected witnesses as a relay tamperer.
  Node* cheat = nullptr;
  for (auto& n : bn.nodes) {
    if (n->id().addr == witnesses->front().addr) {
      cheat = n.get();
      break;
    }
  }
  ASSERT_NE(cheat, nullptr);
  AdversaryPolicy p;
  p.tamper_relays = true;
  cheat->adversary() = p;

  for (int t = 0; t < 20 && !consumer.is_quarantined(cheat->id().addr); ++t) {
    producer.send_data(*channel, bytes_of("payload-" + std::to_string(t)));
    bn.sim.run_until(bn.sim.now() + sim::seconds(2));
  }
  EXPECT_TRUE(consumer.is_quarantined(cheat->id().addr));
  EXPECT_GT(bn.total_counter("acc.accuse.created.relay_tamper"), 0u);
  // Nobody quarantines the honest producer or consumer.
  for (const auto& n : bn.nodes) {
    EXPECT_FALSE(n->is_quarantined(producer.id().addr));
    EXPECT_FALSE(n->is_quarantined(consumer.id().addr));
  }
}

}  // namespace
}  // namespace accountnet::core
