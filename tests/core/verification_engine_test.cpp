// VerificationEngine: cached verdicts must be bit-identical to the pure
// verification functions with batching on and off, and the
// caches must never let stale or adversarial state change an outcome —
// forged entries from previously-verified partners, equivocating histories
// at the same round, truncated replays after trim, and post-invalidation
// re-verification all fail (or pass) exactly as the uncached path does.
// Real crypto throughout: cache-bypass bugs are security bugs.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "accountnet/core/adversary.hpp"
#include "accountnet/core/history.hpp"
#include "accountnet/core/verification_engine.hpp"
#include "accountnet/util/bytes.hpp"
#include "test_util.hpp"

namespace accountnet::core {
namespace {

using testing::make_node;

void expect_same_verdict(const VerifyResult& want, const VerifyResult& got,
                         const char* what) {
  EXPECT_EQ(want.ok, got.ok) << what;
  EXPECT_EQ(want.code, got.code) << what << ": " << want.reason << " vs " << got.reason;
}

class VerificationEngineFixture : public ::testing::Test {
 protected:
  std::unique_ptr<crypto::CryptoProvider> provider_ = crypto::make_real_crypto();
  NodeConfig config_;
  std::map<std::string, std::unique_ptr<NodeState>> nodes_;

  void SetUp() override {
    config_.max_peerset = 5;
    config_.shuffle_length = 3;
    std::vector<PeerId> ids;
    for (std::size_t i = 0; i < 5; ++i) {
      const std::string addr = "ve" + std::to_string(100 + i);
      auto node = make_node(addr, *provider_, config_);
      ids.push_back(node->self());
      nodes_[addr] = std::move(node);
    }
    auto& bootstrap = *nodes_.begin()->second;
    for (auto& [addr, node] : nodes_) {
      if (node.get() == &bootstrap) {
        bootstrap.init_as_seed();
        continue;
      }
      std::vector<PeerId> others;
      for (const auto& id : ids) {
        if (!(id == node->self())) others.push_back(id);
      }
      const Bytes stamp = bootstrap.signer().sign(join_stamp_payload(addr));
      node->apply_join(bootstrap.self(), stamp, others);
    }
  }

  /// Commits one shuffle from `node` to its VRF-chosen partner; returns the
  /// offer that travelled (its history_suffix/claimed_peerset are the proof
  /// material the tests replay). Nullopt if the exchange failed.
  std::optional<ShuffleOffer> commit_one_shuffle(NodeState& node) {
    const auto choice = choose_partner(node);
    if (!choice) return std::nullopt;
    NodeState& partner = *nodes_.at(choice->partner.addr);
    const ShuffleOffer offer = make_offer(node, *choice, partner.round());
    if (!verify_offer(offer, partner, partner.round(), *provider_)) return std::nullopt;
    const auto response = make_response_and_commit(partner, offer);
    if (!verify_response(response, node, offer, *provider_)) return std::nullopt;
    apply_offer_outcome(node, offer, response);
    return offer;
  }

  /// An offer from `addr` whose suffix has at least `min_entries` entries.
  ShuffleOffer offer_with_history(const std::string& addr,
                                  std::size_t min_entries) {
    for (int round = 0; round < 64; ++round) {
      for (auto& [a, node] : nodes_) {
        const auto offer = commit_one_shuffle(*node);
        if (offer && a == addr && offer->history_suffix.size() >= min_entries) {
          return *offer;
        }
      }
    }
    ADD_FAILURE() << "never built a long-enough suffix for " << addr;
    return {};
  }

  VerifyResult provider_verdict(const ShuffleOffer& offer) {
    return verify_history_suffix(offer.history_suffix, offer.initiator,
                                 Peerset(offer.claimed_peerset), *provider_);
  }
};

// --- Verdict equality across the config grid --------------------------------

TEST_F(VerificationEngineFixture, VerdictsMatchUncachedAcrossConfigGrid) {
  VerificationEngine cached_batched(*provider_);
  VerificationEngine::Config no_batch;
  no_batch.enable_batch = false;
  VerificationEngine cached_seq(*provider_, no_batch);
  VerificationEngine* engines[] = {&cached_batched, &cached_seq};

  // Every exchange is checked three ways before committing, so later rounds
  // replay warm memos against the live uncached verdict — including offers
  // doctored the same way the harness adversary doctors them.
  for (int round = 0; round < 5; ++round) {
    for (auto& [addr, node] : nodes_) {
      const auto choice = choose_partner(*node);
      if (!choice) continue;
      NodeState& partner = *nodes_.at(choice->partner.addr);
      const Round rj = partner.round();
      const ShuffleOffer offer = make_offer(*node, *choice, rj);

      std::vector<ShuffleOffer> variants = {offer};
      if (!offer.history_suffix.empty() &&
          !offer.history_suffix.back().signature.empty()) {
        ShuffleOffer forged = offer;  // forge_history: flipped signature bit
        forged.history_suffix.back().signature.front() ^= 0x01;
        variants.push_back(std::move(forged));
      }
      if (offer.history_suffix.size() > 1) {
        ShuffleOffer truncated = offer;  // truncate_history: drop the oldest
        truncated.history_suffix.erase(truncated.history_suffix.begin());
        variants.push_back(std::move(truncated));
      }
      if (!offer.history_suffix.empty() &&
          offer.history_suffix.back().kind == EntryKind::kShuffle) {
        ShuffleOffer equiv = offer;  // equivocate: consistent but doctored
        equiv.history_suffix.back().in.push_back(fabricated_peer(addr));
        equiv.claimed_peerset =
            UpdateHistory::reconstruct(equiv.history_suffix).sorted();
        variants.push_back(std::move(equiv));
      }
      if (!offer.sample.empty()) {
        ShuffleOffer biased = offer;  // bias_sample: swapped-in member
        biased.sample.front() = fabricated_peer(addr + "-bias");
        variants.push_back(std::move(biased));
      }

      for (const ShuffleOffer& v : variants) {
        const VerifyResult want = verify_offer(v, partner, rj, *provider_);
        for (VerificationEngine* e : engines) {
          expect_same_verdict(want, verify_offer(v, partner, rj, *e), addr.c_str());
        }
      }

      const auto response = make_response_and_commit(partner, offer);
      const VerifyResult want = verify_response(response, *node, offer, *provider_);
      ASSERT_TRUE(want.ok) << want.reason;
      for (VerificationEngine* e : engines) {
        expect_same_verdict(want, verify_response(response, *node, offer, *e),
                            "response");
      }
      apply_offer_outcome(*node, offer, response);
    }
  }

  // The grid is only meaningful if the warm paths actually engaged.
  const auto& st = cached_batched.stats();
  EXPECT_GT(st.sig_hits + st.vrf_hits, 0u);
  EXPECT_GT(st.history_exact + st.history_extended, 0u);
  EXPECT_GT(st.batch_calls, 0u);
  EXPECT_EQ(cached_seq.stats().batch_calls, 0u);
}

// --- Stale-cache regressions -------------------------------------------------

TEST_F(VerificationEngineFixture, ForgedExtensionFromWarmPartnerRejected) {
  const ShuffleOffer offer = offer_with_history("ve101", 2);
  VerificationEngine engine(*provider_);
  ASSERT_TRUE(engine.verify_history(offer.history_suffix, offer.initiator,
                                    Peerset(offer.claimed_peerset)));
  ASSERT_EQ(engine.history_memo_size(), 1u);

  // The partner returns with one more entry — whose signature is forged. The
  // extension path must check the new entry, not wave it through on the memo.
  std::vector<HistoryEntry> extended = offer.history_suffix;
  HistoryEntry forged = extended.back();
  forged.self_round = extended.back().self_round + 1;
  forged.in = {fabricated_peer("forged-in")};
  forged.out.clear();
  forged.fill.clear();
  forged.signature = Bytes(64, 0xab);
  extended.push_back(forged);
  const Peerset claimed = UpdateHistory::reconstruct(extended);

  const VerifyResult want =
      verify_history_suffix(extended, offer.initiator, claimed, *provider_);
  ASSERT_FALSE(want.ok);
  const VerifyResult got = engine.verify_history(extended, offer.initiator, claimed);
  expect_same_verdict(want, got, "forged extension");
  EXPECT_EQ(engine.stats().history_extended, 1u)
      << "the forgery must travel the extension path to regress the cache";
  // The failed extension must not advance the memo: the genuine suffix still
  // passes as an exact hit afterwards.
  EXPECT_TRUE(engine.verify_history(offer.history_suffix, offer.initiator,
                                    Peerset(offer.claimed_peerset)));
  EXPECT_EQ(engine.stats().history_exact, 1u);
}

TEST_F(VerificationEngineFixture, SameSuffixDifferentClaimNotAnExactHit) {
  const ShuffleOffer offer = offer_with_history("ve102", 1);
  VerificationEngine engine(*provider_);
  ASSERT_TRUE(engine.verify_history(offer.history_suffix, offer.initiator,
                                    Peerset(offer.claimed_peerset)));

  std::vector<PeerId> inflated = offer.claimed_peerset;
  inflated.push_back(fabricated_peer("claim"));
  const VerifyResult want = verify_history_suffix(
      offer.history_suffix, offer.initiator, Peerset(inflated), *provider_);
  ASSERT_FALSE(want.ok);
  ASSERT_EQ(want.code, VerifyError::kReconstructionMismatch);
  expect_same_verdict(
      want, engine.verify_history(offer.history_suffix, offer.initiator,
                                  Peerset(inflated)),
      "inflated claim with memoized suffix");
}

TEST_F(VerificationEngineFixture, EquivocatingHistoriesAtSameRoundKeepVerdicts) {
  const ShuffleOffer offer = offer_with_history("ve103", 1);
  ASSERT_EQ(offer.history_suffix.back().kind, EntryKind::kShuffle);
  VerificationEngine engine(*provider_);

  // Fork B: same rounds, same signatures (entry signatures cover only the
  // nonce), doctored membership. Inline verification cannot tell A from B —
  // what the cache must guarantee is that neither verdict leaks to the other.
  std::vector<HistoryEntry> fork = offer.history_suffix;
  fork.back().in.push_back(fabricated_peer("equiv"));
  const Peerset fork_claim = UpdateHistory::reconstruct(fork);

  const VerifyResult want_a = provider_verdict(offer);
  const VerifyResult want_b =
      verify_history_suffix(fork, offer.initiator, fork_claim, *provider_);

  expect_same_verdict(want_a,
                      engine.verify_history(offer.history_suffix, offer.initiator,
                                            Peerset(offer.claimed_peerset)),
                      "fork A cold");
  expect_same_verdict(want_b,
                      engine.verify_history(fork, offer.initiator, fork_claim),
                      "fork B after A memoized");
  expect_same_verdict(want_a,
                      engine.verify_history(offer.history_suffix, offer.initiator,
                                            Peerset(offer.claimed_peerset)),
                      "fork A after B memoized");
  // Same entry count + different bytes can never ride the memo.
  EXPECT_EQ(engine.stats().history_extended, 0u);
  EXPECT_EQ(engine.stats().history_exact, 0u);
}

TEST_F(VerificationEngineFixture, TruncatedReplayAfterTrimVerifiesRetainedSuffix) {
  const ShuffleOffer offer = offer_with_history("ve104", 3);
  VerificationEngine engine(*provider_);
  ASSERT_TRUE(engine.verify_history(offer.history_suffix, offer.initiator,
                                    Peerset(offer.claimed_peerset)));

  // After a trim the proof degrades to the retained suffix: shorter than the
  // memo, so it must take the full path — and still verify.
  std::vector<HistoryEntry> trimmed(offer.history_suffix.begin() + 1,
                                    offer.history_suffix.end());
  const Peerset trimmed_claim = UpdateHistory::reconstruct(trimmed);
  const VerifyResult want =
      verify_history_suffix(trimmed, offer.initiator, trimmed_claim, *provider_);
  expect_same_verdict(want,
                      engine.verify_history(trimmed, offer.initiator, trimmed_claim),
                      "trimmed replay");
  EXPECT_EQ(engine.stats().history_exact, 0u);
  EXPECT_EQ(engine.stats().history_extended, 0u);
  // The trimmed proof becomes the new memo; replaying it is an exact hit.
  expect_same_verdict(want,
                      engine.verify_history(trimmed, offer.initiator, trimmed_claim),
                      "trimmed replay, warm");
  if (want.ok) EXPECT_EQ(engine.stats().history_exact, 1u);
}

TEST_F(VerificationEngineFixture, InvalidateDropsMemoAndCachedVerdicts) {
  const ShuffleOffer offer = offer_with_history("ve101", 2);
  VerificationEngine engine(*provider_);
  ASSERT_TRUE(engine.verify_history(offer.history_suffix, offer.initiator,
                                    Peerset(offer.claimed_peerset)));
  ASSERT_EQ(engine.history_memo_size(), 1u);
  ASSERT_GT(engine.sig_cache_size(), 0u);

  engine.invalidate(offer.initiator);
  EXPECT_EQ(engine.history_memo_size(), 0u);
  EXPECT_EQ(engine.stats().invalidations, 1u);

  // Quarantine lifted / peer re-admitted: the suffix must travel the full
  // path again (no memo) with the uncached verdict. Entry signatures belong
  // to the counterparts, so those cached verdicts legitimately survive.
  const VerifyResult got = engine.verify_history(
      offer.history_suffix, offer.initiator, Peerset(offer.claimed_peerset));
  expect_same_verdict(provider_verdict(offer), got, "post-invalidate");
  EXPECT_EQ(engine.stats().history_full, 2u);

  // Generation bump, checked at the primitive level: a verdict cached under
  // the invalidated signer's own key must be unreachable afterwards.
  VerificationEngine primitive(*provider_);
  const Bytes probe = bytes_of("gen-bump-probe");
  const Bytes probe_sig = nodes_.at(offer.initiator.addr)->signer().sign(probe);
  EXPECT_TRUE(primitive.verify(offer.initiator.key, probe, probe_sig));
  EXPECT_TRUE(primitive.verify(offer.initiator.key, probe, probe_sig));
  EXPECT_EQ(primitive.stats().sig_hits, 1u);
  primitive.invalidate(offer.initiator);
  EXPECT_TRUE(primitive.verify(offer.initiator.key, probe, probe_sig));
  EXPECT_EQ(primitive.stats().sig_hits, 1u)
      << "generation bump must orphan the signer's cached verdicts";

  // A forgery arriving right after re-admission fails closed through the
  // rebuilt state too.
  std::vector<HistoryEntry> forged = offer.history_suffix;
  forged.back().signature.front() ^= 0x01;
  const VerifyResult want = verify_history_suffix(
      forged, offer.initiator, Peerset(offer.claimed_peerset), *provider_);
  ASSERT_FALSE(want.ok);
  expect_same_verdict(want,
                      engine.verify_history(forged, offer.initiator,
                                            Peerset(offer.claimed_peerset)),
                      "forged after re-admission");
}

TEST_F(VerificationEngineFixture, ClearResetsEverything) {
  const ShuffleOffer offer = offer_with_history("ve102", 1);
  VerificationEngine engine(*provider_);
  ASSERT_TRUE(engine.verify_history(offer.history_suffix, offer.initiator,
                                    Peerset(offer.claimed_peerset)));
  engine.clear();
  EXPECT_EQ(engine.history_memo_size(), 0u);
  EXPECT_EQ(engine.sig_cache_size(), 0u);
  EXPECT_EQ(engine.vrf_cache_size(), 0u);
  EXPECT_TRUE(engine.verify_history(offer.history_suffix, offer.initiator,
                                    Peerset(offer.claimed_peerset)));
}

// --- Sample (VRF) path -------------------------------------------------------

TEST_F(VerificationEngineFixture, SampleVerdictsMatchWarmAndCold) {
  NodeState& drawer = *nodes_.at("ve103");
  const Peerset candidates = drawer.peerset();
  ASSERT_FALSE(candidates.empty());
  const Bytes nonce = bytes_of("ve-sample-nonce");
  const Draw draw =
      draw_sample(drawer.signer(), candidates, 2, "an.sample", nonce);

  VerificationEngine engine(*provider_);
  const auto want = verify_sample(*provider_, drawer.self().key, candidates, 2,
                                  "an.sample", nonce, draw.proofs, draw.sample);
  for (int pass = 0; pass < 2; ++pass) {  // cold, then VRF-cache warm
    const auto got = engine.verify_sample(drawer.self().key, candidates, 2,
                                          "an.sample", nonce, draw.proofs,
                                          draw.sample);
    expect_same_verdict(want, got, pass == 0 ? "sample cold" : "sample warm");
  }
  EXPECT_GT(engine.stats().vrf_hits, 0u);

  // A doctored claim fails identically through the cache.
  std::vector<PeerId> lied = draw.sample;
  ASSERT_FALSE(lied.empty());
  lied.front() = fabricated_peer("sample");
  const auto want_bad = verify_sample(*provider_, drawer.self().key, candidates, 2,
                                      "an.sample", nonce, draw.proofs, lied);
  ASSERT_FALSE(want_bad.ok);
  expect_same_verdict(want_bad,
                      engine.verify_sample(drawer.self().key, candidates, 2,
                                           "an.sample", nonce, draw.proofs, lied),
                      "doctored sample claim");
}

}  // namespace
}  // namespace accountnet::core
