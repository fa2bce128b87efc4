// Update-history reconstruction, minimal suffixes, and signature checks.
#include <gtest/gtest.h>

#include "accountnet/core/history.hpp"
#include "accountnet/util/ensure.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::core {
namespace {

PeerId pid(const std::string& addr) {
  PeerId p;
  p.addr = addr;
  return p;
}

HistoryEntry shuffle_entry(Round r, std::vector<std::string> out,
                           std::vector<std::string> in,
                           std::vector<std::string> fill = {}) {
  HistoryEntry e;
  e.kind = EntryKind::kShuffle;
  e.self_round = r;
  e.counterpart = pid("cp" + std::to_string(r));
  e.nonce = r * 10;
  for (auto& s : out) e.out.push_back(pid(s));
  for (auto& s : in) e.in.push_back(pid(s));
  for (auto& s : fill) e.fill.push_back(pid(s));
  return e;
}

TEST(History, ReconstructAppliesDeltasInOrder) {
  std::vector<HistoryEntry> entries;
  entries.push_back(shuffle_entry(0, {}, {"a", "b", "c"}));
  entries.push_back(shuffle_entry(1, {"a"}, {"d"}));
  entries.push_back(shuffle_entry(2, {"b", "d"}, {"e"}, {"b"}));
  const Peerset n = UpdateHistory::reconstruct(entries);
  EXPECT_EQ(n, Peerset({pid("c"), pid("e"), pid("b")}));
}

TEST(History, ReconstructEmpty) {
  EXPECT_TRUE(UpdateHistory::reconstruct({}).empty());
}

TEST(History, AppendRequiresAscendingRounds) {
  UpdateHistory h;
  h.append(shuffle_entry(3, {}, {"a"}));
  EXPECT_THROW(h.append(shuffle_entry(3, {}, {"b"})), EnsureError);
  EXPECT_THROW(h.append(shuffle_entry(2, {}, {"b"})), EnsureError);
  h.append(shuffle_entry(5, {}, {"b"}));  // gaps allowed (burned rounds)
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.total_appended(), 2u);
}

TEST(History, MinimalSuffixCoversOldestCurrentPeer) {
  UpdateHistory h;
  h.append(shuffle_entry(0, {}, {"a", "b"}));
  h.append(shuffle_entry(1, {"a"}, {"c"}));
  h.append(shuffle_entry(2, {"b"}, {"d"}));
  // Current set {c, d}: entry 1 introduced c, entry 2 introduced d and
  // removed b; suffix (1,2) reconstructs {c,d} exactly.
  const Peerset current({pid("c"), pid("d")});
  EXPECT_EQ(h.minimal_suffix_length(current), 2u);
  EXPECT_EQ(UpdateHistory::reconstruct(h.suffix(2)), current);
}

TEST(History, MinimalSuffixAccountsForRefills) {
  UpdateHistory h;
  h.append(shuffle_entry(0, {}, {"a", "b"}));
  h.append(shuffle_entry(1, {"a", "b"}, {"c"}, {"a"}));  // a came back via fill
  const Peerset current({pid("a"), pid("c")});
  EXPECT_EQ(h.minimal_suffix_length(current), 1u);
  EXPECT_EQ(UpdateHistory::reconstruct(h.suffix(1)), current);
}

TEST(History, MinimalSuffixEmptyPeerset) {
  UpdateHistory h;
  h.append(shuffle_entry(0, {}, {"a"}));
  EXPECT_EQ(h.minimal_suffix_length(Peerset{}), 0u);
}

TEST(History, MinimalSuffixFullHistoryNeeded) {
  UpdateHistory h;
  h.append(shuffle_entry(0, {}, {"a"}));
  h.append(shuffle_entry(1, {}, {"b"}));
  const Peerset current({pid("a"), pid("b")});
  EXPECT_EQ(h.minimal_suffix_length(current), 2u);
}

TEST(History, MinimalSuffixImpossibleAfterTrim) {
  UpdateHistory h;
  h.append(shuffle_entry(0, {}, {"a"}));
  h.append(shuffle_entry(1, {}, {"b"}));
  h.trim(1);
  const Peerset current({pid("a"), pid("b")});
  EXPECT_EQ(h.minimal_suffix_length(current), h.size() + 1);
  // proof_suffix degrades to everything retained.
  EXPECT_EQ(h.proof_suffix(current).size(), 1u);
}

TEST(History, SuffixReturnsNewestEntriesOldestFirst) {
  UpdateHistory h;
  for (Round r = 0; r < 5; ++r) h.append(shuffle_entry(r, {}, {"p" + std::to_string(r)}));
  const auto s = h.suffix(2);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].self_round, 3u);
  EXPECT_EQ(s[1].self_round, 4u);
  EXPECT_EQ(h.suffix(99).size(), 5u);
}

TEST(History, TrimDropsOldest) {
  UpdateHistory h;
  for (Round r = 0; r < 10; ++r) h.append(shuffle_entry(r, {}, {}));
  h.trim(3);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h.entries().front().self_round, 7u);
  EXPECT_EQ(h.total_appended(), 10u);
}

TEST(History, EntryWireRoundTrip) {
  HistoryEntry e = shuffle_entry(7, {"a", "b"}, {"c"}, {"a"});
  e.signature = {1, 2, 3};
  e.initiated = true;
  wire::Writer w;
  encode_entry(w, e);
  wire::Reader r(w.data());
  const HistoryEntry d = decode_entry(r);
  r.expect_done();
  EXPECT_EQ(d, e);
}

TEST(History, EntryDecodeRejectsBadKind) {
  wire::Writer w;
  w.u8(9);
  wire::Reader r(w.data());
  EXPECT_THROW(decode_entry(r), wire::DecodeError);
}

TEST(History, PayloadsAreDomainSeparated) {
  // The same numeric nonce must produce different signing payloads per kind.
  const Bytes a = shuffle_nonce_payload(5);
  const Bytes b = leave_payload(5, "x");
  const Bytes c = join_stamp_payload("x");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

class HistorySuffixVerify : public ::testing::Test {
 protected:
  std::unique_ptr<crypto::CryptoProvider> provider_ = crypto::make_fast_crypto();

  PeerId make_id(const std::string& addr, const crypto::Signer& s) {
    return PeerId{addr, s.public_key()};
  }
};

TEST_F(HistorySuffixVerify, AcceptsHonestJoinPlusShuffle) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto bn_signer = provider_->make_signer(Bytes(32, 2));
  const auto cp_signer = provider_->make_signer(Bytes(32, 3));
  const PeerId owner = make_id("owner", *owner_signer);
  const PeerId bn = make_id("bn", *bn_signer);
  const PeerId cp = make_id("cp", *cp_signer);

  HistoryEntry join;
  join.kind = EntryKind::kJoin;
  join.self_round = 0;
  join.counterpart = bn;
  join.signature = bn_signer->sign(join_stamp_payload(owner.addr));
  join.in = {pid("a"), cp};

  HistoryEntry sh;
  sh.kind = EntryKind::kShuffle;
  sh.self_round = 1;
  sh.counterpart = cp;
  sh.nonce = 9;
  sh.signature = cp_signer->sign(shuffle_nonce_payload(9));
  sh.out = {pid("a")};
  sh.in = {pid("b")};

  const Peerset claimed({cp, pid("b")});
  EXPECT_TRUE(verify_history_suffix({join, sh}, owner, claimed, *provider_));
}

TEST_F(HistorySuffixVerify, RejectsForgedSignature) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const PeerId owner = make_id("owner", *owner_signer);
  HistoryEntry sh;
  sh.kind = EntryKind::kShuffle;
  sh.self_round = 1;
  sh.counterpart = pid("cp");  // key is all-zero: signature cannot verify
  sh.nonce = 9;
  sh.signature = Bytes(32, 0xab);
  sh.in = {pid("b")};
  const auto r = verify_history_suffix({sh}, owner, Peerset({pid("b")}), *provider_);
  EXPECT_FALSE(r);
  EXPECT_NE(r.reason.find("signature"), std::string::npos);
}

TEST_F(HistorySuffixVerify, RejectsPeersetMismatch) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto cp_signer = provider_->make_signer(Bytes(32, 3));
  const PeerId owner = make_id("owner", *owner_signer);
  const PeerId cp = make_id("cp", *cp_signer);
  HistoryEntry sh;
  sh.kind = EntryKind::kShuffle;
  sh.self_round = 1;
  sh.counterpart = cp;
  sh.nonce = 9;
  sh.signature = cp_signer->sign(shuffle_nonce_payload(9));
  sh.in = {pid("b")};
  // Claim includes a peer the history never introduced.
  const auto r =
      verify_history_suffix({sh}, owner, Peerset({pid("b"), pid("ghost")}), *provider_);
  EXPECT_FALSE(r);
  EXPECT_NE(r.reason.find("reconstructed"), std::string::npos);
}

TEST_F(HistorySuffixVerify, RejectsNonAscendingRounds) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto cp_signer = provider_->make_signer(Bytes(32, 3));
  const PeerId owner = make_id("owner", *owner_signer);
  const PeerId cp = make_id("cp", *cp_signer);
  auto entry = [&](Round r) {
    HistoryEntry e;
    e.kind = EntryKind::kShuffle;
    e.self_round = r;
    e.counterpart = cp;
    e.nonce = r;
    e.signature = cp_signer->sign(shuffle_nonce_payload(r));
    return e;
  };
  const auto r = verify_history_suffix({entry(5), entry(5)}, owner, Peerset{}, *provider_);
  EXPECT_FALSE(r);
}

TEST_F(HistorySuffixVerify, RejectsJoinAfterRoundZero) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto bn_signer = provider_->make_signer(Bytes(32, 2));
  const PeerId owner = make_id("owner", *owner_signer);
  HistoryEntry join;
  join.kind = EntryKind::kJoin;
  join.self_round = 4;
  join.counterpart = make_id("bn", *bn_signer);
  join.signature = bn_signer->sign(join_stamp_payload(owner.addr));
  const auto r = verify_history_suffix({join}, owner, Peerset{}, *provider_);
  EXPECT_FALSE(r);
}

TEST_F(HistorySuffixVerify, RejectsSelfInsertion) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto cp_signer = provider_->make_signer(Bytes(32, 3));
  const PeerId owner = make_id("owner", *owner_signer);
  const PeerId cp = make_id("cp", *cp_signer);
  HistoryEntry sh;
  sh.kind = EntryKind::kShuffle;
  sh.self_round = 1;
  sh.counterpart = cp;
  sh.nonce = 2;
  sh.signature = cp_signer->sign(shuffle_nonce_payload(2));
  sh.in = {owner};
  const auto r = verify_history_suffix({sh}, owner, Peerset({owner}), *provider_);
  EXPECT_FALSE(r);
}

TEST_F(HistorySuffixVerify, RejectsMalformedLeave) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto rep_signer = provider_->make_signer(Bytes(32, 4));
  const PeerId owner = make_id("owner", *owner_signer);
  const PeerId rep = make_id("rep", *rep_signer);
  HistoryEntry lv;
  lv.kind = EntryKind::kLeave;
  lv.self_round = 1;
  lv.counterpart = rep;
  lv.nonce = 3;
  lv.out = {pid("x"), pid("y")};  // must be exactly one leaver
  lv.signature = rep_signer->sign(leave_payload(3, "x"));
  EXPECT_FALSE(verify_history_suffix({lv}, owner, Peerset{}, *provider_));
}

TEST_F(HistorySuffixVerify, AcceptsValidLeave) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto rep_signer = provider_->make_signer(Bytes(32, 4));
  const PeerId owner = make_id("owner", *owner_signer);
  const PeerId rep = make_id("rep", *rep_signer);
  HistoryEntry lv;
  lv.kind = EntryKind::kLeave;
  lv.self_round = 1;
  lv.counterpart = rep;
  lv.nonce = 3;
  lv.out = {pid("x")};
  lv.signature = rep_signer->sign(leave_payload(3, "x"));
  EXPECT_TRUE(verify_history_suffix({lv}, owner, Peerset{}, *provider_));
}

// --- UpdateHistory against a naive model ------------------------------------

// The retained window as a std::vector trimmed with erase(begin), plus the
// chain over every prefix ever appended; every query is answered by brute
// force.
struct NaiveHistory {
  std::vector<HistoryEntry> entries;
  std::vector<ChainDigest> chains{ChainDigest{}};  ///< chains[i]: first i entries.
  std::uint64_t first = 0;

  void append(const HistoryEntry& e) {
    chains.push_back(chain_step(chains.back(), entry_digest(e)));
    entries.push_back(e);
  }
  void trim(std::size_t limit) {
    while (entries.size() > limit) {
      entries.erase(entries.begin());
      ++first;
    }
  }
  std::uint64_t total() const { return chains.size() - 1; }
  std::vector<HistoryEntry> last(std::size_t k) const {
    return {entries.end() - static_cast<std::ptrdiff_t>(k), entries.end()};
  }
  std::size_t minimal_suffix_length(const Peerset& current) const {
    for (std::size_t k = 0; k <= entries.size(); ++k) {
      if (UpdateHistory::reconstruct(last(k)) == current) return k;
    }
    return entries.size() + 1;
  }
  std::vector<HistoryEntry> entries_from(std::uint64_t index, std::size_t count) const {
    if (index < first || index >= total()) return {};
    const auto begin = entries.begin() + static_cast<std::ptrdiff_t>(index - first);
    const auto left = static_cast<std::size_t>(entries.end() - begin);
    const auto n = std::min(count, left);
    return {begin, begin + static_cast<std::ptrdiff_t>(n)};
  }
};

// A random but well-formed peerset change against `live`, which it updates:
// some live peers leave, fresh ones arrive, and some leavers come back as fills.
HistoryEntry random_entry(Rng& rng, Round round, Peerset& live) {
  HistoryEntry e;
  e.kind = static_cast<EntryKind>(1 + rng.uniform(3));
  e.self_round = round;
  e.counterpart = pid("cp" + std::to_string(rng.uniform(20)));
  e.nonce = rng.uniform(1000);
  e.signature = Bytes(static_cast<std::size_t>(rng.uniform(65)), 0x5a);
  e.initiated = rng.uniform(2) == 1;
  for (const auto& p : live.sorted()) {
    if (rng.uniform(4) == 0) e.out.push_back(p);
  }
  for (std::uint64_t i = rng.uniform(4); i > 0; --i) {
    e.in.push_back(pid("p" + std::to_string(rng.uniform(40))));
  }
  for (const auto& p : e.out) {
    if (rng.uniform(3) == 0) e.fill.push_back(p);
  }
  for (const auto& p : e.out) live.erase(p);
  live.insert_all(e.in);
  live.insert_all(e.fill);
  return e;
}

void expect_same_window(const UpdateHistory& h, const NaiveHistory& m) {
  ASSERT_EQ(h.size(), m.entries.size());
  EXPECT_TRUE(std::equal(h.entries().begin(), h.entries().end(), m.entries.begin()));
  EXPECT_EQ(h.first_index(), m.first);
  EXPECT_EQ(h.total_appended(), m.total());
  EXPECT_EQ(h.base_chain(), m.chains[m.first]);
  EXPECT_EQ(h.chain(), m.chains.back());
}

class HistoryModel : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HistoryModel, MatchesNaiveVectorModel) {
  const std::size_t limit = GetParam();
  const std::size_t appends = 10 * limit + 20;
  Rng rng(1000 + limit);
  UpdateHistory h;
  NaiveHistory m;
  Peerset live;
  Round round = 0;
  for (std::size_t step = 0; step < appends; ++step) {
    round += 1 + rng.uniform(3);
    const HistoryEntry e = random_entry(rng, round, live);
    h.append(e);
    m.append(e);
    h.trim(limit);
    m.trim(limit);
    SCOPED_TRACE("step " + std::to_string(step));
    expect_same_window(h, m);

    // The slow checks (chain_at costs one digest per retained entry before
    // `i`, restore() one per retained entry, and an unprovable set makes the
    // model replay every suffix) run once per `limit` appends, so the largest
    // limit stays quick under sanitizers.
    const bool slow_checks = step % limit == 0 || step + 1 == appends;

    // The live set, a set some retained suffix reconstructs exactly and, on
    // the stride, the live set plus a stray peer that usually no suffix
    // reconstructs.
    const auto tail = static_cast<std::size_t>(rng.uniform(m.entries.size() + 1));
    std::vector<Peerset> currents = {live, UpdateHistory::reconstruct(m.last(tail))};
    if (slow_checks) {
      currents.push_back(live);
      currents.back().insert(pid("p" + std::to_string(rng.uniform(40))));
    }
    for (const Peerset& current : currents) {
      const std::size_t k = m.minimal_suffix_length(current);
      EXPECT_EQ(h.minimal_suffix_length(current), k);
      EXPECT_EQ(h.proof_suffix(current), m.last(std::min(k, m.entries.size())));
    }

    const std::uint64_t index = rng.uniform(m.total() + 2);
    const auto count = static_cast<std::size_t>(rng.uniform(limit + 2));
    EXPECT_EQ(h.entries_from(index, count), m.entries_from(index, count));
    EXPECT_EQ(h.entries_from(m.first, m.entries.size()), m.entries);

    if (slow_checks) {
      for (std::uint64_t i = m.first; i <= m.total(); ++i) {
        EXPECT_EQ(h.chain_at(i), m.chains[i]) << "i=" << i;
      }
      const UpdateHistory restored = UpdateHistory::restore(
          h.base_chain(), h.first_index(), h.suffix(h.size()));
      expect_same_window(restored, m);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Limits, HistoryModel, ::testing::Values(1, 4, 96));

}  // namespace
}  // namespace accountnet::core
