#include "accountnet/core/history.hpp"

#include <algorithm>

#include "accountnet/crypto/sha256.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::core {

Bytes join_stamp_payload(const std::string& joiner_addr) {
  wire::Writer w;
  w.str("an.join");
  w.str(joiner_addr);
  return std::move(w).take();
}

Bytes shuffle_nonce_payload(Round counterpart_round) {
  wire::Writer w;
  w.str("an.shuffle");
  w.u64(counterpart_round);
  return std::move(w).take();
}

Bytes leave_payload(Round reporter_round, const std::string& leaver_addr) {
  wire::Writer w;
  w.str("an.leave");
  w.u64(reporter_round);
  w.str(leaver_addr);
  return std::move(w).take();
}

void encode_peer(wire::Writer& w, const PeerId& p) {
  w.str(p.addr);
  w.raw(BytesView(p.key.data(), p.key.size()));
}

PeerId decode_peer(wire::Reader& r) {
  PeerId p;
  p.addr = r.str();
  const Bytes key = r.raw(32);
  std::copy(key.begin(), key.end(), p.key.begin());
  return p;
}

namespace {

/// Decoder cap on every length-prefixed list (see history.hpp).
constexpr std::uint64_t kMaxWireListLength = 100000;

}  // namespace

void encode_peer_list(wire::Writer& w, const std::vector<PeerId>& peers) {
  w.varint(peers.size());
  for (const auto& p : peers) encode_peer(w, p);
}

std::vector<PeerId> decode_peer_list(wire::Reader& r) {
  const auto n = r.varint();
  if (n > kMaxWireListLength) throw wire::DecodeError("peer list implausibly long");
  std::vector<PeerId> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(decode_peer(r));
  return out;
}

void encode_bytes_list(wire::Writer& w, const std::vector<Bytes>& list) {
  w.varint(list.size());
  for (const auto& b : list) w.bytes(b);
}

std::vector<Bytes> decode_bytes_list(wire::Reader& r) {
  const auto n = r.varint();
  if (n > kMaxWireListLength) throw wire::DecodeError("bytes list implausibly long");
  std::vector<Bytes> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(r.bytes());
  return out;
}

void encode_entry(wire::Writer& w, const HistoryEntry& e) {
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.u64(e.self_round);
  encode_peer(w, e.counterpart);
  w.u64(e.nonce);
  w.bytes(e.signature);
  w.u8(e.initiated ? 1 : 0);
  encode_peer_list(w, e.out);
  encode_peer_list(w, e.in);
  encode_peer_list(w, e.fill);
}

HistoryEntry decode_entry(wire::Reader& r) {
  HistoryEntry e;
  const auto kind = r.u8();
  if (kind < 1 || kind > 3) throw wire::DecodeError("bad entry kind");
  e.kind = static_cast<EntryKind>(kind);
  e.self_round = r.u64();
  e.counterpart = decode_peer(r);
  e.nonce = r.u64();
  e.signature = r.bytes();
  e.initiated = r.u8() != 0;
  e.out = decode_peer_list(r);
  e.in = decode_peer_list(r);
  e.fill = decode_peer_list(r);
  return e;
}

void encode_entries(wire::Writer& w, const std::vector<HistoryEntry>& entries) {
  w.varint(entries.size());
  for (const auto& e : entries) encode_entry(w, e);
}

std::vector<HistoryEntry> decode_entries(wire::Reader& r) {
  const auto n = r.varint();
  if (n > kMaxWireListLength) throw wire::DecodeError("entry list implausibly long");
  std::vector<HistoryEntry> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(decode_entry(r));
  return out;
}

ChainDigest entry_digest(const HistoryEntry& e) {
  wire::Writer w;
  encode_entry(w, e);
  const Bytes encoded = std::move(w).take();
  return crypto::Sha256::hash(BytesView(encoded.data(), encoded.size()));
}

ChainDigest chain_step(const ChainDigest& prev, const ChainDigest& entry) {
  crypto::Sha256 h;
  h.update(BytesView(prev.data(), prev.size()));
  h.update(BytesView(entry.data(), entry.size()));
  return h.finish();
}

void UpdateHistory::append(HistoryEntry entry) {
  if (!entries_.empty()) {
    AN_ENSURE_MSG(entry.self_round > entries_.back().self_round,
                  "history rounds must be strictly ascending");
  }
  chain_ = chain_step(chain_, entry_digest(entry));
  entries_.push_back(std::move(entry));
  ++total_appended_;
}

const HistoryEntry& UpdateHistory::back() const {
  AN_ENSURE_MSG(!entries_.empty(), "history is empty");
  return entries_.back();
}

namespace {

// N̂ = (N̂ − out) ∪ in ∪ fill over [first, last), from an empty set.
template <class It>
Peerset replay(It first, It last) {
  Peerset n;
  for (; first != last; ++first) {
    for (const auto& p : first->out) n.erase(p);
    n.insert_all(first->in);
    n.insert_all(first->fill);
  }
  return n;
}

}  // namespace

Peerset UpdateHistory::reconstruct(std::span<const HistoryEntry> suffix) {
  return replay(suffix.begin(), suffix.end());
}

std::size_t UpdateHistory::minimal_suffix_length(const Peerset& current) const {
  // A suffix reconstructs `current` exactly iff it covers the most recent
  // (re)insertion of every current peer; scan backwards tracking coverage.
  if (current.empty()) return 0;
  std::size_t covered = 0;
  std::vector<bool> seen(current.size(), false);
  auto mark = [&](const PeerId& p) {
    const auto& sorted = current.sorted();
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), p);
    if (it != sorted.end() && *it == p) {
      const auto idx = static_cast<std::size_t>(it - sorted.begin());
      if (!seen[idx]) {
        seen[idx] = true;
        ++covered;
      }
    }
  };
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    for (const auto& p : it->in) mark(p);
    for (const auto& p : it->fill) mark(p);
    if (covered == current.size()) {
      // Candidate: the tail from *it on; confirm by replaying it in place
      // (removals could interleave).
      if (replay(std::next(it).base(), entries_.end()) == current) {
        return static_cast<std::size_t>(it - entries_.rbegin()) + 1;
      }
    }
  }
  if (replay(entries_.begin(), entries_.end()) == current) return entries_.size();
  return entries_.size() + 1;
}

std::vector<HistoryEntry> UpdateHistory::suffix(std::size_t k) const {
  k = std::min(k, entries_.size());
  return std::vector<HistoryEntry>(entries_.end() - static_cast<std::ptrdiff_t>(k),
                                   entries_.end());
}

std::vector<HistoryEntry> UpdateHistory::proof_suffix(const Peerset& current) const {
  const std::size_t k = minimal_suffix_length(current);
  return suffix(std::min(k, entries_.size()));
}

void UpdateHistory::trim(std::size_t max_entries) {
  while (entries_.size() > max_entries) {
    base_chain_ = chain_step(base_chain_, entry_digest(entries_.front()));
    entries_.pop_front();
    ++trim_count_;
  }
}

ChainDigest UpdateHistory::chain_at(std::uint64_t index) const {
  AN_ENSURE_MSG(index >= trim_count_ && index <= total_appended_,
                "chain_at index outside the retained window");
  ChainDigest c = base_chain_;
  for (std::uint64_t i = trim_count_; i < index; ++i) {
    c = chain_step(c, entry_digest(entries_[static_cast<std::size_t>(i - trim_count_)]));
  }
  return c;
}

UpdateHistory UpdateHistory::restore(const ChainDigest& base, std::uint64_t first_index,
                                     std::vector<HistoryEntry> entries) {
  UpdateHistory h;
  h.base_chain_ = base;
  h.chain_ = base;
  h.trim_count_ = first_index;
  h.total_appended_ = first_index;
  for (auto& e : entries) h.append(std::move(e));
  return h;
}

std::vector<HistoryEntry> UpdateHistory::entries_from(std::uint64_t index,
                                                      std::size_t count) const {
  if (index < trim_count_ || index >= total_appended_) return {};
  const auto offset = static_cast<std::size_t>(index - trim_count_);
  const std::size_t n = std::min(count, entries_.size() - offset);
  return std::vector<HistoryEntry>(
      entries_.begin() + static_cast<std::ptrdiff_t>(offset),
      entries_.begin() + static_cast<std::ptrdiff_t>(offset + n));
}

HistoryCheckPlan plan_history_checks(const std::vector<HistoryEntry>& suffix,
                                     std::size_t begin, std::optional<Round> prev_round,
                                     const PeerId& owner) {
  HistoryCheckPlan plan;
  std::size_t seq = 0;
  Round prev = prev_round.value_or(0);
  bool first = !prev_round.has_value();
  // Every check — structural or deferred signature — consumes one seq slot in
  // the exact order verify_history_suffix evaluates it; the scan stops at the
  // first structural failure just as the sequential code returns there.
  const auto structural = [&](bool ok, VerifyError code) {
    if (!ok) plan.structural_failure = std::pair{seq, code};
    ++seq;
    return ok;
  };
  const auto defer_sig = [&](std::size_t index, const crypto::PublicKeyBytes& pk,
                             Bytes payload, const Bytes& sig, VerifyError code) {
    plan.sig_checks.push_back(
        HistorySigCheck{seq, index, pk, std::move(payload), &sig, code});
    ++seq;
  };
  for (std::size_t i = begin; i < suffix.size(); ++i) {
    const auto& e = suffix[i];
    if (!first && !structural(e.self_round > prev, VerifyError::kRoundsNotAscending)) {
      break;
    }
    prev = e.self_round;
    first = false;

    bool entry_ok = true;
    switch (e.kind) {
      case EntryKind::kJoin: {
        if (!structural(e.self_round == 0, VerifyError::kJoinAfterRoundZero)) {
          entry_ok = false;
          break;
        }
        defer_sig(i, e.counterpart.key, join_stamp_payload(owner.addr), e.signature,
                  VerifyError::kInvalidJoinStamp);
        if (!structural(e.out.empty(), VerifyError::kJoinRemovesPeers)) entry_ok = false;
        break;
      }
      case EntryKind::kShuffle: {
        defer_sig(i, e.counterpart.key, shuffle_nonce_payload(e.nonce), e.signature,
                  VerifyError::kInvalidShuffleSignature);
        if (!structural(!(e.counterpart == owner), VerifyError::kSelfShuffleEntry)) {
          entry_ok = false;
        }
        break;
      }
      case EntryKind::kLeave: {
        if (!structural(e.out.size() == 1 && e.in.empty() && e.fill.empty(),
                        VerifyError::kMalformedLeaveEntry)) {
          entry_ok = false;
          break;
        }
        defer_sig(i, e.counterpart.key, leave_payload(e.nonce, e.out.front().addr),
                  e.signature, VerifyError::kInvalidLeaveSignature);
        break;
      }
    }
    if (!entry_ok) break;

    // A node never holds itself in its peerset.
    bool owner_in = false;
    for (const auto& p : e.in) {
      if (p == owner) owner_in = true;
    }
    if (!structural(!owner_in, VerifyError::kOwnerInsertedIntoOwnPeerset)) break;
    bool owner_fill = false;
    for (const auto& p : e.fill) {
      if (p == owner) owner_fill = true;
    }
    if (!structural(!owner_fill, VerifyError::kOwnerFilledIntoOwnPeerset)) break;
  }
  return plan;
}

VerifyResult verify_history_suffix(const std::vector<HistoryEntry>& suffix,
                                   const PeerId& owner, const Peerset& claimed,
                                   const crypto::CryptoProvider& provider) {
  const HistoryCheckPlan plan = plan_history_checks(suffix, 0, std::nullopt, owner);
  for (const auto& c : plan.sig_checks) {
    if (plan.structural_failure && plan.structural_failure->first < c.seq) break;
    if (!provider.verify(c.pk, c.payload, *c.signature)) {
      return VerifyResult::fail(c.on_fail);
    }
  }
  if (plan.structural_failure) {
    return VerifyResult::fail(plan.structural_failure->second);
  }
  if (!(UpdateHistory::reconstruct(suffix) == claimed)) {
    return VerifyResult::fail(VerifyError::kReconstructionMismatch);
  }
  return VerifyResult::pass();
}

}  // namespace accountnet::core
