#include "accountnet/core/sampler.hpp"

#include <algorithm>
#include <string>

#include "accountnet/util/ensure.hpp"

namespace accountnet::core {

std::optional<Draw> SamplerBackend::draw_one(const crypto::Signer& signer,
                                             const Peerset& candidates,
                                             std::string_view domain,
                                             BytesView nonce) const {
  Draw d = draw(signer, candidates, 1, domain, nonce);
  if (d.sample.empty()) return std::nullopt;
  return d;
}

VerifyResult SamplerBackend::verify_one(const crypto::CryptoProvider& provider,
                                        const crypto::PublicKeyBytes& prover_key,
                                        const Peerset& candidates,
                                        std::string_view domain, BytesView nonce,
                                        const std::vector<Bytes>& proofs,
                                        const PeerId& claimed) const {
  return verify(provider, prover_key, candidates, 1, domain, nonce, proofs, {claimed});
}

namespace {

/// Same byte fold select_index uses: little-endian read of the first eight
/// VRF output bytes. Shared so all backends agree on the scalar a beta maps
/// to.
std::uint64_t fold64(BytesView beta) {
  AN_ENSURE_MSG(beta.size() >= 8, "vrf output too short");
  std::uint64_t h = 0;
  for (int i = 7; i >= 0; --i) h = (h << 8) | beta[static_cast<std::size_t>(i)];
  return h;
}

// ---------------------------------------------------------------------------
// kVrf — Algorithms 1/2 verbatim (core/select.hpp). This backend delegates
// to the exact pre-interface functions with the exact domain strings, so
// every default-configured run is byte-identical to the seed code.
// ---------------------------------------------------------------------------

class VrfSampler final : public SamplerBackend {
 public:
  const SamplerCapabilities& capabilities() const override {
    // E[proofs per pick] < 2: Null probability is < 1/2 per attempt.
    static constexpr SamplerCapabilities caps{SamplerKind::kVrf,
                                              "vrf",
                                              kMaxDrawAttempts,
                                              2.0,
                                              80,
                                              64,
                                              0,
                                              /*rejection_sampling=*/true};
    return caps;
  }

  Draw draw(const crypto::Signer& signer, const Peerset& candidates, std::size_t want,
            std::string_view domain, BytesView nonce) const override {
    return draw_sample(signer, candidates, want, domain, nonce);
  }

  VerifyResult verify(const crypto::CryptoProvider& provider,
                      const crypto::PublicKeyBytes& prover_key,
                      const Peerset& candidates, std::size_t want,
                      std::string_view domain, BytesView nonce,
                      const std::vector<Bytes>& proofs,
                      const std::vector<PeerId>& claimed) const override {
    return verify_sample(provider, prover_key, candidates, want, domain, nonce, proofs,
                         claimed);
  }
};

// ---------------------------------------------------------------------------
// kPeerSwap — swap-based sampling. Pick i applies a verifiable Fisher-Yates
// swap to the sorted candidate list: the i-th VRF output selects a swap
// index j in [i, n) and list[i] after the swap is the pick. Exactly
// min(want, n) proofs, no Null retries, no duplicate suppression (a
// Fisher-Yates prefix cannot repeat). The alpha domain is prefixed "ps."
// so the proof stream can never be replayed against the VRF backend.
//
// Deviation from Algorithm 2: the VRF output is reduced mod (n - i) rather
// than masked to Q bits, trading the paper's exact-uniformity-via-rejection
// for a fixed proof count (the modulo bias is ~(n-i)/2^64 — negligible, but
// not zero, which is why kVrf stays the default).
// ---------------------------------------------------------------------------

class PeerSwapSampler final : public SamplerBackend {
 public:
  const SamplerCapabilities& capabilities() const override {
    static constexpr SamplerCapabilities caps{SamplerKind::kPeerSwap,
                                              "peerswap",
                                              kMaxDrawAttempts,
                                              1.0,
                                              80,
                                              64,
                                              0,
                                              /*rejection_sampling=*/false};
    return caps;
  }

  Draw draw(const crypto::Signer& signer, const Peerset& candidates, std::size_t want,
            std::string_view domain, BytesView nonce) const override {
    Draw d;
    std::vector<PeerId> list = candidates.sorted();
    const std::size_t n = list.size();
    const std::size_t target = std::min({want, n, capabilities().max_proofs});
    const std::string dom = prefixed(domain);
    for (std::size_t i = 0; i < target; ++i) {
      const Bytes alpha = draw_alpha(dom, nonce, static_cast<std::uint64_t>(i) + 1);
      const auto beta = signer.vrf_output(alpha);
      d.proofs.push_back(signer.vrf_prove(alpha));
      const std::size_t j =
          i + static_cast<std::size_t>(fold64(BytesView(beta.data(), beta.size())) %
                                       static_cast<std::uint64_t>(n - i));
      std::swap(list[i], list[j]);
      d.sample.push_back(list[i]);
    }
    return d;
  }

  VerifyResult verify(const crypto::CryptoProvider& provider,
                      const crypto::PublicKeyBytes& prover_key,
                      const Peerset& candidates, std::size_t want,
                      std::string_view domain, BytesView nonce,
                      const std::vector<Bytes>& proofs,
                      const std::vector<PeerId>& claimed) const override {
    std::vector<PeerId> list = candidates.sorted();
    const std::size_t n = list.size();
    const std::size_t target = std::min({want, n, capabilities().max_proofs});
    if (target == 0) {
      if (!proofs.empty() || !claimed.empty()) {
        return VerifyResult::fail(VerifyError::kSampleFromEmptyCandidates);
      }
      return VerifyResult::pass();
    }
    if (proofs.size() > capabilities().max_proofs) {
      return VerifyResult::fail(VerifyError::kTooManyDrawProofs);
    }
    if (proofs.size() > target) {
      return VerifyResult::fail(VerifyError::kExtraDrawProofs);
    }
    if (proofs.size() < target) {
      return VerifyResult::fail(VerifyError::kSampleIncomplete);
    }
    const std::string dom = prefixed(domain);
    std::vector<PeerId> derived;
    derived.reserve(target);
    for (std::size_t i = 0; i < target; ++i) {
      const Bytes alpha = draw_alpha(dom, nonce, static_cast<std::uint64_t>(i) + 1);
      const auto beta =
          provider.vrf_verify(prover_key, BytesView(alpha.data(), alpha.size()),
                              proofs[i]);
      if (!beta) return VerifyResult::fail(VerifyError::kInvalidVrfProof);
      const std::size_t j =
          i + static_cast<std::size_t>(fold64(BytesView(beta->data(), beta->size())) %
                                       static_cast<std::uint64_t>(n - i));
      std::swap(list[i], list[j]);
      derived.push_back(list[i]);
    }
    if (derived != claimed) return VerifyResult::fail(VerifyError::kSampleMismatch);
    return VerifyResult::pass();
  }

 private:
  static std::string prefixed(std::string_view domain) {
    return std::string("ps.") += domain;
  }
};

// ---------------------------------------------------------------------------
// kHoneybee — verifiable random walk. The sorted candidate list is the
// vertex set of an implicit degree-8 circulant graph (offsets 1 2 3 5 8 13
// 21 34, a decent expander at peerset scale); each VRF output is one step.
// After kMixSteps mixing steps every subsequent step may pick the vertex
// under the cursor (duplicates keep walking), and a pick resets the mixing
// counter. Total steps are capped exactly like Algorithm 1's attempt
// counter, so a malicious prover cannot demand unbounded replay work.
// The alpha domain is prefixed "hb.".
// ---------------------------------------------------------------------------

class HoneybeeSampler final : public SamplerBackend {
 public:
  static constexpr std::size_t kMixSteps = 4;

  const SamplerCapabilities& capabilities() const override {
    // ~kMixSteps proofs per pick plus occasional duplicate-resolution steps.
    static constexpr SamplerCapabilities caps{SamplerKind::kHoneybee,
                                              "honeybee",
                                              kMaxDrawAttempts,
                                              5.0,
                                              80,
                                              64,
                                              0,
                                              /*rejection_sampling=*/true};
    return caps;
  }

  Draw draw(const crypto::Signer& signer, const Peerset& candidates, std::size_t want,
            std::string_view domain, BytesView nonce) const override {
    Draw d;
    const std::vector<PeerId> list = candidates.sorted();
    const std::size_t n = list.size();
    const std::size_t target = std::min(want, n);
    if (target == 0) return d;
    const std::string dom = prefixed(domain);
    std::size_t pos = 0;
    std::size_t since_pick = 0;
    for (std::uint64_t step = 1;
         d.sample.size() < target && step <= capabilities().max_proofs; ++step) {
      const Bytes alpha = draw_alpha(dom, nonce, step);
      const auto beta = signer.vrf_output(alpha);
      d.proofs.push_back(signer.vrf_prove(alpha));
      pos = advance(pos, n, fold64(BytesView(beta.data(), beta.size())));
      ++since_pick;
      if (since_pick >= kMixSteps) {
        const PeerId& cand = list[pos];
        if (std::find(d.sample.begin(), d.sample.end(), cand) == d.sample.end()) {
          d.sample.push_back(cand);
          since_pick = 0;
        }
      }
    }
    return d;
  }

  VerifyResult verify(const crypto::CryptoProvider& provider,
                      const crypto::PublicKeyBytes& prover_key,
                      const Peerset& candidates, std::size_t want,
                      std::string_view domain, BytesView nonce,
                      const std::vector<Bytes>& proofs,
                      const std::vector<PeerId>& claimed) const override {
    const std::vector<PeerId> list = candidates.sorted();
    const std::size_t n = list.size();
    const std::size_t target = std::min(want, n);
    if (target == 0) {
      if (!proofs.empty() || !claimed.empty()) {
        return VerifyResult::fail(VerifyError::kSampleFromEmptyCandidates);
      }
      return VerifyResult::pass();
    }
    if (proofs.size() > capabilities().max_proofs) {
      return VerifyResult::fail(VerifyError::kTooManyDrawProofs);
    }
    const std::string dom = prefixed(domain);
    std::vector<PeerId> derived;
    std::size_t pos = 0;
    std::size_t since_pick = 0;
    for (std::size_t i = 0; i < proofs.size(); ++i) {
      if (derived.size() == target) {
        return VerifyResult::fail(VerifyError::kExtraDrawProofs);
      }
      const Bytes alpha = draw_alpha(dom, nonce, static_cast<std::uint64_t>(i) + 1);
      const auto beta =
          provider.vrf_verify(prover_key, BytesView(alpha.data(), alpha.size()),
                              proofs[i]);
      if (!beta) return VerifyResult::fail(VerifyError::kInvalidVrfProof);
      pos = advance(pos, n, fold64(BytesView(beta->data(), beta->size())));
      ++since_pick;
      if (since_pick >= kMixSteps) {
        const PeerId& cand = list[pos];
        if (std::find(derived.begin(), derived.end(), cand) == derived.end()) {
          derived.push_back(cand);
          since_pick = 0;
        }
      }
    }
    if (derived.size() != target && proofs.size() != capabilities().max_proofs) {
      return VerifyResult::fail(VerifyError::kSampleIncomplete);
    }
    if (derived != claimed) return VerifyResult::fail(VerifyError::kSampleMismatch);
    return VerifyResult::pass();
  }

 private:
  static std::size_t advance(std::size_t pos, std::size_t n, std::uint64_t beta64) {
    static constexpr std::size_t kOffsets[8] = {1, 2, 3, 5, 8, 13, 21, 34};
    return (pos + kOffsets[beta64 % 8]) % n;
  }

  static std::string prefixed(std::string_view domain) {
    return std::string("hb.") += domain;
  }
};

}  // namespace

const char* sampler_kind_name(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kVrf: return "vrf";
    case SamplerKind::kPeerSwap: return "peerswap";
    case SamplerKind::kHoneybee: return "honeybee";
  }
  AN_ENSURE_MSG(false, "unknown SamplerKind");
  return "?";
}

std::optional<SamplerKind> sampler_kind_from(std::string_view name) {
  if (name == "vrf") return SamplerKind::kVrf;
  if (name == "peerswap") return SamplerKind::kPeerSwap;
  if (name == "honeybee") return SamplerKind::kHoneybee;
  return std::nullopt;
}

const SamplerBackend& sampler_backend(SamplerKind kind) {
  static const VrfSampler vrf;
  static const PeerSwapSampler peerswap;
  static const HoneybeeSampler honeybee;
  switch (kind) {
    case SamplerKind::kVrf: return vrf;
    case SamplerKind::kPeerSwap: return peerswap;
    case SamplerKind::kHoneybee: return honeybee;
  }
  AN_ENSURE_MSG(false, "unknown SamplerKind");
  return vrf;
}

}  // namespace accountnet::core
