// Pluggable verifiable-sampling backends.
//
// AccountNet's accountability argument needs exactly two properties from a
// draw: (1) the prover cannot choose the outcome (it is a deterministic
// function of its VRF key, the domain and a counterpart-supplied nonce), and
// (2) any verifier holding the proofs can replay the draw and compare it to
// the claim. Everything else about Algorithms 1/2 — rejection sampling, the
// retry counter, the Q-bit index — is incidental to the VRF realization.
// SamplerBackend is that boundary made explicit: core::Node,
// harness::NetworkSim and the accusation/verification paths speak only this
// interface, and three implementations plug in behind it:
//
//   kVrf       the paper's repeated-draw loop (core/select.hpp), verbatim —
//              the default, byte-identical to the pre-interface code;
//   kPeerSwap  a PeerSwap-style swap-based sampler: one VRF output per pick
//              drives a Fisher-Yates swap over the sorted candidate list, so
//              exactly `want` proofs and no Null retries;
//   kHoneybee  a Honeybee-style verifiable random walk: each VRF output is
//              one step over an implicit bounded-degree graph on the sorted
//              candidate list; after a fixed mixing length every step may
//              pick the node under the cursor.
//
// All three are deterministic over both crypto providers (they use only the
// Signer/CryptoProvider VRF surface), all three express every AdversaryPolicy
// attack the same way (bias_sample mutates the claimed sample while keeping
// the proofs — replay catches it regardless of backend), and all three bound
// the work a malicious prover can demand from a verifier via
// capabilities().max_proofs (checked before any crypto is done).
#pragma once

#include <optional>
#include <string_view>

#include "accountnet/core/select.hpp"

namespace accountnet::core {

enum class SamplerKind : std::uint8_t {
  kVrf = 0,       ///< Algorithm 1/2 repeated draws (default).
  kPeerSwap = 1,  ///< swap-based sampling.
  kHoneybee = 2,  ///< verifiable random walk.
};

/// Stable lowercase names ("vrf", "peerswap", "honeybee") for configs,
/// benches and JSON output.
const char* sampler_kind_name(SamplerKind kind);
std::optional<SamplerKind> sampler_kind_from(std::string_view name);

/// What a backend costs and how its verdicts may be cached. Descriptive —
/// protocol correctness never depends on these numbers, but benches, the
/// VerificationEngine and docs/SAMPLERS.md do.
struct SamplerCapabilities {
  SamplerKind kind;
  const char* name;
  /// Hard cap on proofs per draw, identical on prover and verifier; a
  /// message carrying more fails closed (kTooManyDrawProofs) before any
  /// crypto is attempted. The kMaxDrawAttempts equivalent for this backend.
  std::size_t max_proofs;
  /// Expected proofs consumed per picked peer (1.0 = no rejections).
  double expected_proofs_per_pick;
  std::size_t proof_bytes_real;  ///< per-proof wire bytes, Ed25519+ECVRF backend
  std::size_t proof_bytes_fast;  ///< per-proof wire bytes, keyed-SHA-2 backend
  /// Extra message round-trips a draw needs beyond piggybacking proofs on
  /// the existing offer/response/witness messages (0 for all current
  /// backends — they are non-interactive given the counterpart nonce).
  std::size_t interaction_rounds;
  /// True if the backend uses rejection sampling (Null retries), i.e. the
  /// proof count for a draw is variable up to max_proofs.
  bool rejection_sampling;
};

/// A verifiable sampling strategy. Implementations are stateless and
/// shareable (sampler_backend() returns process-wide singletons); all
/// determinism lives in the Signer's VRF stream.
class SamplerBackend {
 public:
  virtual ~SamplerBackend() = default;

  virtual const SamplerCapabilities& capabilities() const = 0;

  /// Draws up to `want` distinct peers from `candidates` using the prover's
  /// VRF stream, binding `domain` and the counterpart-chosen `nonce` into
  /// every proof. Returns fewer than `want` only if the candidate list is
  /// smaller or the backend's work cap is hit.
  virtual Draw draw(const crypto::Signer& signer, const Peerset& candidates,
                    std::size_t want, std::string_view domain,
                    BytesView nonce) const = 0;

  /// Verifier-side mirror of draw(): replays the proof stream and checks
  /// that `claimed` is exactly the sample the proofs dictate. Fails closed
  /// on oversized proof lists (capabilities().max_proofs) before any crypto.
  /// `provider` may be a VerificationEngine (it is a CryptoProvider), in
  /// which case primitive checks resolve through its caches.
  virtual VerifyResult verify(const crypto::CryptoProvider& provider,
                              const crypto::PublicKeyBytes& prover_key,
                              const Peerset& candidates, std::size_t want,
                              std::string_view domain, BytesView nonce,
                              const std::vector<Bytes>& proofs,
                              const std::vector<PeerId>& claimed) const = 0;

  /// Single-peer draw (shuffle-partner selection); nullopt if `candidates`
  /// is empty or the cap is hit before a pick.
  std::optional<Draw> draw_one(const crypto::Signer& signer, const Peerset& candidates,
                               std::string_view domain, BytesView nonce) const;

  /// Verifier-side mirror of draw_one().
  VerifyResult verify_one(const crypto::CryptoProvider& provider,
                          const crypto::PublicKeyBytes& prover_key,
                          const Peerset& candidates, std::string_view domain,
                          BytesView nonce, const std::vector<Bytes>& proofs,
                          const PeerId& claimed) const;
};

/// Process-wide singleton for each kind. References stay valid for the
/// program lifetime; backends are stateless so sharing is safe.
const SamplerBackend& sampler_backend(SamplerKind kind);

}  // namespace accountnet::core
