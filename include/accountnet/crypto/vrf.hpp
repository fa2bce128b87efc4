// Verifiable random function: ECVRF-EDWARDS25519-SHA512-TAI per RFC 9381.
//
// The paper instantiates vrf_i(·) with Algorand's libsodium ECVRF; we build
// the RFC's try-and-increment ciphersuite (suite 0x03) from scratch on the
// same curve. Properties relied on by AccountNet:
//   * determinism + uniqueness: one valid (beta, pi) per (sk, alpha);
//   * verifiability: anyone holding pk checks pi and recomputes beta;
//   * pseudorandomness: beta is indistinguishable from random without sk.
//
// Proof pi is the 80-byte Gamma(32) || c(16) || s(32) encoding; output beta
// is 64 bytes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "accountnet/crypto/ed25519.hpp"
#include "accountnet/util/bytes.hpp"

namespace accountnet::crypto {

constexpr std::size_t kVrfProofSize = 80;
constexpr std::size_t kVrfOutputSize = 64;

using VrfProof = std::array<std::uint8_t, kVrfProofSize>;
using VrfOutput = std::array<std::uint8_t, kVrfOutputSize>;

/// A proof together with the output it proves.
struct VrfEvaluation {
  VrfProof proof;
  VrfOutput output;  ///< == vrf_proof_to_hash(proof)
};

/// Proof pi and output beta for input alpha under the Ed25519 keypair, from
/// one hash-to-curve and one x*H: beta is hashed from the 8*Gamma the prover
/// already encodes.
VrfEvaluation vrf_evaluate(const Ed25519KeyPair& kp, BytesView alpha);

/// vrf_evaluate(kp, alpha).proof.
VrfProof vrf_prove(const Ed25519KeyPair& kp, BytesView alpha);

/// vrf_evaluate(kp, alpha).output without building the proof: only Gamma =
/// x*H is computed, skipping the nonce, k*B, k*H and the challenge. Callers
/// that already hold the proof from vrf_prove, such as
/// Signer::vrf_evaluate's default, do not pay for a second evaluation.
VrfOutput vrf_output(const Ed25519KeyPair& kp, BytesView alpha);

/// Derives the VRF output beta from a proof (does not verify it).
VrfOutput vrf_proof_to_hash(const VrfProof& proof);

/// Verifies pi against (pk, alpha); returns beta on success.
std::optional<VrfOutput> vrf_verify(BytesView public_key32, BytesView alpha,
                                    BytesView proof80);

}  // namespace accountnet::crypto
