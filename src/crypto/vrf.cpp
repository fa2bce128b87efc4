#include "accountnet/crypto/vrf.hpp"

#include <cstring>

#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

namespace {

constexpr std::uint8_t kSuite = 0x03;  // ECVRF-EDWARDS25519-SHA512-TAI
constexpr std::size_t kChallengeLen = 16;

struct ExpandedSecret {
  Scalar x;
  std::array<std::uint8_t, 32> nonce_key;  // SHA-512(seed)[32..63]
};

ExpandedSecret expand(const Ed25519KeyPair& kp) {
  const auto h = Sha512::hash(kp.seed);
  std::array<std::uint8_t, 32> xb;
  std::memcpy(xb.data(), h.data(), 32);
  xb[0] &= 0xf8;
  xb[31] &= 0x7f;
  xb[31] |= 0x40;
  ExpandedSecret out;
  out.x = Scalar::reduce(xb);
  std::memcpy(out.nonce_key.data(), h.data() + 32, 32);
  return out;
}

/// RFC 9381 §5.4.1.1 ECVRF_encode_to_curve_try_and_increment.
std::optional<Ge25519> hash_to_curve_tai(BytesView pk, BytesView alpha) {
  for (unsigned ctr = 0; ctr < 256; ++ctr) {
    Sha512 h;
    const std::uint8_t front[2] = {kSuite, 0x01};
    h.update(BytesView(front, 2));
    h.update(pk);
    h.update(alpha);
    const std::uint8_t back[2] = {static_cast<std::uint8_t>(ctr), 0x00};
    h.update(BytesView(back, 2));
    const auto digest = h.finish();
    auto candidate = Ge25519::from_bytes(BytesView(digest.data(), 32));
    if (candidate) {
      const Ge25519 point = candidate->mul_by_cofactor();
      if (!point.is_identity()) return point;
    }
  }
  return std::nullopt;  // cryptographically unreachable
}

/// RFC 9381 §5.4.2.2 nonce = SHA-512(hashed_sk[32..63] || H) mod L.
Scalar make_nonce(const ExpandedSecret& sk, const std::array<std::uint8_t, 32>& h_enc) {
  Sha512 h;
  h.update(sk.nonce_key);
  h.update(h_enc);
  return Scalar::reduce(h.finish());
}

/// RFC 9381 §5.4.3 challenge over the five points (PK, H, Gamma, U, V).
std::array<std::uint8_t, kChallengeLen> make_challenge(
    BytesView pk, const std::array<std::uint8_t, 32>& h_enc,
    const std::array<std::uint8_t, 32>& gamma_enc,
    const std::array<std::uint8_t, 32>& u_enc,
    const std::array<std::uint8_t, 32>& v_enc) {
  Sha512 h;
  const std::uint8_t front[2] = {kSuite, 0x02};
  h.update(BytesView(front, 2));
  h.update(pk);
  h.update(h_enc);
  h.update(gamma_enc);
  h.update(u_enc);
  h.update(v_enc);
  const std::uint8_t back[1] = {0x00};
  h.update(BytesView(back, 1));
  const auto digest = h.finish();
  std::array<std::uint8_t, kChallengeLen> c{};
  std::memcpy(c.data(), digest.data(), kChallengeLen);
  return c;
}

Scalar challenge_scalar(const std::array<std::uint8_t, kChallengeLen>& c) {
  return Scalar::reduce(BytesView(c.data(), c.size()));
}

/// RFC 9381 §5.2 proof_to_hash from the encoding of 8*Gamma:
/// beta = SHA-512(suite || 0x03 || 8*Gamma || 0x00).
VrfOutput cofactor_gamma_to_hash(const std::array<std::uint8_t, 32>& cofactor_gamma) {
  Sha512 h;
  const std::uint8_t front[2] = {kSuite, 0x03};
  h.update(BytesView(front, 2));
  h.update(cofactor_gamma);
  const std::uint8_t back[1] = {0x00};
  h.update(BytesView(back, 1));
  return h.finish();
}

using Encoding = std::array<std::uint8_t, 32>;

/// The prover's first step, shared by the evaluation and the bare output:
/// the expanded secret and H = encode_to_curve(PK, alpha).
struct ProverInput {
  ExpandedSecret sk;
  Ge25519 h;
};

ProverInput prover_input(const Ed25519KeyPair& kp, BytesView alpha) {
  const auto h_point = hash_to_curve_tai(kp.public_key, alpha);
  AN_ENSURE_MSG(h_point.has_value(), "hash_to_curve failed");
  return {expand(kp), *h_point};
}

}  // namespace

VrfEvaluation vrf_evaluate(const Ed25519KeyPair& kp, BytesView alpha) {
  const auto [sk, h_point] = prover_input(kp, alpha);
  // The nonce reads H's encoding, so H takes an inversion of its own; every
  // later point shares one.
  const auto h_enc = h_point.to_bytes();
  const Scalar k = make_nonce(sk, h_enc);

  // Gamma = x*H and V = k*H share one table of H's multiples.
  const auto [gamma, v] = h_point.scalar_mul_pair(sk.x.bytes(), k.bytes());
  const Ge25519 u = ge_scalar_mul_base(k.bytes());
  std::array<Encoding, 4> enc;
  Ge25519::to_bytes_batch(std::array{gamma, u, v, gamma.mul_by_cofactor()}, enc);
  const auto& [gamma_enc, u_enc, v_enc, cofactor_gamma_enc] = enc;

  const auto c = make_challenge(kp.public_key, h_enc, gamma_enc, u_enc, v_enc);
  const Scalar s = Scalar::muladd(challenge_scalar(c), sk.x, k);

  VrfEvaluation out{};
  std::memcpy(out.proof.data(), gamma_enc.data(), 32);
  std::memcpy(out.proof.data() + 32, c.data(), kChallengeLen);
  std::memcpy(out.proof.data() + 48, s.bytes().data(), 32);
  out.output = cofactor_gamma_to_hash(cofactor_gamma_enc);
  return out;
}

VrfProof vrf_prove(const Ed25519KeyPair& kp, BytesView alpha) {
  return vrf_evaluate(kp, alpha).proof;
}

VrfOutput vrf_output(const Ed25519KeyPair& kp, BytesView alpha) {
  const auto [sk, h_point] = prover_input(kp, alpha);
  return cofactor_gamma_to_hash(h_point.scalar_mul(sk.x.bytes()).mul_by_cofactor().to_bytes());
}

VrfOutput vrf_proof_to_hash(const VrfProof& proof) {
  const auto gamma = Ge25519::from_bytes(BytesView(proof.data(), 32));
  AN_ENSURE_MSG(gamma.has_value(), "vrf_proof_to_hash: bad Gamma encoding");
  return cofactor_gamma_to_hash(gamma->mul_by_cofactor().to_bytes());
}

std::optional<VrfOutput> vrf_verify(BytesView public_key32, BytesView alpha,
                                    BytesView proof80) {
  if (public_key32.size() != 32 || proof80.size() != kVrfProofSize) return std::nullopt;

  const auto y = Ge25519::from_bytes(public_key32);
  if (!y) return std::nullopt;
  const auto gamma = Ge25519::from_bytes(proof80.first(32));
  if (!gamma) return std::nullopt;

  std::array<std::uint8_t, kChallengeLen> c{};
  std::memcpy(c.data(), proof80.data() + 32, kChallengeLen);
  Scalar s;
  if (!Scalar::from_canonical(proof80.subspan(48), s)) return std::nullopt;

  const auto h_point = hash_to_curve_tai(public_key32, alpha);
  if (!h_point) return std::nullopt;

  const Scalar c_scalar = challenge_scalar(c);

  // U = s*B - c*Y ;  V = s*H - c*Gamma (public scalars: variable time). s*B
  // reads the fixed-base table; c < 2^128 halves the doubling chain of c*(-Y).
  const Ge25519 u =
      ge_scalar_mul_base(s.bytes()).add(y->negate().scalar_mul_vartime(c_scalar.bytes()));
  const Ge25519 v = Ge25519::double_scalar_mul_vartime(s.bytes(), *h_point,
                                                       c_scalar.bytes(), gamma->negate());

  // Gamma is re-encoded rather than copied from the proof: the challenge
  // hashes the canonical encoding.
  std::array<Encoding, 5> enc;
  Ge25519::to_bytes_batch(std::array{*h_point, *gamma, u, v, gamma->mul_by_cofactor()},
                          enc);
  const auto& [h_enc, gamma_enc, u_enc, v_enc, cofactor_gamma_enc] = enc;

  const auto expected = make_challenge(public_key32, h_enc, gamma_enc, u_enc, v_enc);
  if (!ct_equal(BytesView(expected.data(), expected.size()), BytesView(c.data(), c.size()))) {
    return std::nullopt;
  }

  return cofactor_gamma_to_hash(cofactor_gamma_enc);
}

}  // namespace accountnet::crypto
