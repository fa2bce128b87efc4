// ECVRF behavioural tests: determinism, verifiability, uniqueness, tampering.
// (No official RFC 9381 vectors are bundled offline; the Ed25519 vectors
// already pin the underlying curve/hash stack, and these tests pin the VRF
// contract AccountNet depends on.)
#include <gtest/gtest.h>

#include <set>

#include "accountnet/crypto/vrf.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::crypto {
namespace {

Ed25519KeyPair keypair(std::uint64_t seed_val) {
  Rng rng(seed_val);
  Bytes seed(32);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  return ed25519_keypair_from_seed(seed);
}

TEST(Vrf, ProveVerifyRoundTrip) {
  const auto kp = keypair(1);
  const Bytes alpha = bytes_of("round 42");
  const auto proof = vrf_prove(kp, alpha);
  const auto beta = vrf_verify(kp.public_key, alpha, proof);
  ASSERT_TRUE(beta.has_value());
  EXPECT_EQ(*beta, vrf_proof_to_hash(proof));
}

TEST(Vrf, OutputMatchesVerifiedBeta) {
  const auto kp = keypair(2);
  const Bytes alpha = bytes_of("input");
  const auto proof = vrf_prove(kp, alpha);
  const auto beta = vrf_verify(kp.public_key, alpha, proof);
  ASSERT_TRUE(beta.has_value());
  // The signer-side output (no proof built) must agree with the
  // verifier-derived one: the uniqueness AccountNet's select() relies on.
  EXPECT_EQ(vrf_output(kp, alpha), *beta);
}

TEST(Vrf, OutputWithoutProofMatchesProofToHash) {
  Rng rng(12);
  for (std::uint64_t k = 0; k < 12; ++k) {
    const auto kp = keypair(200 + k);
    for (int i = 0; i < 3; ++i) {
      Bytes alpha(static_cast<std::size_t>(rng.uniform(120)));
      for (auto& b : alpha) b = static_cast<std::uint8_t>(rng.next_u64());
      EXPECT_EQ(vrf_output(kp, alpha), vrf_proof_to_hash(vrf_prove(kp, alpha)))
          << "key " << k << " alpha " << to_hex(alpha);
    }
  }
}

TEST(Vrf, EvaluateMatchesProveAndOutput) {
  Rng rng(13);
  for (std::uint64_t k = 0; k < 8; ++k) {
    const auto kp = keypair(300 + k);
    for (int i = 0; i < 3; ++i) {
      Bytes alpha(static_cast<std::size_t>(rng.uniform(120)));
      for (auto& b : alpha) b = static_cast<std::uint8_t>(rng.next_u64());
      const auto e = vrf_evaluate(kp, alpha);
      EXPECT_EQ(e.proof, vrf_prove(kp, alpha)) << "key " << k << " alpha " << to_hex(alpha);
      EXPECT_EQ(e.output, vrf_output(kp, alpha)) << "key " << k;
      EXPECT_EQ(e.output, vrf_proof_to_hash(e.proof)) << "key " << k;
      const auto beta = vrf_verify(kp.public_key, alpha, e.proof);
      ASSERT_TRUE(beta.has_value());
      EXPECT_EQ(*beta, e.output);
    }
  }
}

TEST(Vrf, DeterministicProofs) {
  const auto kp = keypair(3);
  const Bytes alpha = bytes_of("same alpha");
  EXPECT_EQ(vrf_prove(kp, alpha), vrf_prove(kp, alpha));
}

TEST(Vrf, DistinctAlphasGiveDistinctOutputs) {
  const auto kp = keypair(4);
  std::set<Bytes> betas;
  for (int i = 0; i < 20; ++i) {
    const Bytes alpha = bytes_of("alpha " + std::to_string(i));
    const auto proof = vrf_prove(kp, alpha);
    const auto beta = vrf_proof_to_hash(proof);
    betas.insert(Bytes(beta.begin(), beta.end()));
  }
  EXPECT_EQ(betas.size(), 20u);
}

TEST(Vrf, DistinctKeysGiveDistinctOutputs) {
  const Bytes alpha = bytes_of("shared alpha");
  std::set<Bytes> betas;
  for (int i = 0; i < 10; ++i) {
    const auto kp = keypair(100 + static_cast<std::uint64_t>(i));
    const auto beta = vrf_proof_to_hash(vrf_prove(kp, alpha));
    betas.insert(Bytes(beta.begin(), beta.end()));
  }
  EXPECT_EQ(betas.size(), 10u);
}

TEST(Vrf, TamperedProofRejected) {
  const auto kp = keypair(5);
  const Bytes alpha = bytes_of("input");
  const auto proof = vrf_prove(kp, alpha);
  // Flip one bit in each of the three proof components.
  for (std::size_t pos : {0u, 35u, 60u}) {
    auto bad = proof;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(vrf_verify(kp.public_key, alpha, bad).has_value()) << "pos " << pos;
  }
}

TEST(Vrf, WrongAlphaRejected) {
  const auto kp = keypair(6);
  const auto proof = vrf_prove(kp, bytes_of("alpha"));
  EXPECT_FALSE(vrf_verify(kp.public_key, bytes_of("beta"), proof).has_value());
}

TEST(Vrf, WrongKeyRejected) {
  const auto kp1 = keypair(7);
  const auto kp2 = keypair(8);
  const Bytes alpha = bytes_of("alpha");
  const auto proof = vrf_prove(kp1, alpha);
  EXPECT_FALSE(vrf_verify(kp2.public_key, alpha, proof).has_value());
}

TEST(Vrf, MalformedInputsRejected) {
  const auto kp = keypair(9);
  const Bytes alpha = bytes_of("alpha");
  EXPECT_FALSE(vrf_verify(kp.public_key, alpha, Bytes(79, 0)).has_value());
  EXPECT_FALSE(vrf_verify(kp.public_key, alpha, Bytes(81, 0)).has_value());
  EXPECT_FALSE(vrf_verify(Bytes(31, 0), alpha, Bytes(80, 0)).has_value());
}

TEST(Vrf, OutputsLookUniform) {
  // Cheap sanity check on pseudorandomness: first-byte histogram of many
  // outputs should not be wildly skewed.
  const auto kp = keypair(10);
  int counts[4] = {0, 0, 0, 0};
  const int n = 128;
  for (int i = 0; i < n; ++i) {
    const auto beta = vrf_proof_to_hash(vrf_prove(kp, bytes_of("x" + std::to_string(i))));
    ++counts[beta[0] >> 6];
  }
  for (int c : counts) {
    EXPECT_GT(c, n / 4 - 24);
    EXPECT_LT(c, n / 4 + 24);
  }
}

TEST(Vrf, EmptyAlphaSupported) {
  const auto kp = keypair(11);
  const auto proof = vrf_prove(kp, Bytes{});
  EXPECT_TRUE(vrf_verify(kp.public_key, Bytes{}, proof).has_value());
}

}  // namespace
}  // namespace accountnet::crypto
