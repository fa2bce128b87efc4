// CryptoProvider contract tests, parameterized over both backends so the
// protocol layer can rely on identical semantics.
#include <gtest/gtest.h>

#include "accountnet/crypto/provider.hpp"
#include "accountnet/crypto/timed.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::crypto {
namespace {

enum class Backend { kReal, kFast };

std::unique_ptr<CryptoProvider> make(Backend b) {
  return b == Backend::kReal ? make_real_crypto() : make_fast_crypto();
}

Bytes seed_bytes(std::uint64_t v) {
  Rng rng(v);
  Bytes seed(32);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  return seed;
}

// A decorator that overrides only vrf_prove and vrf_output, so vrf_evaluate
// takes Signer's default: the path of wrappers written before vrf_evaluate.
class ProveAndOutputOnlySigner final : public Signer {
 public:
  explicit ProveAndOutputOnlySigner(std::unique_ptr<Signer> inner) : inner_(std::move(inner)) {}
  const PublicKeyBytes& public_key() const override { return inner_->public_key(); }
  Bytes sign(BytesView msg) const override { return inner_->sign(msg); }
  Bytes vrf_prove(BytesView alpha) const override { return inner_->vrf_prove(alpha); }
  std::array<std::uint8_t, 64> vrf_output(BytesView alpha) const override {
    return inner_->vrf_output(alpha);
  }

 private:
  std::unique_ptr<Signer> inner_;
};

class ProviderContract : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<CryptoProvider> provider_ = make(GetParam());
};

TEST_P(ProviderContract, SignVerifyRoundTrip) {
  const auto signer = provider_->make_signer(seed_bytes(1));
  const Bytes msg = bytes_of("hello witness");
  const Bytes sig = signer->sign(msg);
  EXPECT_TRUE(provider_->verify(signer->public_key(), msg, sig));
}

TEST_P(ProviderContract, TamperedMessageFailsVerify) {
  const auto signer = provider_->make_signer(seed_bytes(2));
  const Bytes sig = signer->sign(bytes_of("a"));
  EXPECT_FALSE(provider_->verify(signer->public_key(), bytes_of("b"), sig));
}

TEST_P(ProviderContract, TamperedSignatureFailsVerify) {
  const auto signer = provider_->make_signer(seed_bytes(3));
  const Bytes msg = bytes_of("msg");
  Bytes sig = signer->sign(msg);
  sig[0] ^= 1;
  EXPECT_FALSE(provider_->verify(signer->public_key(), msg, sig));
}

TEST_P(ProviderContract, DeterministicKeyDerivation) {
  const auto a = provider_->make_signer(seed_bytes(4));
  const auto b = provider_->make_signer(seed_bytes(4));
  EXPECT_EQ(a->public_key(), b->public_key());
  const auto c = provider_->make_signer(seed_bytes(5));
  EXPECT_NE(a->public_key(), c->public_key());
}

TEST_P(ProviderContract, VrfProveVerifyRoundTrip) {
  const auto signer = provider_->make_signer(seed_bytes(6));
  const Bytes alpha = bytes_of("round-7");
  const Bytes proof = signer->vrf_prove(alpha);
  const auto beta = provider_->vrf_verify(signer->public_key(), alpha, proof);
  ASSERT_TRUE(beta.has_value());
  EXPECT_EQ(*beta, signer->vrf_output(alpha));
}

TEST_P(ProviderContract, VrfWrongAlphaFails) {
  const auto signer = provider_->make_signer(seed_bytes(7));
  const Bytes proof = signer->vrf_prove(bytes_of("x"));
  EXPECT_FALSE(provider_->vrf_verify(signer->public_key(), bytes_of("y"), proof));
}

TEST_P(ProviderContract, VrfTamperedProofFails) {
  const auto signer = provider_->make_signer(seed_bytes(8));
  const Bytes alpha = bytes_of("alpha");
  Bytes proof = signer->vrf_prove(alpha);
  proof[proof.size() / 2] ^= 0x10;
  EXPECT_FALSE(provider_->vrf_verify(signer->public_key(), alpha, proof));
}

TEST_P(ProviderContract, VrfOutputsDifferAcrossKeysAndInputs) {
  const auto s1 = provider_->make_signer(seed_bytes(9));
  const auto s2 = provider_->make_signer(seed_bytes(10));
  EXPECT_NE(s1->vrf_output(bytes_of("a")), s2->vrf_output(bytes_of("a")));
  EXPECT_NE(s1->vrf_output(bytes_of("a")), s1->vrf_output(bytes_of("b")));
}

TEST_P(ProviderContract, VrfEvaluateEqualsProveAndOutput) {
  obs::MetricsRegistry metrics;
  const auto timed = make_timed_crypto(make(GetParam()), metrics);
  Rng rng(11);
  for (std::uint64_t k = 0; k < 4; ++k) {
    const Bytes seed = seed_bytes(100 + k);
    std::vector<std::unique_ptr<Signer>> signers;
    signers.push_back(provider_->make_signer(seed));
    signers.push_back(timed->make_signer(seed));
    signers.push_back(
        std::make_unique<ProveAndOutputOnlySigner>(provider_->make_signer(seed)));
    for (int i = 0; i < 3; ++i) {
      Bytes alpha(static_cast<std::size_t>(rng.uniform(64)));
      for (auto& b : alpha) b = static_cast<std::uint8_t>(rng.next_u64());
      const Signer& plain = *signers[0];
      const Bytes proof = plain.vrf_prove(alpha);
      const auto output = plain.vrf_output(alpha);
      for (std::size_t w = 0; w < signers.size(); ++w) {
        const auto e = signers[w]->vrf_evaluate(alpha);
        EXPECT_EQ(e.proof, proof) << "signer " << w << " alpha " << to_hex(alpha);
        EXPECT_EQ(e.output, output) << "signer " << w << " alpha " << to_hex(alpha);
      }
      const auto beta = provider_->vrf_verify(plain.public_key(), alpha, proof);
      ASSERT_TRUE(beta.has_value());
      EXPECT_EQ(*beta, output);
    }
  }
}

TEST_P(ProviderContract, HasName) {
  EXPECT_NE(provider_->name(), nullptr);
  EXPECT_GT(std::string(provider_->name()).size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ProviderContract,
                         ::testing::Values(Backend::kReal, Backend::kFast),
                         [](const auto& info) {
                           return info.param == Backend::kReal ? "real" : "fast";
                         });

}  // namespace
}  // namespace accountnet::crypto
