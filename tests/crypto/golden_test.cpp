// Byte-identity pins for keys, Ed25519 signatures and ECVRF proofs/outputs.
//
// No RFC 9381 vectors ship offline, so these hex strings were captured from
// commit 027b1d4 (square-and-multiply inversion, per-call window tables,
// shift-subtract scalar reduction) before the edwards25519 core was rewritten.
// Every harness and sampler digest downstream depends on these bytes: an
// arithmetic change that moves any of them is a protocol change, not a
// speed-up.
#include <gtest/gtest.h>

#include <string>

#include "accountnet/crypto/ed25519.hpp"
#include "accountnet/crypto/vrf.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::crypto {
namespace {

Bytes seeded_bytes(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

Ed25519KeyPair keypair(std::uint64_t seed) {
  return ed25519_keypair_from_seed(seeded_bytes(seed, 32));
}

// Same bytes as core::draw_alpha(domain, round_nonce(round), attempt) for a
// domain shorter than 128 bytes: one-byte varint length prefixes and
// little-endian u64s.
Bytes draw_shaped_alpha(std::string_view domain, std::uint64_t round,
                        std::uint64_t attempt) {
  auto le64 = [](std::uint64_t v) {
    Bytes out(8);
    for (std::size_t i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return out;
  };
  return concat(Bytes(1, static_cast<std::uint8_t>(domain.size())), bytes_of(domain),
                Bytes(1, 8), le64(round), le64(attempt));
}

struct VrfPin {
  std::uint64_t key_seed;
  Bytes alpha;
  const char* public_key;
  const char* proof;
  const char* beta;
};

struct SigPin {
  std::size_t msg_len;
  const char* signature;
};

std::vector<VrfPin> vrf_pins() {
  return {
      {1,
       Bytes{},
       "9c653a7071d408aecba3cb4b29e3c66f7c8c79b180567055849b840852e9fded",
       "fd8380df8898cc90eaa53ec18448308cc876aba4a28081e7c0950d6671676683"
       "3e7d5ca8cc74c3385f838aa9d6a3a6a9dfbadaf336bee67578b4760a72908148"
       "0a717e22d48bc7e27df91aa2dbd2300d",
       "915a8e1e3d26247af3ce2a117682a5c21946aa35a36b1c012453d6b809a5a8ef"
       "ea460e4907ddd86adb63ea77c8e8f90327e8c099cf27c6a88241ad715c49d20d"},
      {2,
       bytes_of("round 42"),
       "2d83c9cd01d85bff5c2a198dd61d97bb1db3e2bf9a6487e8a4e778f457f3bee4",
       "38f12586546df813a059d7f85543e0a71f8ff67f0f0c8c38ff37a49a7e4bdf7f"
       "a596d98166cc2c492ab6eb3070d9172db028fd8b98e403dd4c476e926229d146"
       "0b299d6d2b2a8962b91e4109025bbf0c",
       "d5f9b8f0946536b70ce02db85292e0c3cfab26e8a1b81b8dee7865546f890dc7"
       "12ac9906c6fd16e3d7563df25a598d41db7801094ba39d48e4c3d1a4fdf47105"},
      {3,
       seeded_bytes(300, 40),
       "298145fdb5832ba8a8e319d7eaaeacd7e4f027447c46c399c86551dde9fa50dd",
       "5a7f0789272f88e7b8718d3a27c9ab4baec627cdb0df33af459c2333a38cef26"
       "3f9043f4de2db5e320d5925c4e0d5f0e3647d1479ace7669fc7066ec7f149f60"
       "aa7d91bb5fb50d88345b7c474f57370c",
       "3a7764b4f92e15b5970aca9a75fb748f3ebb04644cb48836e73e3040a7ed4a4d"
       "ef48714f7960c300c103ec2aaffe0de16e5f909928d2bd7cb52752d523c20bc7"},
      {7,
       draw_shaped_alpha("shuffle", 17, 1),
       "4476e1c4a89880f56aacfb36ef9df4a889808fdb110a702e680adc0ec53765a3",
       "cf5ad75d3c52ff7241cc517f2ae4c79164c6125b455b8cb4b036496902319e1e"
       "829476eae4d5bdf40f32147acb7d7e06495578fa004511f155c77bf223e12e88"
       "63d381bb927fcee1e1f730992e357706",
       "a4cdd0967f35bb8ceb19a5a79e2bf4947a11f6efd388437a0e3ffbc993ac1cf4"
       "5f2d0b47fb4018c60d0e33ca494f010dc2cd7c8b9a8e7663c16937483a245261"},
      {11,
       Bytes(1, 0x00),
       "0bd6e977290cb68fd0f1ae4a76f0d827bf543631ed6e9b60dd8618e9dcd20a65",
       "0b758d86d921e384e641428bee9740211e114d005666cd3bc6914367badf746b"
       "2dfa15d832b8b56ec501a59732e911804ae140830fadd9b62cb1202d8627c8e7"
       "3a74dba1173544538637ee20d7ad9008",
       "f421653ed06c44c3c5934900703f8bc78c9c8ddb5feefc81dd705ca35349f7e4"
       "b24c2f4cf9564cadcaa48970c4288fdf86ed6e28568085bd68a30e6d8c846698"},
      {42,
       seeded_bytes(4200, 200),
       "ee714f0f25ee6f6f5fd510cf12d2e1205603b2da46275a4a5d0dec60c670f3fa",
       "9bb0792e28dbddeb09fe9da95bd4c7bb8471a1b160cd0c073e69062dfe9f5882"
       "63e08520d9e3a4590bd0093c5b3646620371cb6b222b9574244398a8648f6d11"
       "d08a945d6be0f32858041c740d8eb80d",
       "b1a262c2ae6cb167e38622372d65832ea40399498172094af0a6ebe35dbbed35"
       "fda78a28866a953c2085fd2c2248e134b06374e6ec43b66bef84241c4dbe86f1"},
  };
}

TEST(GoldenPins, VrfProofsAndOutputs) {
  for (const auto& pin : vrf_pins()) {
    SCOPED_TRACE("key_seed=" + std::to_string(pin.key_seed) +
                 " alpha_len=" + std::to_string(pin.alpha.size()));
    const auto kp = keypair(pin.key_seed);
    EXPECT_EQ(to_hex(kp.public_key), pin.public_key);
    const auto proof = vrf_prove(kp, pin.alpha);
    EXPECT_EQ(to_hex(proof), pin.proof);
    const auto beta = vrf_proof_to_hash(proof);
    EXPECT_EQ(to_hex(beta), pin.beta);
    const auto verified = vrf_verify(kp.public_key, pin.alpha, proof);
    ASSERT_TRUE(verified.has_value());
    EXPECT_EQ(*verified, beta);
  }
}

TEST(GoldenPins, Ed25519SignaturesOnProtocolSizedMessages) {
  const auto kp = keypair(5);
  EXPECT_EQ(to_hex(kp.public_key),
            "19a29e32b02d580f628f2f9787737853579e66af0d33edbeedfddaa91a633159");
  const SigPin pins[] = {
      {0,
       "18473758b93fc5a0793b94fa23e59dfdf12950ad932f38fce7e58bdd5c20770a"
       "52ad97369b2fd5f986bd2ecd8a3995f2d459f51aaa5b068bbb33c0d76ceb0c0b"},
      {1,
       "ff88b8d7aee02870125f82b356bf293c058cfcb3fbfdb55979d5947d3c455442"
       "2c17837fc4b09acac83809cc7179caba4d26c1e585a74f11bb4f11e24f290b0a"},
      {200,
       "133ec54beb5b7b95c73abb68cb6a6a5768257e14a85ecd055167a89ba5e21f53"
       "bfd75a11933cdae3d91f9838992b35e9dc3f0e61ac20accf15123976c1a02601"},
      {1024,
       "7710b28ae94ce5c1ceaf81acf3cd51c2eb298a0da8669ea7967e291cb129638c"
       "4d1df02184f00e43bcc1a76ec38dd471bb8117c3e75b2cccf193b2d51342b108"},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE("msg_len=" + std::to_string(pin.msg_len));
    const Bytes msg = seeded_bytes(500 + pin.msg_len, pin.msg_len);
    const auto sig = ed25519_sign(kp, msg);
    EXPECT_EQ(to_hex(sig), pin.signature);
    EXPECT_TRUE(ed25519_verify(kp.public_key, msg, sig));
  }
}

}  // namespace
}  // namespace accountnet::crypto
