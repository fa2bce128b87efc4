// Scalar arithmetic mod L property tests.
#include <gtest/gtest.h>

#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/util/ensure.hpp"
#include "accountnet/util/rng.hpp"
#include "reference_arith.hpp"

namespace accountnet::crypto {
namespace {

const char* kOrderHex =
    "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";

Scalar random_scalar(Rng& rng) {
  Bytes b(64);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return Scalar::reduce(b);
}

TEST(Scalar, ZeroDefault) {
  EXPECT_TRUE(Scalar().is_zero());
}

TEST(Scalar, OrderReducesToZero) {
  EXPECT_TRUE(Scalar::reduce(from_hex(kOrderHex)).is_zero());
}

TEST(Scalar, OrderPlusOneReducesToOne) {
  auto bytes = from_hex(kOrderHex);
  bytes[0] += 1;  // L + 1 (no carry: low byte of L is 0xed)
  EXPECT_EQ(Scalar::reduce(bytes), Scalar::from_u64(1));
}

TEST(Scalar, SmallValuesUnchanged) {
  for (std::uint64_t v : {0ULL, 1ULL, 255ULL, 65536ULL, 0xffffffffffffffffULL}) {
    Bytes b(8);
    for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
    EXPECT_EQ(Scalar::reduce(b), Scalar::from_u64(v));
  }
}

TEST(Scalar, FromCanonicalAcceptsBelowOrder) {
  Scalar s;
  auto below = from_hex(kOrderHex);
  below[0] -= 1;  // L - 1
  EXPECT_TRUE(Scalar::from_canonical(below, s));
  EXPECT_EQ(Bytes(s.bytes().begin(), s.bytes().end()), below);
}

TEST(Scalar, FromCanonicalRejectsOrderAndAbove) {
  Scalar s;
  EXPECT_FALSE(Scalar::from_canonical(from_hex(kOrderHex), s));
  Bytes max(32, 0xff);
  EXPECT_FALSE(Scalar::from_canonical(max, s));
  EXPECT_FALSE(Scalar::from_canonical(Bytes(31, 0), s));
}

TEST(Scalar, AddCommutesAndWraps) {
  Rng rng(301);
  for (int i = 0; i < 100; ++i) {
    const Scalar a = random_scalar(rng), b = random_scalar(rng);
    EXPECT_EQ(a.add(b), b.add(a));
  }
  // (L-1) + 1 == 0.
  auto lm1 = from_hex(kOrderHex);
  lm1[0] -= 1;
  Scalar a;
  ASSERT_TRUE(Scalar::from_canonical(lm1, a));
  EXPECT_TRUE(a.add(Scalar::from_u64(1)).is_zero());
}

TEST(Scalar, MulCommutesAssociatesDistributes) {
  Rng rng(302);
  for (int i = 0; i < 50; ++i) {
    const Scalar a = random_scalar(rng), b = random_scalar(rng), c = random_scalar(rng);
    EXPECT_EQ(a.mul(b), b.mul(a));
    EXPECT_EQ(a.mul(b).mul(c), a.mul(b.mul(c)));
    EXPECT_EQ(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
  }
}

TEST(Scalar, MulIdentityAndZero) {
  Rng rng(303);
  const Scalar one = Scalar::from_u64(1);
  for (int i = 0; i < 20; ++i) {
    const Scalar a = random_scalar(rng);
    EXPECT_EQ(a.mul(one), a);
    EXPECT_TRUE(a.mul(Scalar()).is_zero());
  }
}

TEST(Scalar, MulAddMatchesComposition) {
  Rng rng(304);
  for (int i = 0; i < 50; ++i) {
    const Scalar a = random_scalar(rng), b = random_scalar(rng), c = random_scalar(rng);
    EXPECT_EQ(Scalar::muladd(a, b, c), a.mul(b).add(c));
  }
}

TEST(Scalar, KnownProduct) {
  // 2^128 * 2^128 = 2^256 mod L; 2^256 mod L is a fixed constant we can pin
  // by computing it two independent ways.
  Bytes two128(32, 0);
  two128[16] = 1;
  Scalar a;
  ASSERT_TRUE(Scalar::from_canonical(two128, a));
  const Scalar direct = a.mul(a);

  Bytes two256_le(33, 0);
  two256_le[32] = 1;
  EXPECT_EQ(Scalar::reduce(two256_le), direct);
}

TEST(Scalar, Reduce64ByteInput) {
  Rng rng(305);
  Bytes b(64);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  // reduce(b) == reduce(lo) + reduce(hi) * 2^256 mod L, checked via split.
  Bytes lo(b.begin(), b.begin() + 32);
  Bytes hi(b.begin() + 32, b.end());
  Bytes two256_le(33, 0);
  two256_le[32] = 1;
  const Scalar expected =
      Scalar::reduce(lo).add(Scalar::reduce(hi).mul(Scalar::reduce(two256_le)));
  EXPECT_EQ(Scalar::reduce(b), expected);
}

// Edge inputs for reduction: all-ones 512 bits, L - 1, L, L + 1, 2L, 2^252,
// 2^256 - 1, and the empty input.
std::vector<Bytes> edge_reduce_inputs() {
  std::vector<Bytes> out;
  out.push_back(Bytes(64, 0xff));
  auto l = from_hex(kOrderHex);
  out.push_back(l);
  auto lm1 = l;
  lm1[0] -= 1;
  out.push_back(lm1);
  auto lp1 = l;
  lp1[0] += 1;
  out.push_back(lp1);
  // 2L, little-endian (L < 2^253, so 2L fits 32 bytes).
  out.push_back(
      from_hex("daa7ebb934c624b0ac39ef45bdf3bd2900000000000000000000000000000020"));
  Bytes two252(32, 0);
  two252[31] = 0x10;
  out.push_back(two252);
  out.push_back(Bytes(32, 0xff));
  out.push_back(Bytes{});
  return out;
}

TEST(Scalar, ReduceMatchesShiftSubtract) {
  for (const auto& in : edge_reduce_inputs()) {
    EXPECT_EQ(to_hex(Scalar::reduce(in).bytes()), to_hex(reference::reduce(in)))
        << to_hex(in);
  }
  Rng rng(306);
  for (int i = 0; i < 300; ++i) {
    // Mostly full 64-byte inputs, plus every shorter length the protocol
    // reduces (16-byte challenges, 32-byte clamped keys).
    const std::size_t len = i < 200 ? 64 : static_cast<std::size_t>(rng.uniform(65));
    Bytes b(len);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(to_hex(Scalar::reduce(b).bytes()), to_hex(reference::reduce(b))) << to_hex(b);
  }
}

TEST(Scalar, MulAddMatchesShiftSubtract) {
  Scalar lm1;
  auto lm1_bytes = from_hex(kOrderHex);
  lm1_bytes[0] -= 1;
  ASSERT_TRUE(Scalar::from_canonical(lm1_bytes, lm1));
  const Scalar one = Scalar::from_u64(1);
  const Scalar edges[] = {Scalar(), one, lm1};
  for (const auto& a : edges) {
    for (const auto& b : edges) {
      for (const auto& c : edges) {
        EXPECT_EQ(to_hex(Scalar::muladd(a, b, c).bytes()),
                  to_hex(reference::muladd(a, b, c)));
      }
    }
  }
  Rng rng(307);
  for (int i = 0; i < 200; ++i) {
    const Scalar a = random_scalar(rng), b = random_scalar(rng), c = random_scalar(rng);
    EXPECT_EQ(to_hex(Scalar::muladd(a, b, c).bytes()), to_hex(reference::muladd(a, b, c)));
  }
}

TEST(Scalar, ReduceRejectsOverlongInput) {
  EXPECT_THROW(Scalar::reduce(Bytes(65, 0)), EnsureError);
}

}  // namespace
}  // namespace accountnet::crypto
