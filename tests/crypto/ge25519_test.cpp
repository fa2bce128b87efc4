// Group-law property tests for edwards25519 points.
#include <gtest/gtest.h>

#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/util/ensure.hpp"
#include "accountnet/util/rng.hpp"
#include "reference_arith.hpp"

namespace accountnet::crypto {
namespace {

std::array<std::uint8_t, 32> scalar_of(std::uint64_t v) {
  std::array<std::uint8_t, 32> s{};
  for (int i = 0; i < 8; ++i) s[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  return s;
}

std::array<std::uint8_t, 32> random_scalar(Rng& rng) {
  std::array<std::uint8_t, 32> s{};
  for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_u64());
  s[31] &= 0x0f;  // keep < 2^252 so no reduction questions arise
  return s;
}

TEST(Ge25519, IdentityEncoding) {
  EXPECT_EQ(to_hex(Ge25519::identity().to_bytes()),
            "0100000000000000000000000000000000000000000000000000000000000000");
  EXPECT_TRUE(Ge25519::identity().is_identity());
}

TEST(Ge25519, BasePointRoundTrip) {
  const auto enc = Ge25519::base_point().to_bytes();
  EXPECT_EQ(to_hex(enc),
            "5866666666666666666666666666666666666666666666666666666666666666");
  const auto decoded = Ge25519::from_bytes(enc);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, Ge25519::base_point());
}

TEST(Ge25519, AddIdentity) {
  const auto& b = Ge25519::base_point();
  EXPECT_EQ(b.add(Ge25519::identity()), b);
  EXPECT_EQ(Ge25519::identity().add(b), b);
}

TEST(Ge25519, DoubleMatchesAdd) {
  const auto& b = Ge25519::base_point();
  EXPECT_EQ(b.dbl(), b.add(b));
  const auto b2 = b.dbl();
  EXPECT_EQ(b2.dbl(), b2.add(b2));
}

TEST(Ge25519, NegatePlusSelfIsIdentity) {
  const auto& b = Ge25519::base_point();
  EXPECT_TRUE(b.add(b.negate()).is_identity());
  const auto p = b.scalar_mul(scalar_of(12345));
  EXPECT_TRUE(p.sub(p).is_identity());
}

TEST(Ge25519, AdditionCommutesAndAssociates) {
  const auto& b = Ge25519::base_point();
  const auto p = b.scalar_mul(scalar_of(7));
  const auto q = b.scalar_mul(scalar_of(11));
  const auto r = b.scalar_mul(scalar_of(13));
  EXPECT_EQ(p.add(q), q.add(p));
  EXPECT_EQ(p.add(q).add(r), p.add(q.add(r)));
}

TEST(Ge25519, ScalarMulMatchesRepeatedAdd) {
  const auto& b = Ge25519::base_point();
  Ge25519 acc = Ge25519::identity();
  for (std::uint64_t k = 0; k <= 40; ++k) {
    EXPECT_EQ(b.scalar_mul(scalar_of(k)), acc) << "k=" << k;
    acc = acc.add(b);
  }
}

TEST(Ge25519, ScalarMulDistributes) {
  Rng rng(201);
  const auto& b = Ge25519::base_point();
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t m = rng.uniform(1 << 20);
    const std::uint64_t n = rng.uniform(1 << 20);
    const auto lhs = b.scalar_mul(scalar_of(m + n));
    const auto rhs = b.scalar_mul(scalar_of(m)).add(b.scalar_mul(scalar_of(n)));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(Ge25519, OrderTimesBaseIsIdentity) {
  // L = 2^252 + 27742317777372353535851937790883648493 (little-endian bytes).
  const auto order =
      from_hex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::array<std::uint8_t, 32> l{};
  std::copy(order.begin(), order.end(), l.begin());
  EXPECT_TRUE(Ge25519::base_point().scalar_mul(l).is_identity());
}

TEST(Ge25519, CompressDecompressRandomPoints) {
  Rng rng(202);
  for (int i = 0; i < 25; ++i) {
    const auto p = Ge25519::base_point().scalar_mul(random_scalar(rng));
    const auto enc = p.to_bytes();
    const auto dec = Ge25519::from_bytes(enc);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(*dec, p);
    EXPECT_EQ(dec->to_bytes(), enc);
  }
}

TEST(Ge25519, RejectsNonCurveEncoding) {
  // y = 2 gives x^2 = 3/(4d+1), which is not a quadratic residue for this d.
  int rejected = 0;
  for (std::uint8_t y = 2; y < 12; ++y) {
    Bytes enc(32, 0);
    enc[0] = y;
    if (!Ge25519::from_bytes(enc)) ++rejected;
  }
  EXPECT_GT(rejected, 0);  // roughly half of all y values are off-curve
}

TEST(Ge25519, RejectsWrongLength) {
  EXPECT_FALSE(Ge25519::from_bytes(Bytes(31, 0)).has_value());
  EXPECT_FALSE(Ge25519::from_bytes(Bytes(33, 0)).has_value());
}

TEST(Ge25519, RejectsNegativeZeroX) {
  // y = 1 implies x = 0; the sign bit must then be 0.
  Bytes enc(32, 0);
  enc[0] = 1;
  enc[31] = 0x80;
  EXPECT_FALSE(Ge25519::from_bytes(enc).has_value());
  enc[31] = 0x00;
  const auto p = Ge25519::from_bytes(enc);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->is_identity());
}

TEST(Ge25519, CofactorMulIsThreeDoublings) {
  const auto p = Ge25519::base_point().scalar_mul(scalar_of(999));
  EXPECT_EQ(p.mul_by_cofactor(), p.scalar_mul(scalar_of(8)));
}

TEST(Ge25519, ScalarMulByZeroAndOne) {
  const auto& b = Ge25519::base_point();
  EXPECT_TRUE(b.scalar_mul(scalar_of(0)).is_identity());
  EXPECT_EQ(b.scalar_mul(scalar_of(1)), b);
}

using Scalar32 = std::array<std::uint8_t, 32>;

Scalar32 scalar_from_hex(const char* hex) {
  const auto b = from_hex(hex);
  Scalar32 s{};
  std::copy(b.begin(), b.end(), s.begin());
  return s;
}

Scalar32 filled(std::uint8_t v) {
  Scalar32 s;
  s.fill(v);
  return s;
}

// 0, 1, 8, L - 1, L, all-0x88 bytes (every signed radix-16 digit carries),
// all-0xff (top bit set), 2^255, then full-width 256-bit random scalars.
std::vector<Scalar32> edge_and_random_scalars(std::uint64_t seed, int randoms) {
  std::vector<Scalar32> out = {
      scalar_of(0),
      scalar_of(1),
      scalar_of(8),
      scalar_from_hex("ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010"),
      scalar_from_hex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010"),
      filled(0x88),
      filled(0xff),
      scalar_from_hex("0000000000000000000000000000000000000000000000000000000000000080")};
  Rng rng(seed);
  for (int i = 0; i < randoms; ++i) {
    Scalar32 s;
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_u64());
    out.push_back(s);
  }
  return out;
}

// The order-2 point T2 = (0, -1).
Ge25519 order_two_point() {
  const auto t2 = Ge25519::from_bytes(
      from_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"));
  EXPECT_TRUE(t2.has_value());
  return *t2;
}

TEST(Ge25519, FixedBaseMatchesGenericScalarMul) {
  for (const auto& s : edge_and_random_scalars(203, 40)) {
    EXPECT_EQ(ge_scalar_mul_base(s), Ge25519::base_point().scalar_mul(s)) << to_hex(s);
  }
}

TEST(Ge25519, ScalarMulMatchesDoubleAndAdd) {
  const auto p = Ge25519::base_point().scalar_mul(scalar_of(0xfeedbeef));
  for (const auto& s : edge_and_random_scalars(204, 10)) {
    EXPECT_EQ(p.scalar_mul(s), reference::scalar_mul(p, s)) << to_hex(s);
    EXPECT_EQ(ge_scalar_mul_base(s), reference::scalar_mul(Ge25519::base_point(), s))
        << to_hex(s);
  }
}

TEST(Ge25519, ScalarMulKeepsTorsionComponent) {
  // scalar_mul must not reduce mod L: on P + T2 an odd scalar keeps T2 and an
  // even one drops it, so L * (P + T2) = T2, not the identity.
  const Ge25519 t2 = order_two_point();
  ASSERT_FALSE(t2.is_identity());
  ASSERT_TRUE(t2.dbl().is_identity());
  const Ge25519 p = Ge25519::base_point().scalar_mul(scalar_of(987654321));
  const Ge25519 mixed = p.add(t2);
  for (const auto& s : edge_and_random_scalars(205, 20)) {
    const bool odd = (s[0] & 1) != 0;
    const Ge25519 expected = odd ? p.scalar_mul(s).add(t2) : p.scalar_mul(s);
    EXPECT_EQ(mixed.scalar_mul(s), expected) << to_hex(s);
    EXPECT_EQ(t2.scalar_mul(s), odd ? t2 : Ge25519::identity()) << to_hex(s);
  }
  const auto order =
      scalar_from_hex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  EXPECT_EQ(mixed.scalar_mul(order), t2);
}

// Points of order 4 and 8 (the small-order encodings every Ed25519 library
// blocklists), with the order-2 point: every torsion class a wire key can add.
std::vector<Ge25519> small_order_points() {
  std::vector<Ge25519> out = {Ge25519::identity(), order_two_point()};
  for (const char* hex :
       {"0000000000000000000000000000000000000000000000000000000000000000",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a"}) {
    const auto p = Ge25519::from_bytes(from_hex(hex));
    EXPECT_TRUE(p.has_value()) << hex;
    if (p) out.push_back(*p);
  }
  return out;
}

TEST(Ge25519, SmallOrderPointsHaveTheirOrder) {
  const auto pts = small_order_points();
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_TRUE(pts[2].dbl().dbl().is_identity());
  EXPECT_FALSE(pts[2].dbl().is_identity());
  for (std::size_t i = 3; i < 5; ++i) {
    EXPECT_TRUE(pts[i].mul_by_cofactor().is_identity());
    EXPECT_FALSE(pts[i].dbl().dbl().is_identity());
  }
}

TEST(Ge25519, BatchEncodeMatchesPerPointEncoding) {
  const Ge25519& b = Ge25519::base_point();
  std::vector<Ge25519> pts;
  for (const auto& s : edge_and_random_scalars(207, 12)) {
    const Ge25519 p = b.scalar_mul(s);  // projective: Z != 1
    pts.push_back(p);
    pts.push_back(p.mul_by_cofactor());
    for (const auto& t : small_order_points()) pts.push_back(p.add(t));
  }
  for (const auto& t : small_order_points()) pts.push_back(t);
  pts.push_back(*Ge25519::from_bytes(b.to_bytes()));  // affine: Z == 1

  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5}, pts.size()}) {
    const std::span<const Ge25519> batch(pts.data(), n);
    std::vector<std::array<std::uint8_t, 32>> enc(n);
    Ge25519::to_bytes_batch(batch, enc);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(to_hex(enc[i]), to_hex(batch[i].to_bytes())) << "n " << n << " i " << i;
    }
  }
  std::vector<std::array<std::uint8_t, 32>> short_out(2);
  EXPECT_THROW(Ge25519::to_bytes_batch(std::span<const Ge25519>(pts.data(), 3), short_out),
               EnsureError);
}

TEST(Ge25519, ScalarMulPairMatchesTwoScalarMuls) {
  const Ge25519 p = Ge25519::base_point().scalar_mul(scalar_of(4242)).add(order_two_point());
  const auto scalars = edge_and_random_scalars(208, 8);
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    const auto& a = scalars[i];
    const auto& c = scalars[(i * 5 + 2) % scalars.size()];
    const auto [pa, pc] = p.scalar_mul_pair(a, c);
    EXPECT_EQ(pa, p.scalar_mul(a)) << to_hex(a);
    EXPECT_EQ(pc, p.scalar_mul(c)) << to_hex(c);
  }
}

TEST(Ge25519, VartimeScalarMulMatchesConstantTime) {
  std::vector<Ge25519> pts = small_order_points();
  pts.push_back(Ge25519::base_point());
  pts.push_back(Ge25519::base_point().scalar_mul(scalar_of(777)).add(pts[4]));
  for (const auto& p : pts) {
    for (const auto& s : edge_and_random_scalars(209, 8)) {
      EXPECT_EQ(p.scalar_mul_vartime(s), p.scalar_mul(s)) << to_hex(p.to_bytes()) << " "
                                                           << to_hex(s);
    }
  }
}

// The ECVRF verifier's U = s*B - c*Y: the fixed-base table for s plus a
// 128-bit variable-time chain for c, against the Strauss form it replaced.
TEST(Ge25519, SplitUMatchesStraussU) {
  Rng rng(210);
  const auto torsion = small_order_points();
  for (int i = 0; i < 24; ++i) {
    Scalar32 s = random_scalar(rng);
    Scalar32 c{};
    for (std::size_t j = 0; j < 16; ++j) c[j] = static_cast<std::uint8_t>(rng.next_u64());
    if (i == 0) s = scalar_of(0);
    if (i == 1) c = scalar_of(0);
    if (i == 2) std::fill(c.begin(), c.begin() + 16, std::uint8_t{0xff});
    Ge25519 y = Ge25519::base_point().scalar_mul(random_scalar(rng));
    y = y.add(torsion[static_cast<std::size_t>(i) % torsion.size()]);
    const Ge25519 neg_y = y.negate();
    SCOPED_TRACE(to_hex(s) + " " + to_hex(c));
    EXPECT_EQ(ge_scalar_mul_base(s).add(neg_y.scalar_mul_vartime(c)),
              Ge25519::double_scalar_mul_base_vartime(s, c, neg_y));
  }
}

TEST(Ge25519, DoubleScalarMulMatchesSeparateMultiplications) {
  const Ge25519& b = Ge25519::base_point();
  const Ge25519 p = b.scalar_mul(scalar_of(31337));
  const Ge25519 q = b.scalar_mul(scalar_of(271828)).add(order_two_point());
  const auto scalars = edge_and_random_scalars(206, 12);
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    const auto& a = scalars[i];
    const auto& c = scalars[(i * 7 + 3) % scalars.size()];
    SCOPED_TRACE(to_hex(a) + " " + to_hex(c));
    EXPECT_EQ(Ge25519::double_scalar_mul_base_vartime(a, c, q),
              b.scalar_mul(a).add(q.scalar_mul(c)));
    EXPECT_EQ(Ge25519::double_scalar_mul_vartime(a, b, c, q),
              b.scalar_mul(a).add(q.scalar_mul(c)));
    EXPECT_EQ(Ge25519::double_scalar_mul_vartime(a, p, c, q.negate()),
              p.scalar_mul(a).sub(q.scalar_mul(c)));
  }
  EXPECT_TRUE(
      Ge25519::double_scalar_mul_vartime(scalar_of(0), b, scalar_of(0), p).is_identity());
  EXPECT_TRUE(Ge25519::double_scalar_mul_base_vartime(scalar_of(0), scalar_of(0), p)
                  .is_identity());
}

}  // namespace
}  // namespace accountnet::crypto
