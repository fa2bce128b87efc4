// Arithmetic in GF(2^255 - 19), the base field of edwards25519.
//
// Representation: five 51-bit limbs (radix 2^51), operated on through
// unsigned __int128 accumulation. Limbs of a reduced element are < 2^52;
// to_bytes() produces the canonical (fully reduced) little-endian encoding.
//
// This is a from-scratch implementation (the paper used libsodium); it is
// validated by algebraic property tests, differential tests against plain
// square-and-multiply, and by the RFC 8032 Ed25519 vectors that exercise it
// end-to-end. Every operation runs the same instruction sequence for every
// input (no secret-dependent branches or table indices).
#pragma once

#include <array>
#include <cstdint>

#include "accountnet/util/bytes.hpp"

namespace accountnet::crypto {

class Fe25519 {
 public:
  /// Zero element.
  constexpr Fe25519() : limbs_{0, 0, 0, 0, 0} {}

  static Fe25519 zero() { return Fe25519(); }
  static Fe25519 one();
  static Fe25519 from_u64(std::uint64_t v);

  /// Loads a 32-byte little-endian encoding; the top bit is ignored
  /// (RFC 7748 convention). The value is reduced mod p.
  static Fe25519 from_bytes(BytesView b32);

  /// Canonical 32-byte little-endian encoding (fully reduced, < p).
  std::array<std::uint8_t, 32> to_bytes() const;

  Fe25519 operator+(const Fe25519& rhs) const;
  Fe25519 operator-(const Fe25519& rhs) const;
  Fe25519 operator*(const Fe25519& rhs) const;
  /// x^2 with the 15-product schoolbook (cheaper than x * x).
  Fe25519 square() const;
  Fe25519 negate() const;

  /// Multiplicative inverse x^(p-2) by a fixed addition chain (254 squarings,
  /// 11 multiplications); inverse of zero is zero.
  Fe25519 invert() const;

  /// x^((p-5)/8), the exponentiation used in square-root extraction (same
  /// chain as invert() up to x^(2^250-1)).
  Fe25519 pow22523() const;

  /// Constant-time conditional move: *this = flag ? src : *this, for
  /// flag in {0, 1}, without a branch on flag.
  void cmov(const Fe25519& src, std::uint64_t flag);

  bool is_zero() const;
  /// "Negative" per RFC 8032: least significant bit of the canonical encoding.
  bool is_negative() const;
  bool operator==(const Fe25519& rhs) const;

 private:
  explicit constexpr Fe25519(std::array<std::uint64_t, 5> limbs) : limbs_(limbs) {}

  static constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

  /// One carry-propagation pass; keeps limbs < 2^52.
  void carry();

  /// Carries every limb into the next at once. Limbs below 2^54 end below
  /// 2^51 + 2^8, inside the < 2^52 every operation here accepts.
  static Fe25519 weak_reduce(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
                             std::uint64_t l3, std::uint64_t l4);

  /// Carries five 128-bit column sums into 51-bit limbs (< 2^52).
  static Fe25519 carry_wide(unsigned __int128 r0, unsigned __int128 r1,
                            unsigned __int128 r2, unsigned __int128 r3,
                            unsigned __int128 r4);

  /// Squares n >= 1 times in a row.
  Fe25519 square_times(int n) const;

  /// x^(2^250 - 1) and x^11, the shared prefix of invert() and pow22523().
  void pow_chain_250(Fe25519& z_250_0, Fe25519& z11) const;

  std::array<std::uint64_t, 5> limbs_;
};

// The arithmetic below is inline: point formulas string dozens of these
// together, and a call per operation costs as much as an addition.

inline Fe25519 Fe25519::weak_reduce(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
                                    std::uint64_t l3, std::uint64_t l4) {
  // All five carries read the limbs as they were, so the steps run in
  // parallel instead of as one dependent chain.
  return Fe25519({(l0 & kMask51) + 19 * (l4 >> 51), (l1 & kMask51) + (l0 >> 51),
                  (l2 & kMask51) + (l1 >> 51), (l3 & kMask51) + (l2 >> 51),
                  (l4 & kMask51) + (l3 >> 51)});
}

inline Fe25519 Fe25519::carry_wide(unsigned __int128 r0, unsigned __int128 r1,
                                   unsigned __int128 r2, unsigned __int128 r3,
                                   unsigned __int128 r4) {
  unsigned __int128 c;
  c = r0 >> 51; r0 &= kMask51; r1 += c;
  c = r1 >> 51; r1 &= kMask51; r2 += c;
  c = r2 >> 51; r2 &= kMask51; r3 += c;
  c = r3 >> 51; r3 &= kMask51; r4 += c;
  c = r4 >> 51; r4 &= kMask51; r0 += 19 * c;
  c = r0 >> 51; r0 &= kMask51; r1 += c;
  return Fe25519({static_cast<std::uint64_t>(r0), static_cast<std::uint64_t>(r1),
                  static_cast<std::uint64_t>(r2), static_cast<std::uint64_t>(r3),
                  static_cast<std::uint64_t>(r4)});
}

inline Fe25519 Fe25519::operator+(const Fe25519& rhs) const {
  const auto& f = limbs_;
  const auto& g = rhs.limbs_;
  return weak_reduce(f[0] + g[0], f[1] + g[1], f[2] + g[2], f[3] + g[3], f[4] + g[4]);
}

inline Fe25519 Fe25519::operator-(const Fe25519& rhs) const {
  // Add 2p (limb-wise) before subtracting so limbs never underflow.
  constexpr std::uint64_t kTwoP0 = 0xfffffffffffdaULL;  // 2*(2^51 - 19)
  constexpr std::uint64_t kTwoPi = 0xffffffffffffeULL;  // 2*(2^51 - 1)
  const auto& f = limbs_;
  const auto& g = rhs.limbs_;
  return weak_reduce(f[0] + kTwoP0 - g[0], f[1] + kTwoPi - g[1], f[2] + kTwoPi - g[2],
                     f[3] + kTwoPi - g[3], f[4] + kTwoPi - g[4]);
}

inline Fe25519 Fe25519::negate() const {
  return zero() - *this;
}

inline Fe25519 Fe25519::operator*(const Fe25519& rhs) const {
  using u128 = unsigned __int128;
  const std::uint64_t f0 = limbs_[0], f1 = limbs_[1], f2 = limbs_[2], f3 = limbs_[3],
                      f4 = limbs_[4];
  const std::uint64_t g0 = rhs.limbs_[0], g1 = rhs.limbs_[1], g2 = rhs.limbs_[2],
                      g3 = rhs.limbs_[3], g4 = rhs.limbs_[4];
  const std::uint64_t g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3, g4_19 = 19 * g4;
  return carry_wide(
      (u128)f0 * g0 + (u128)f1 * g4_19 + (u128)f2 * g3_19 + (u128)f3 * g2_19 +
          (u128)f4 * g1_19,
      (u128)f0 * g1 + (u128)f1 * g0 + (u128)f2 * g4_19 + (u128)f3 * g3_19 +
          (u128)f4 * g2_19,
      (u128)f0 * g2 + (u128)f1 * g1 + (u128)f2 * g0 + (u128)f3 * g4_19 + (u128)f4 * g3_19,
      (u128)f0 * g3 + (u128)f1 * g2 + (u128)f2 * g1 + (u128)f3 * g0 + (u128)f4 * g4_19,
      (u128)f0 * g4 + (u128)f1 * g3 + (u128)f2 * g2 + (u128)f3 * g1 + (u128)f4 * g0);
}

inline Fe25519 Fe25519::square() const {
  // The cross products f_i f_j (i != j) appear twice; fold the doubling and
  // the 19 of the wrap-around into one operand.
  using u128 = unsigned __int128;
  const std::uint64_t f0 = limbs_[0], f1 = limbs_[1], f2 = limbs_[2], f3 = limbs_[3],
                      f4 = limbs_[4];
  const std::uint64_t f0_2 = 2 * f0, f1_2 = 2 * f1;
  const std::uint64_t f1_38 = 38 * f1, f2_38 = 38 * f2, f3_38 = 38 * f3;
  const std::uint64_t f3_19 = 19 * f3, f4_19 = 19 * f4;
  return carry_wide((u128)f0 * f0 + (u128)f1_38 * f4 + (u128)f2_38 * f3,
                    (u128)f0_2 * f1 + (u128)f2_38 * f4 + (u128)f3_19 * f3,
                    (u128)f0_2 * f2 + (u128)f1 * f1 + (u128)f3_38 * f4,
                    (u128)f0_2 * f3 + (u128)f1_2 * f2 + (u128)f4_19 * f4,
                    (u128)f0_2 * f4 + (u128)f1_2 * f3 + (u128)f2 * f2);
}

inline void Fe25519::cmov(const Fe25519& src, std::uint64_t flag) {
  const std::uint64_t mask = std::uint64_t{0} - flag;
  limbs_[0] ^= (limbs_[0] ^ src.limbs_[0]) & mask;
  limbs_[1] ^= (limbs_[1] ^ src.limbs_[1]) & mask;
  limbs_[2] ^= (limbs_[2] ^ src.limbs_[2]) & mask;
  limbs_[3] ^= (limbs_[3] ^ src.limbs_[3]) & mask;
  limbs_[4] ^= (limbs_[4] ^ src.limbs_[4]) & mask;
}

/// sqrt(-1) mod p; needed for point decompression.
const Fe25519& fe_sqrt_m1();

/// Edwards curve constant d = -121665/121666 mod p.
const Fe25519& fe_edwards_d();

/// 2d, used in extended-coordinate point addition.
const Fe25519& fe_edwards_2d();

}  // namespace accountnet::crypto
