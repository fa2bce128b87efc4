// Group operations on edwards25519 (twisted Edwards curve, a = -1,
// d = -121665/121666), extended coordinates (X : Y : Z : T), T = XY/Z.
//
// Provides compression/decompression per RFC 8032 §5.1.3, constant-time
// fixed- and variable-base scalar multiplication (for secret scalars), and a
// variable-time double-scalar multiplication (for verification); enough for
// Ed25519 and ECVRF.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <utility>

#include "accountnet/crypto/fe25519.hpp"
#include "accountnet/util/bytes.hpp"

namespace accountnet::crypto {

class Ge25519 {
 public:
  /// Neutral element (0, 1).
  static Ge25519 identity();

  /// The standard base point B (y = 4/5, x positive... RFC 8032 sign rules).
  static const Ge25519& base_point();

  /// Decompresses a 32-byte encoding; nullopt if not a curve point.
  static std::optional<Ge25519> from_bytes(BytesView b32);

  /// Canonical 32-byte compressed encoding.
  std::array<std::uint8_t, 32> to_bytes() const;

  /// Canonical encodings of several points for one field inversion
  /// (Montgomery's trick: invert the product of the Z coordinates, then peel
  /// each 1/Z off it with three multiplications). out[i] ==
  /// points[i].to_bytes(); the sizes must match.
  static void to_bytes_batch(std::span<const Ge25519> points,
                             std::span<std::array<std::uint8_t, 32>> out);

  Ge25519 add(const Ge25519& rhs) const;
  Ge25519 dbl() const;
  Ge25519 negate() const;
  Ge25519 sub(const Ge25519& rhs) const { return add(rhs.negate()); }

  /// scalar * P for any 32-byte little-endian integer, top bit included. No
  /// reduction mod L: P may have a torsion component (a public key from the
  /// wire). Constant time in the scalar: 65 signed radix-16 digits, each
  /// selecting one of 8 cached multiples of P by cmov.
  Ge25519 scalar_mul(const std::array<std::uint8_t, 32>& scalar_le) const;

  /// {a * P, b * P}: two scalar_mul() chains over one table of P's multiples.
  /// Constant time in both scalars.
  std::pair<Ge25519, Ge25519> scalar_mul_pair(const std::array<std::uint8_t, 32>& a,
                                              const std::array<std::uint8_t, 32>& b) const;

  /// scalar * P in VARIABLE time: public scalars only. Width-5 sliding-window
  /// digits; the doubling chain starts at the top nonzero digit, so a scalar
  /// below 2^128 (an ECVRF challenge) costs about 128 doublings.
  Ge25519 scalar_mul_vartime(const std::array<std::uint8_t, 32>& scalar_le) const;

  /// a * P + b * Q for any 32-byte little-endian a and b, in VARIABLE time:
  /// public scalars only (verification). Strauss' method over width-5
  /// sliding-window digits of both scalars, sharing one doubling chain.
  static Ge25519 double_scalar_mul_vartime(const std::array<std::uint8_t, 32>& a,
                                           const Ge25519& p,
                                           const std::array<std::uint8_t, 32>& b,
                                           const Ge25519& q);

  /// a * B + b * Q for the standard base point B, in VARIABLE time: the same
  /// method, but B's odd multiples come from a static table, so a's digits
  /// use width 7 (fewer additions) and no per-call multiples of B are built.
  static Ge25519 double_scalar_mul_base_vartime(const std::array<std::uint8_t, 32>& a,
                                                const std::array<std::uint8_t, 32>& b,
                                                const Ge25519& q);

  /// 8 * P (clears the cofactor).
  Ge25519 mul_by_cofactor() const;

  bool is_identity() const;
  bool operator==(const Ge25519& rhs) const;

 private:
  Ge25519(Fe25519 x, Fe25519 y, Fe25519 z, Fe25519 t) : x_(x), y_(y), z_(z), t_(t) {}

  friend struct GeFormulas;  // coordinate-level formulas in ge25519.cpp

  Fe25519 x_;
  Fe25519 y_;
  Fe25519 z_;
  Fe25519 t_;
};

/// scalar * B for the standard base point and any 32-byte little-endian
/// scalar. Constant time: one mixed addition per signed radix-16 digit from a
/// precomputed table of j * 16^i * B (j = 1..8), selected by cmov; no
/// doublings. The table (about 60 KiB) is built on first use.
Ge25519 ge_scalar_mul_base(const std::array<std::uint8_t, 32>& scalar_le);

}  // namespace accountnet::crypto
