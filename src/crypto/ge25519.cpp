#include "accountnet/crypto/ge25519.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

namespace {

using u64 = std::uint64_t;
using Scalar32 = std::array<std::uint8_t, 32>;

// Completed point ((X : Z), (Y : T)), x = X/Z, y = Y/T: what every addition
// and doubling formula below produces.
struct GeP1P1 {
  Fe25519 x, y, z, t;
};

// Projective point (X : Y : Z): all a doubling reads.
struct GeP2 {
  Fe25519 x, y, z;
};

// Extended point cached as an addition operand: (Y+X, Y-X, Z, 2dT).
struct GeCached {
  Fe25519 yplusx, yminusx, z, t2d;

  static GeCached identity() {
    return {Fe25519::one(), Fe25519::one(), Fe25519::one(), Fe25519::zero()};
  }
  GeCached negate() const { return {yminusx, yplusx, z, t2d.negate()}; }
  void cmov(const GeCached& src, u64 flag) {
    yplusx.cmov(src.yplusx, flag);
    yminusx.cmov(src.yminusx, flag);
    z.cmov(src.z, flag);
    t2d.cmov(src.t2d, flag);
  }
};

// Affine point (Z = 1) cached as a mixed-addition operand: (y+x, y-x, 2dxy).
struct GePrecomp {
  Fe25519 yplusx, yminusx, xy2d;

  static GePrecomp identity() { return {Fe25519::one(), Fe25519::one(), Fe25519::zero()}; }
  GePrecomp negate() const { return {yminusx, yplusx, xy2d.negate()}; }
  void cmov(const GePrecomp& src, u64 flag) {
    yplusx.cmov(src.yplusx, flag);
    yminusx.cmov(src.yminusx, flag);
    xy2d.cmov(src.xy2d, flag);
  }
};

// 1 when a == b, else 0; a, b < 2^63. No branch.
u64 ct_eq(u64 a, u64 b) {
  return ((a ^ b) - 1) >> 63;
}

// Signed radix-16 digits: scalar = sum(e[i] * 16^i), e[0..63] in [-8, 8),
// e[64] in {0, 1} (the carry out of a scalar with its top bits set).
std::array<std::int8_t, 65> radix16(const Scalar32& s) {
  std::array<std::int8_t, 65> e{};
  for (std::size_t i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(s[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(s[i] >> 4);
  }
  int carry = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const int d = e[i] + carry;
    carry = (d + 8) >> 4;
    e[i] = static_cast<std::int8_t>(d - 16 * carry);
  }
  e[64] = static_cast<std::int8_t>(carry);
  return e;
}

// Returns digit * T, for digit in [-8, 8] and table[j] = (j + 1) * T, reading
// every entry and choosing by mask: the digit never steers a branch or an
// address.
template <typename Entry>
Entry ct_select(const std::array<Entry, 8>& table, std::int8_t digit) {
  const auto d = static_cast<std::int64_t>(digit);
  const u64 negative = static_cast<u64>(d) >> 63;
  const auto magnitude =
      static_cast<u64>(d - 2 * (d & -static_cast<std::int64_t>(negative)));
  Entry r = Entry::identity();
  for (u64 j = 0; j < 8; ++j) r.cmov(table[j], ct_eq(magnitude, j + 1));
  r.cmov(r.negate(), negative);
  return r;
}

// Width-w sliding-window (wNAF-style) digits: scalar = sum(r[i] * 2^i) with
// every nonzero r[i] odd and |r[i]| < 2^(w-1). Variable time. Position 256
// holds a carry out of a scalar with its top bit set.
std::array<std::int8_t, 257> slide(const Scalar32& s, int w) {
  const int max = (1 << (w - 1)) - 1;
  std::array<std::int8_t, 257> r{};
  for (std::size_t i = 0; i < 256; ++i) {
    r[i] = static_cast<std::int8_t>((s[i >> 3] >> (i & 7)) & 1);
  }
  for (std::size_t i = 0; i < 257; ++i) {
    if (r[i] == 0) continue;
    for (std::size_t b = 1; b < static_cast<std::size_t>(w) && i + b < 257; ++b) {
      if (r[i + b] == 0) continue;
      const int shifted = r[i + b] << b;
      if (r[i] + shifted <= max) {
        r[i] = static_cast<std::int8_t>(r[i] + shifted);
        r[i + b] = 0;
      } else if (r[i] - shifted >= -max) {
        r[i] = static_cast<std::int8_t>(r[i] - shifted);
        for (std::size_t k = i + b; k < 257; ++k) {  // add 2^(i+b) back above
          if (r[k] == 0) {
            r[k] = 1;
            break;
          }
          r[k] = 0;
        }
      } else {
        break;
      }
    }
  }
  return r;
}

}  // namespace

// The formulas that read or build a Ge25519's coordinates (ref10's p3/p1p1
// conversions and the unified addition law, EFD "add-2008-hwcd-3").
struct GeFormulas {
  static Ge25519 to_p3(const GeP1P1& p) {
    return Ge25519(p.x * p.t, p.y * p.z, p.z * p.t, p.x * p.y);
  }

  static GeP2 to_p2(const Ge25519& p) { return {p.x_, p.y_, p.z_}; }

  static GeP2 to_p2(const GeP1P1& p) { return {p.x * p.t, p.y * p.z, p.z * p.t}; }

  // Doubling (EFD "dbl-2008-hwcd" for a = -1): four squarings, Z^2 once.
  static GeP1P1 dbl(const GeP2& p) {
    const Fe25519 xx = p.x.square();
    const Fe25519 yy = p.y.square();
    const Fe25519 zz = p.z.square();
    const Fe25519 xy2 = (p.x + p.y).square();
    GeP1P1 r;
    r.y = yy + xx;
    r.z = yy - xx;
    r.x = xy2 - r.y;
    r.t = zz + zz - r.z;
    return r;
  }

  static GeCached to_cached(const Ge25519& p) {
    return {p.y_ + p.x_, p.y_ - p.x_, p.z_, p.t_ * fe_edwards_2d()};
  }

  static GePrecomp to_precomp(const Ge25519& p) {
    const Fe25519 zinv = p.z_.invert();
    const Fe25519 x = p.x_ * zinv;
    const Fe25519 y = p.y_ * zinv;
    return {y + x, y - x, x * y * fe_edwards_2d()};
  }

  static GeP1P1 add(const Ge25519& p, const GeCached& q) {
    const Fe25519 a = (p.y_ - p.x_) * q.yminusx;
    const Fe25519 b = (p.y_ + p.x_) * q.yplusx;
    const Fe25519 c = q.t2d * p.t_;
    const Fe25519 zz = p.z_ * q.z;
    const Fe25519 d = zz + zz;
    return {b - a, b + a, d + c, d - c};
  }

  static GeP1P1 madd(const Ge25519& p, const GePrecomp& q) {
    const Fe25519 a = (p.y_ - p.x_) * q.yminusx;
    const Fe25519 b = (p.y_ + p.x_) * q.yplusx;
    const Fe25519 c = q.xy2d * p.t_;
    const Fe25519 d = p.z_ + p.z_;
    return {b - a, b + a, d + c, d - c};
  }

  static Ge25519 dbl_p3(const Ge25519& p) { return to_p3(dbl(to_p2(p))); }

  // P, 3P, 5P, ..., 15P.
  static std::array<GeCached, 8> odd_multiples(const Ge25519& p) {
    std::array<GeCached, 8> out;
    const Ge25519 p2 = dbl_p3(p);
    Ge25519 m = p;
    out[0] = to_cached(m);
    for (std::size_t k = 1; k < 8; ++k) {
      m = to_p3(add(p2, out[k - 1]));
      out[k] = to_cached(m);
    }
    return out;
  }
};

namespace {

using F = GeFormulas;

// rows[i][j] = (j + 1) * 16^i * B; top = 16^64 * B.
struct BaseTable {
  std::array<std::array<GePrecomp, 8>, 64> rows;
  GePrecomp top;
};

const BaseTable& base_table() {
  // Function-local static: built once, thread-safe on first use.
  static const BaseTable table = [] {
    BaseTable t;
    Ge25519 row_base = Ge25519::base_point();
    for (auto& row : t.rows) {
      const GeCached step = F::to_cached(row_base);
      Ge25519 m = row_base;
      for (std::size_t j = 0; j < 8; ++j) {
        row[j] = F::to_precomp(m);
        if (j + 1 < 8) m = F::to_p3(F::add(m, step));
      }
      for (int k = 0; k < 4; ++k) row_base = F::dbl_p3(row_base);
    }
    t.top = F::to_precomp(row_base);
    return t;
  }();
  return table;
}

// B, 3B, 5B, ..., 63B for the width-7 base digits of Strauss' method.
const std::array<GePrecomp, 32>& base_odd_multiples() {
  static const std::array<GePrecomp, 32> table = [] {
    std::array<GePrecomp, 32> t;
    const Ge25519& b = Ge25519::base_point();
    const GeCached b2 = F::to_cached(F::dbl_p3(b));
    Ge25519 m = b;
    for (std::size_t k = 0; k < 32; ++k) {
      t[k] = F::to_precomp(m);
      m = F::to_p3(F::add(m, b2));
    }
    return t;
  }();
  return table;
}

}  // namespace

Ge25519 Ge25519::identity() {
  return Ge25519(Fe25519::zero(), Fe25519::one(), Fe25519::one(), Fe25519::zero());
}

const Ge25519& Ge25519::base_point() {
  // RFC 8032: B has y = 4/5 (mod p) and positive x.
  static const Ge25519 b = [] {
    auto pt = Ge25519::from_bytes(
        from_hex("5866666666666666666666666666666666666666666666666666666666666666"));
    AN_ENSURE_MSG(pt.has_value(), "base point decompression failed");
    return *pt;
  }();
  return b;
}

std::optional<Ge25519> Ge25519::from_bytes(BytesView b32) {
  if (b32.size() != 32) return std::nullopt;
  const bool sign = (b32[31] & 0x80) != 0;
  const Fe25519 y = Fe25519::from_bytes(b32);  // masks the sign bit

  // Recover x from x^2 = (y^2 - 1) / (d y^2 + 1).
  const Fe25519 y2 = y.square();
  const Fe25519 u = y2 - Fe25519::one();
  const Fe25519 v = fe_edwards_d() * y2 + Fe25519::one();

  // Candidate root: x = u v^3 (u v^7)^((p-5)/8).
  const Fe25519 v3 = v.square() * v;
  const Fe25519 v7 = v3.square() * v;
  Fe25519 x = u * v3 * (u * v7).pow22523();

  const Fe25519 vxx = v * x.square();
  if (!(vxx == u)) {
    if (vxx == u.negate()) {
      x = x * fe_sqrt_m1();
    } else {
      return std::nullopt;  // not a square: not on the curve
    }
  }
  if (x.is_zero() && sign) return std::nullopt;  // -0 is not canonical
  if (x.is_negative() != sign) x = x.negate();

  return Ge25519(x, y, Fe25519::one(), x * y);
}

namespace {

// RFC 8032 §5.1.2: y's encoding with x's sign in the top bit.
std::array<std::uint8_t, 32> encode_affine(const Fe25519& x, const Fe25519& y) {
  auto out = y.to_bytes();
  if (x.is_negative()) out[31] |= 0x80;
  return out;
}

}  // namespace

std::array<std::uint8_t, 32> Ge25519::to_bytes() const {
  const Fe25519 zinv = z_.invert();
  return encode_affine(x_ * zinv, y_ * zinv);
}

void Ge25519::to_bytes_batch(std::span<const Ge25519> points,
                             std::span<std::array<std::uint8_t, 32>> out) {
  AN_ENSURE_MSG(points.size() == out.size(), "to_bytes_batch size mismatch");
  if (points.empty()) return;
  // prefix[i] = Z_0 * ... * Z_i; Z is never zero for a point.
  std::vector<Fe25519> prefix(points.size());
  prefix[0] = points[0].z_;
  for (std::size_t i = 1; i < points.size(); ++i) prefix[i] = prefix[i - 1] * points[i].z_;
  Fe25519 inv = prefix.back().invert();  // 1 / (Z_0 * ... * Z_i), i walking down
  for (std::size_t i = points.size(); i-- > 0;) {
    const Fe25519 zinv = i == 0 ? inv : inv * prefix[i - 1];
    if (i > 0) inv = inv * points[i].z_;
    out[i] = encode_affine(points[i].x_ * zinv, points[i].y_ * zinv);
  }
}

Ge25519 Ge25519::add(const Ge25519& rhs) const {
  return F::to_p3(F::add(*this, F::to_cached(rhs)));
}

Ge25519 Ge25519::dbl() const {
  return F::dbl_p3(*this);
}

Ge25519 Ge25519::negate() const {
  return Ge25519(x_.negate(), y_, z_, t_.negate());
}

namespace {

// (j + 1) * P for j = 0..7: the operands of a signed radix-16 chain.
std::array<GeCached, 8> radix16_multiples(const Ge25519& p) {
  std::array<GeCached, 8> multiples;
  multiples[0] = F::to_cached(p);
  Ge25519 m = p;
  for (std::size_t j = 1; j < 8; ++j) {
    m = F::to_p3(F::add(m, multiples[0]));
    multiples[j] = F::to_cached(m);
  }
  return multiples;
}

// h = 16 h + e[i] P from the top digit down; between steps h stays in
// completed form, since a doubling needs no T coordinate.
Ge25519 radix16_mul(const std::array<GeCached, 8>& multiples, const Scalar32& scalar_le) {
  const auto e = radix16(scalar_le);
  GeP1P1 h = F::add(Ge25519::identity(), ct_select(multiples, e[64]));
  for (int i = 63; i >= 0; --i) {
    for (int k = 0; k < 4; ++k) h = F::dbl(F::to_p2(h));
    h = F::add(F::to_p3(h), ct_select(multiples, e[static_cast<std::size_t>(i)]));
  }
  return F::to_p3(h);
}

}  // namespace

Ge25519 Ge25519::scalar_mul(const Scalar32& scalar_le) const {
  return radix16_mul(radix16_multiples(*this), scalar_le);
}

std::pair<Ge25519, Ge25519> Ge25519::scalar_mul_pair(const Scalar32& a,
                                                     const Scalar32& b) const {
  const auto multiples = radix16_multiples(*this);
  return {radix16_mul(multiples, a), radix16_mul(multiples, b)};
}

namespace {

GeP1P1 add_multiple(const Ge25519& u, const GeCached& m) { return F::add(u, m); }
GeP1P1 add_multiple(const Ge25519& u, const GePrecomp& m) { return F::madd(u, m); }

// t += digit * P for a sliding-window digit (zero or odd) and
// odd = P, 3P, 5P, ... covering it.
template <class Multiple, std::size_t N>
void add_digit(GeP1P1& t, int digit, const std::array<Multiple, N>& odd) {
  if (digit == 0) return;
  const auto idx = static_cast<std::size_t>(digit > 0 ? digit : -digit) / 2;
  t = add_multiple(F::to_p3(t), digit > 0 ? odd[idx] : odd[idx].negate());
}

// Index of the highest nonzero digit; -1 if every digit is zero.
int top_digit(const std::array<std::int8_t, 257>& d) {
  int top = 256;
  while (top >= 0 && d[static_cast<std::size_t>(top)] == 0) --top;
  return top;
}

// a * P + b * Q by Strauss' method: one doubling chain, and each nonzero
// digit adds the matching odd multiple. `da` holds a's sliding-window digits
// and `p_odd` = P, 3P, 5P, ... covers them; b uses width 5.
template <class Multiple, std::size_t N>
Ge25519 strauss_vartime(const std::array<std::int8_t, 257>& da,
                        const std::array<Multiple, N>& p_odd, const Scalar32& b,
                        const Ge25519& q) {
  const auto db = slide(b, 5);
  const auto q_odd = F::odd_multiples(q);
  const int top = std::max(top_digit(da), top_digit(db));
  if (top < 0) return Ge25519::identity();

  GeP2 acc{Fe25519::zero(), Fe25519::one(), Fe25519::one()};
  GeP1P1 t;
  for (int i = top; i >= 0; --i) {
    t = F::dbl(acc);
    add_digit(t, da[static_cast<std::size_t>(i)], p_odd);
    add_digit(t, db[static_cast<std::size_t>(i)], q_odd);
    acc = F::to_p2(t);
  }
  return F::to_p3(t);
}

}  // namespace

Ge25519 Ge25519::double_scalar_mul_vartime(const Scalar32& a, const Ge25519& p,
                                           const Scalar32& b, const Ge25519& q) {
  return strauss_vartime(slide(a, 5), F::odd_multiples(p), b, q);
}

Ge25519 Ge25519::double_scalar_mul_base_vartime(const Scalar32& a, const Scalar32& b,
                                                const Ge25519& q) {
  return strauss_vartime(slide(a, 7), base_odd_multiples(), b, q);
}

Ge25519 Ge25519::scalar_mul_vartime(const Scalar32& scalar_le) const {
  const auto d = slide(scalar_le, 5);
  const int top = top_digit(d);
  if (top < 0) return identity();
  const auto odd = F::odd_multiples(*this);
  GeP2 acc{Fe25519::zero(), Fe25519::one(), Fe25519::one()};
  GeP1P1 t;
  for (int i = top; i >= 0; --i) {
    t = F::dbl(acc);
    add_digit(t, d[static_cast<std::size_t>(i)], odd);
    acc = F::to_p2(t);
  }
  return F::to_p3(t);
}

Ge25519 Ge25519::mul_by_cofactor() const {
  GeP1P1 r = F::dbl(F::to_p2(*this));
  r = F::dbl(F::to_p2(r));
  r = F::dbl(F::to_p2(r));
  return F::to_p3(r);
}

bool Ge25519::is_identity() const {
  // (0 : Z : Z) encodes the identity.
  return x_.is_zero() && y_ == z_;
}

bool Ge25519::operator==(const Ge25519& rhs) const {
  // Projective equality: X1 Z2 == X2 Z1 and Y1 Z2 == Y2 Z1.
  return (x_ * rhs.z_ == rhs.x_ * z_) && (y_ * rhs.z_ == rhs.y_ * z_);
}

Ge25519 ge_scalar_mul_base(const Scalar32& scalar_le) {
  const BaseTable& table = base_table();
  const auto e = radix16(scalar_le);
  Ge25519 h = Ge25519::identity();
  for (std::size_t i = 0; i < 64; ++i) {
    h = F::to_p3(F::madd(h, ct_select(table.rows[i], e[i])));
  }
  GePrecomp top = GePrecomp::identity();
  top.cmov(table.top, static_cast<u64>(e[64]));
  return F::to_p3(F::madd(h, top));
}

}  // namespace accountnet::crypto
