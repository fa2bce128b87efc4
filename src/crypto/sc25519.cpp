#include "accountnet/crypto/sc25519.hpp"

#include <algorithm>
#include <cstring>

#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

namespace {

using i64 = std::int64_t;

// Scalars are worked on as signed 21-bit limbs (radix 2^21), so limb 12
// weighs exactly 2^252 and every product of two limbs fits an int64 with
// room for the column sums.
constexpr i64 kRadix = i64{1} << 21;

// 2^252 = -(L - 2^252) (mod L), written as six signed radix-2^21 digits.
// Folding limb i >= 12 adds s[i] * kFold[k] into s[i - 12 + k].
constexpr i64 kFold[6] = {666643, 470296, 654183, -997805, 136657, -683901};

// L, little-endian, for the canonical-range check.
constexpr std::array<std::uint8_t, 32> kOrderLe = {
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
    0xa2, 0xde, 0xf9, 0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};

void fold(i64* s, int i) {
  for (int k = 0; k < 6; ++k) s[i - 12 + k] += s[i] * kFold[k];
  s[i] = 0;
}

// Moves s[i]'s excess into s[i + 1], leaving s[i] in [-2^20, 2^20).
void carry_round(i64* s, int i) {
  const i64 c = (s[i] + (kRadix >> 1)) >> 21;
  s[i + 1] += c;
  s[i] -= c * kRadix;
}

// Moves s[i]'s excess into s[i + 1], leaving s[i] in [0, 2^21).
void carry_floor(i64* s, int i) {
  const i64 c = s[i] >> 21;
  s[i + 1] += c;
  s[i] -= c * kRadix;
}

// Splits an n-byte little-endian integer into `count` 21-bit limbs; the last
// limb takes every remaining bit.
void load_limbs(const std::uint8_t* in, std::size_t n, i64* out, int count) {
  for (int i = 0; i < count; ++i) {
    const std::size_t bit = 21 * static_cast<std::size_t>(i);
    std::uint64_t v = 0;
    for (std::size_t k = 0; k < 8 && bit / 8 + k < n; ++k) {
      v |= std::uint64_t{in[bit / 8 + k]} << (8 * k);
    }
    const std::size_t width = i + 1 == count ? 8 * n - bit : 21;
    out[i] = static_cast<i64>((v >> (bit % 8)) & ((std::uint64_t{1} << width) - 1));
  }
}

// Reduces sum(s[i] * 2^(21 i)) mod L and writes the canonical encoding. The
// limbs must be within a few bits of 2^21 (freshly loaded, or carried after
// a product), and s[23] at most 2^29. This is ref10's sc_reduce schedule:
// two rounds of folding the top six limbs, carries between them, and two
// final folds of the single overflow limb; every input runs the same steps.
std::array<std::uint8_t, 32> reduce_limbs(i64 s[24]) {
  for (int i = 23; i >= 18; --i) fold(s, i);
  for (int i = 6; i <= 16; i += 2) carry_round(s, i);
  for (int i = 7; i <= 15; i += 2) carry_round(s, i);
  for (int i = 17; i >= 12; --i) fold(s, i);
  for (int i = 0; i <= 10; i += 2) carry_round(s, i);
  for (int i = 1; i <= 11; i += 2) carry_round(s, i);
  // The value is now within 2^251 of zero plus s[12] * 2^252, so two folds
  // of s[12] with floor carries land it in [0, L).
  fold(s, 12);
  for (int i = 0; i <= 11; ++i) carry_floor(s, i);
  fold(s, 12);
  for (int i = 0; i <= 10; ++i) carry_floor(s, i);

  std::uint64_t w[4] = {0, 0, 0, 0};
  for (int i = 0; i < 12; ++i) {
    const auto limb = static_cast<std::uint64_t>(s[i]);
    const int bit = 21 * i;
    const int word = bit / 64, off = bit % 64;
    w[word] |= limb << off;
    if (off > 64 - 21) w[word + 1] |= limb >> (64 - off);
  }
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(w[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

}  // namespace

Scalar Scalar::reduce(BytesView le_bytes) {
  AN_ENSURE_MSG(le_bytes.size() <= 64, "Scalar::reduce input too long");
  std::uint8_t wide[64] = {};
  std::copy(le_bytes.begin(), le_bytes.end(), wide);
  i64 limbs[24] = {};
  load_limbs(wide, 64, limbs, 24);
  Scalar s;
  s.bytes_ = reduce_limbs(limbs);
  return s;
}

bool Scalar::from_canonical(BytesView b32, Scalar& out) {
  if (b32.size() != 32) return false;
  // Public inputs only (signature S, proof s): an early-exit compare is fine.
  for (int i = 31; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    if (b32[idx] != kOrderLe[idx]) {
      if (b32[idx] > kOrderLe[idx]) return false;
      break;
    }
    if (i == 0) return false;  // equal to L
  }
  std::memcpy(out.bytes_.data(), b32.data(), 32);
  return true;
}

Scalar Scalar::from_u64(std::uint64_t v) {
  Scalar s;
  for (int i = 0; i < 8; ++i) s.bytes_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  return s;
}

Scalar Scalar::add(const Scalar& rhs) const {
  return muladd(*this, from_u64(1), rhs);
}

Scalar Scalar::mul(const Scalar& rhs) const {
  return muladd(*this, rhs, Scalar());
}

Scalar Scalar::muladd(const Scalar& a, const Scalar& b, const Scalar& c) {
  i64 al[12] = {}, bl[12] = {}, s[24] = {};
  load_limbs(a.bytes_.data(), 32, al, 12);
  load_limbs(b.bytes_.data(), 32, bl, 12);
  load_limbs(c.bytes_.data(), 32, s, 12);
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) s[i + j] += al[i] * bl[j];
  }
  for (int i = 0; i <= 22; i += 2) carry_round(s, i);
  for (int i = 1; i <= 21; i += 2) carry_round(s, i);
  Scalar out;
  out.bytes_ = reduce_limbs(s);
  return out;
}

bool Scalar::is_zero() const {
  std::uint8_t acc = 0;
  for (auto b : bytes_) acc |= b;
  return acc == 0;
}

}  // namespace accountnet::crypto
