// Slow, obviously-correct reference arithmetic for differential tests of the
// edwards25519 core. These are the routines src/crypto used before the
// addition chains, signed-digit tables and limb-folding reduction replaced
// them; they live only here.
#pragma once

#include <array>
#include <cstdint>

#include "accountnet/crypto/fe25519.hpp"
#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/util/bytes.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto::reference {

/// x^e by MSB-first square-and-multiply; squares with x * x so it does not
/// depend on Fe25519::square().
inline Fe25519 pow(const Fe25519& x, const std::array<std::uint8_t, 32>& exponent_le) {
  Fe25519 acc = Fe25519::one();
  for (int byte = 31; byte >= 0; --byte) {
    for (int bit = 7; bit >= 0; --bit) {
      acc = acc * acc;
      if ((exponent_le[static_cast<std::size_t>(byte)] >> bit) & 1) acc = acc * x;
    }
  }
  return acc;
}

/// x^(p-2), p - 2 = 2^255 - 21.
inline Fe25519 invert(const Fe25519& x) {
  std::array<std::uint8_t, 32> e;
  e.fill(0xff);
  e[0] = 0xeb;
  e[31] = 0x7f;
  return pow(x, e);
}

/// x^((p-5)/8), (p - 5) / 8 = 2^252 - 3.
inline Fe25519 pow22523(const Fe25519& x) {
  std::array<std::uint8_t, 32> e;
  e.fill(0xff);
  e[0] = 0xfd;
  e[31] = 0x0f;
  return pow(x, e);
}

/// scalar * P by MSB-first double-and-add over all 256 bits.
inline Ge25519 scalar_mul(const Ge25519& p, const std::array<std::uint8_t, 32>& scalar_le) {
  Ge25519 acc = Ge25519::identity();
  for (int byte = 31; byte >= 0; --byte) {
    for (int bit = 7; bit >= 0; --bit) {
      acc = acc.dbl();
      if ((scalar_le[static_cast<std::size_t>(byte)] >> bit) & 1) acc = acc.add(p);
    }
  }
  return acc;
}

/// 512-bit little-endian integer as 16 x 32-bit limbs.
struct U512 {
  std::array<std::uint32_t, 16> w{};
};

inline U512 load_le(BytesView bytes) {
  AN_ENSURE_MSG(bytes.size() <= 64, "reference::load_le input too long");
  U512 out;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out.w[i / 4] |= static_cast<std::uint32_t>(bytes[i]) << (8 * (i % 4));
  }
  return out;
}

inline bool geq(const U512& a, const U512& b) {
  for (int i = 15; i >= 0; --i) {
    const auto k = static_cast<std::size_t>(i);
    if (a.w[k] != b.w[k]) return a.w[k] > b.w[k];
  }
  return true;
}

/// a mod L by shift-subtract long division, one bit at a time.
inline std::array<std::uint8_t, 32> mod_order(U512 r) {
  U512 m;  // L << 259, then shifted right once per step
  m.w = {0x5cf5d3edu, 0x5812631au, 0xa2f79cd6u, 0x14def9deu, 0, 0, 0, 0x10000000u};
  for (int i = 0; i < 259; ++i) {
    for (int j = 15; j >= 0; --j) {
      const auto k = static_cast<std::size_t>(j);
      m.w[k] = (m.w[k] << 1) | (j > 0 ? m.w[k - 1] >> 31 : 0);
    }
  }
  for (int i = 0; i <= 259; ++i) {
    if (geq(r, m)) {
      std::uint64_t borrow = 0;
      for (std::size_t k = 0; k < 16; ++k) {
        const std::uint64_t rhs = std::uint64_t{m.w[k]} + borrow;
        borrow = std::uint64_t{r.w[k]} < rhs ? 1 : 0;
        r.w[k] = static_cast<std::uint32_t>(std::uint64_t{r.w[k]} - rhs);
      }
    }
    for (std::size_t k = 0; k < 16; ++k) {
      m.w[k] = (m.w[k] >> 1) | (k + 1 < 16 ? m.w[k + 1] << 31 : 0);
    }
  }
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(r.w[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

/// reduce(le_bytes) for inputs of up to 64 bytes.
inline std::array<std::uint8_t, 32> reduce(BytesView le_bytes) {
  return mod_order(load_le(le_bytes));
}

/// (a * b + c) mod L by schoolbook multiplication and long division.
inline std::array<std::uint8_t, 32> muladd(const Scalar& a, const Scalar& b,
                                           const Scalar& c) {
  const U512 x = load_le(a.bytes()), y = load_le(b.bytes()), z = load_le(c.bytes());
  std::uint64_t prod[16] = {};  // 32-bit digits of x * y
  for (std::size_t i = 0; i < 8; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      const std::uint64_t cur = std::uint64_t{x.w[i]} * y.w[j] + prod[i + j] + carry;
      prod[i + j] = cur & 0xffffffffULL;
      carry = cur >> 32;
    }
    prod[i + 8] = carry;
  }
  U512 sum;
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint64_t cur = prod[i] + z.w[i] + carry;
    sum.w[i] = static_cast<std::uint32_t>(cur);
    carry = cur >> 32;
  }
  return mod_order(sum);
}

}  // namespace accountnet::crypto::reference
