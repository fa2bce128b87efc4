#include "accountnet/crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "accountnet/crypto/detail/sha256_kernels.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu, 0x59f111f1u,
    0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
    0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u, 0xe49b69c1u, 0xefbe4786u,
    0x0fc19dc6u, 0x240ca1ccu, 0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
    0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
    0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u, 0xa2bfe8a1u, 0xa81a664bu,
    0xc24b8b70u, 0xc76c51a3u, 0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
    0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au,
    0x5b9cca4fu, 0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

#define AN_SHANI __attribute__((target("sha,sse4.1")))

// Message words W[4i..4i+3]: big-endian, so reverse the bytes of each lane.
AN_SHANI inline __m128i load_words(const std::uint8_t* block, int i) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)), bswap);
}

// Four rounds with message words w = W[4i..4i+3]. The SHA-NI state lives in
// two registers, named by their 32-bit lanes from high to low: abef holds
// A,B,E,F and cdgh holds C,D,G,H.
AN_SHANI inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w, int i) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * i)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// W[t..t+3] from m0..m3 = W[t-16..t-1], four words per register.
AN_SHANI inline __m128i schedule(__m128i m0, __m128i m1, __m128i m2, __m128i m3) {
  const __m128i x = _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4));
  return _mm_sha256msg2_epu32(x, m3);
}

#endif

// Chosen once per process; a function-local static is initialised exactly
// once even when several threads hash their first message at the same time.
detail::Sha256Compress chosen_kernel() {
  static const detail::Sha256Compress kernel = detail::sha256_shani_available()
                                     ? &detail::sha256_compress_shani
                                     : &detail::sha256_compress_portable;
  return kernel;
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)

bool sha256_shani_available() {
  __builtin_cpu_init();  // safe even if called before static constructors
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

AN_SHANI void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* block) {
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i m0 = load_words(block, 0), m1 = load_words(block, 1);
  __m128i m2 = load_words(block, 2), m3 = load_words(block, 3);
  rounds4(abef, cdgh, m0, 0);
  rounds4(abef, cdgh, m1, 1);
  rounds4(abef, cdgh, m2, 2);
  rounds4(abef, cdgh, m3, 3);
  for (int i = 4; i < 16; i += 4) {
    m0 = schedule(m0, m1, m2, m3);
    rounds4(abef, cdgh, m0, i);
    m1 = schedule(m1, m2, m3, m0);
    rounds4(abef, cdgh, m1, i + 1);
    m2 = schedule(m2, m3, m0, m1);
    rounds4(abef, cdgh, m2, i + 2);
    m3 = schedule(m3, m0, m1, m2);
    rounds4(abef, cdgh, m3, i + 3);
  }
  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#undef AN_SHANI

#else

bool sha256_shani_available() { return false; }

void sha256_compress_shani(std::uint32_t*, const std::uint8_t*) {
  AN_ENSURE_MSG(false, "SHA-NI kernel called on a CPU without the SHA extensions");
}

#endif

const char* sha256_kernel_name() {
  return chosen_kernel() == &sha256_compress_shani ? "sha-ni" : "portable";
}

}  // namespace detail

Sha256::Sha256() {
  std::memcpy(state_.data(), kInit, sizeof(kInit));
}

void Sha256::process_block(const std::uint8_t* block) {
  chosen_kernel()(state_.data(), block);
}

void Sha256::update(BytesView data) {
  AN_ENSURE_MSG(!finished_, "Sha256 reused after finish()");
  if (data.empty()) return;  // empty spans may carry a null data() pointer
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == buffer_.size()) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha256::Digest Sha256::finish() {
  AN_ENSURE_MSG(!finished_, "Sha256 reused after finish()");
  finished_ = true;
  const std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[72] = {0x80};
  // Pad to 56 mod 64, then append the 64-bit big-endian length.
  const std::size_t pad_len = 1 + ((119 - (total_len_ % 64)) % 64);
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  finished_ = false;  // allow the update() calls below
  update(BytesView(pad, pad_len + 8));
  finished_ = true;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256::Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace accountnet::crypto
