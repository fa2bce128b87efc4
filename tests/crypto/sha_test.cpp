// FIPS 180-4 known-answer tests plus streaming-interface checks, and the
// SHA-256 compression kernels run one by one and against each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "accountnet/crypto/detail/sha256_kernels.hpp"
#include "accountnet/crypto/sha256.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/util/bytes.hpp"
#include "accountnet/util/rng.hpp"
#include "accountnet/util/worker_pool.hpp"

namespace accountnet::crypto {
namespace {

Bytes digest_bytes(const Sha256::Digest& d) { return Bytes(d.begin(), d.end()); }
Bytes digest_bytes(const Sha512::Digest& d) { return Bytes(d.begin(), d.end()); }

TEST(Sha256, EmptyVector) {
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(Bytes{}))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(bytes_of("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(
                bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAVector) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(digest_bytes(h.finish())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const Bytes msg = bytes_of("The quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(BytesView(msg.data(), split));
    h.update(BytesView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "split=" << split;
  }
}

// Exercise every padding boundary around the block size.
class Sha256Lengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256Lengths, ChunkedEqualsOneShot) {
  const std::size_t n = GetParam();
  Bytes msg(n);
  for (std::size_t i = 0; i < n; ++i) msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
  Sha256 chunked;
  for (std::size_t i = 0; i < n; i += 7) {
    chunked.update(BytesView(msg.data() + i, std::min<std::size_t>(7, n - i)));
  }
  EXPECT_EQ(chunked.finish(), Sha256::hash(msg));
}

INSTANTIATE_TEST_SUITE_P(PaddingBoundaries, Sha256Lengths,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 127,
                                           128, 129, 1000));

// --- SHA-256 kernels -------------------------------------------------------

using Compress = detail::Sha256Compress;

struct KernelCase {
  const char* name;
  Compress compress;
  bool needs_shani;
};

// FIPS 180-4 padding and output around one kernel, independent of Sha256.
Sha256::Digest hash_with(Compress compress, BytesView msg) {
  std::uint32_t state[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
                            0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  for (std::size_t off = 0; off < padded.size(); off += 64) compress(state, &padded[off]);
  Sha256::Digest out;
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

std::string hex_with(Compress compress, const Bytes& msg) {
  return to_hex(digest_bytes(hash_with(compress, msg)));
}

constexpr const char* kNoShaNi =
    "this CPU lacks the x86 SHA extensions (CPUID sha_ni), so only the portable "
    "SHA-256 kernel can run here";

class Sha256Kernel : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (GetParam().needs_shani && !detail::sha256_shani_available()) {
      GTEST_SKIP() << kNoShaNi;
    }
  }
};

TEST_P(Sha256Kernel, FipsVectors) {
  const Compress k = GetParam().compress;
  EXPECT_EQ(hex_with(k, Bytes{}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_with(k, bytes_of("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_with(k, bytes_of(
                            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hex_with(k, Bytes(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256Kernel,
    ::testing::Values(KernelCase{"portable", &detail::sha256_compress_portable, false},
                      KernelCase{"shani", &detail::sha256_compress_shani, true}),
    [](const ::testing::TestParamInfo<KernelCase>& info) { return info.param.name; });

TEST(Sha256Kernels, ShaNiMatchesPortableOnRandomStatesAndBlocks) {
  if (!detail::sha256_shani_available()) GTEST_SKIP() << kNoShaNi;
  Rng rng(0x5a256);
  for (int trial = 0; trial < 20000; ++trial) {
    std::uint32_t portable[8], shani[8];
    std::uint8_t block[64];
    for (auto& w : portable) w = static_cast<std::uint32_t>(rng.next_u64());
    for (auto& b : block) b = static_cast<std::uint8_t>(rng.next_u64());
    std::copy(std::begin(portable), std::end(portable), std::begin(shani));
    detail::sha256_compress_portable(portable, block);
    detail::sha256_compress_shani(shani, block);
    ASSERT_TRUE(std::equal(std::begin(portable), std::end(portable), std::begin(shani)))
        << "trial " << trial;
  }
}

TEST(Sha256Kernels, ShaNiMatchesPortableOnEveryLengthTo300) {
  if (!detail::sha256_shani_available()) GTEST_SKIP() << kNoShaNi;
  Rng rng(300);
  for (std::size_t n = 0; n <= 300; ++n) {
    Bytes msg(n);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto portable = hash_with(&detail::sha256_compress_portable, msg);
    ASSERT_EQ(hash_with(&detail::sha256_compress_shani, msg), portable) << "length " << n;
    ASSERT_EQ(Sha256::hash(msg), portable) << "length " << n;
  }
}

TEST(Sha256Kernels, DispatchFollowsCpuid) {
  EXPECT_STREQ(detail::sha256_kernel_name(),
               detail::sha256_shani_available() ? "sha-ni" : "portable");
}

// The kernel is chosen on the first compression; two threads hashing their
// first message together must agree and, under TSan, report no race.
TEST(Sha256Kernels, FirstHashFromTwoWorkersAtOnce) {
  const Bytes msg = bytes_of("abc");
  std::array<Sha256::Digest, 2> got{};
  std::atomic<int> arrived{0};
  util::WorkerPool pool(2);
  pool.run(2, [&](std::size_t i) {
    // Each item waits for the other, so the two first hashes overlap.
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
    got[i] = Sha256::hash(msg);
  });
  EXPECT_EQ(to_hex(digest_bytes(got[0])),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(got[1], got[0]);
}

TEST(Sha512, EmptyVector) {
  EXPECT_EQ(to_hex(digest_bytes(Sha512::hash(Bytes{}))),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, AbcVector) {
  EXPECT_EQ(to_hex(digest_bytes(Sha512::hash(bytes_of("abc")))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockVector) {
  EXPECT_EQ(
      to_hex(digest_bytes(Sha512::hash(bytes_of(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")))),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionAVector) {
  Sha512 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(digest_bytes(h.finish())),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

class Sha512Lengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha512Lengths, ChunkedEqualsOneShot) {
  const std::size_t n = GetParam();
  Bytes msg(n);
  for (std::size_t i = 0; i < n; ++i) msg[i] = static_cast<std::uint8_t>(i * 13 + 3);
  Sha512 chunked;
  for (std::size_t i = 0; i < n; i += 11) {
    chunked.update(BytesView(msg.data() + i, std::min<std::size_t>(11, n - i)));
  }
  EXPECT_EQ(chunked.finish(), Sha512::hash(msg));
}

INSTANTIATE_TEST_SUITE_P(PaddingBoundaries, Sha512Lengths,
                         ::testing::Values(0, 1, 110, 111, 112, 113, 127, 128, 129, 239,
                                           255, 256, 257, 2000));

}  // namespace
}  // namespace accountnet::crypto
