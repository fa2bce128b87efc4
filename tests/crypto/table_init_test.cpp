// The fixed-base and Strauss tables are built lazily on first use. This test
// makes that first use from two worker threads at once; ctest runs each test
// in its own process, so under ThreadSanitizer it checks the one-time
// initialisation itself (the wave drive first touches it at threads = 2).
#include <gtest/gtest.h>

#include <array>

#include "accountnet/crypto/ed25519.hpp"
#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/util/rng.hpp"
#include "accountnet/util/worker_pool.hpp"

namespace accountnet::crypto {
namespace {

TEST(CryptoTables, FirstUseFromTwoWorkersAtOnce) {
  Bytes seed(32);
  Rng rng(77);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  const Bytes msg = bytes_of("first touch");

  std::array<std::uint8_t, 32> scalar{};
  scalar[0] = 42;
  std::array<std::array<std::uint8_t, 32>, 2> base_mul{};
  std::array<bool, 2> verified{};
  std::array<std::array<std::uint8_t, 64>, 2> sigs{};

  util::WorkerPool pool(2);
  pool.run(2, [&](std::size_t i) {
    base_mul[i] = ge_scalar_mul_base(scalar).to_bytes();
    const auto kp = ed25519_keypair_from_seed(seed);
    sigs[i] = ed25519_sign(kp, msg);
    verified[i] = ed25519_verify(kp.public_key, msg, sigs[i]);
  });

  EXPECT_EQ(base_mul[0], base_mul[1]);
  EXPECT_EQ(base_mul[0], Ge25519::base_point().scalar_mul(scalar).to_bytes());
  EXPECT_EQ(sigs[0], sigs[1]);
  EXPECT_TRUE(verified[0]);
  EXPECT_TRUE(verified[1]);
}

}  // namespace
}  // namespace accountnet::crypto
