// Timing decorator: forwards every primitive unchanged, counts calls
// unconditionally, and feeds the six crypto timers only when enabled.
#include <gtest/gtest.h>

#include "accountnet/crypto/timed.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {
namespace {

Bytes seed32(std::uint8_t fill) { return Bytes(32, fill); }

TEST(TimedCrypto, ForwardsResultsUnchanged) {
  obs::MetricsRegistry metrics;
  const auto plain = make_fast_crypto();
  const auto timed = make_timed_crypto(make_fast_crypto(), metrics);
  EXPECT_STREQ(timed->name(), plain->name());

  const Bytes seed = seed32(0xab);
  const auto ps = plain->make_signer(seed);
  const auto ts = timed->make_signer(seed);
  EXPECT_EQ(ps->public_key(), ts->public_key());

  const Bytes msg = bytes_of("timed crypto test message");
  const Bytes sig = ts->sign(msg);
  EXPECT_EQ(sig, ps->sign(msg));
  EXPECT_TRUE(timed->verify(ts->public_key(), msg, sig));
  EXPECT_FALSE(timed->verify(ts->public_key(), bytes_of("other"), sig));

  const Bytes proof = ts->vrf_prove(msg);
  EXPECT_EQ(ts->vrf_output(msg), ps->vrf_output(msg));
  const auto beta = timed->vrf_verify(ts->public_key(), msg, proof);
  ASSERT_TRUE(beta.has_value());
  EXPECT_EQ(*beta, ts->vrf_output(msg));
}

TEST(TimedCrypto, CallCountersTickEvenWithTimingOff) {
  obs::MetricsRegistry metrics;
  const auto timed = make_timed_crypto(make_fast_crypto(), metrics);
  const auto signer = timed->make_signer(seed32(1));
  const Bytes msg = bytes_of("m");
  const Bytes sig = signer->sign(msg);
  (void)timed->verify(signer->public_key(), msg, sig);
  (void)signer->vrf_prove(msg);

  const auto count_of = [&](const char* name) {
    const auto id = metrics.find(name);
    return id ? metrics.counter_value(*id) : std::uint64_t{0};
  };
  EXPECT_EQ(count_of("crypto.keygen.calls"), 1u);
  EXPECT_EQ(count_of("crypto.sign.calls"), 1u);
  EXPECT_EQ(count_of("crypto.verify.calls"), 1u);
  EXPECT_EQ(count_of("crypto.vrf_prove.calls"), 1u);
  // Timing off: no timer observations recorded.
  EXPECT_EQ(metrics.timer_count(metrics.timer("crypto.sign")), 0u);
}

TEST(TimedCrypto, EvaluationCountsOnceAsAProof) {
  for (const bool real : {false, true}) {
    obs::MetricsRegistry metrics;
    metrics.set_timing_enabled(true);
    const auto timed =
        make_timed_crypto(real ? make_real_crypto() : make_fast_crypto(), metrics);
    const auto signer = timed->make_signer(seed32(3));
    (void)signer->vrf_evaluate(bytes_of("draw attempt"));
    EXPECT_EQ(metrics.counter_value(*metrics.find("crypto.vrf_prove.calls")), 1u) << real;
    EXPECT_EQ(metrics.counter_value(*metrics.find("crypto.vrf_output.calls")), 0u) << real;
    EXPECT_EQ(metrics.timer_count(metrics.timer("crypto.vrf_prove")), 1u) << real;
    EXPECT_EQ(metrics.timer_count(metrics.timer("crypto.vrf_output")), 0u) << real;
  }
}

TEST(TimedCrypto, TimersRecordWhenEnabled) {
  obs::MetricsRegistry metrics;
  metrics.set_timing_enabled(true);
  const auto timed = make_timed_crypto(make_fast_crypto(), metrics);
  const auto signer = timed->make_signer(seed32(2));
  const Bytes msg = bytes_of("m");
  for (int i = 0; i < 3; ++i) (void)signer->sign(msg);
  EXPECT_EQ(metrics.timer_count(metrics.timer("crypto.sign")), 3u);
  EXPECT_EQ(metrics.timer_count(metrics.timer("crypto.keygen")), 1u);
}

TEST(TimedCrypto, NullInnerRejected) {
  obs::MetricsRegistry metrics;
  EXPECT_THROW(make_timed_crypto(nullptr, metrics), EnsureError);
}

}  // namespace
}  // namespace accountnet::crypto
