// Micro-benchmarks for the crypto substrate (google-benchmark): hashing
// throughput, Ed25519, ECVRF, and the Fast backend used by large sims.
#include <benchmark/benchmark.h>

#include "accountnet/crypto/detail/sha256_kernels.hpp"
#include "accountnet/crypto/ed25519.hpp"
#include "accountnet/crypto/provider.hpp"
#include "accountnet/crypto/sha256.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/crypto/vrf.hpp"
#include "accountnet/util/rng.hpp"

namespace {

using namespace accountnet;
using namespace accountnet::crypto;

Bytes make_payload(std::size_t size) {
  Bytes data(size);
  Rng rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  return data;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha512(benchmark::State& state) {
  const Bytes data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Ed25519KeyGen(benchmark::State& state) {
  const Bytes seed = make_payload(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_keypair_from_seed(seed));
  }
}
BENCHMARK(BM_Ed25519KeyGen);

void BM_Ed25519Sign(benchmark::State& state) {
  const auto kp = ed25519_keypair_from_seed(make_payload(32));
  const Bytes msg = make_payload(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_sign(kp, msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  const auto kp = ed25519_keypair_from_seed(make_payload(32));
  const Bytes msg = make_payload(256);
  const auto sig = ed25519_sign(kp, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_verify(kp.public_key, msg, sig));
  }
}
BENCHMARK(BM_Ed25519Verify);

void BM_VrfProve(benchmark::State& state) {
  const auto kp = ed25519_keypair_from_seed(make_payload(32));
  const Bytes alpha = make_payload(40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf_prove(kp, alpha));
  }
}
BENCHMARK(BM_VrfProve);

// One draw attempt: the proof and its output from one evaluation.
void BM_VrfEvaluate(benchmark::State& state) {
  const auto kp = ed25519_keypair_from_seed(make_payload(32));
  const Bytes alpha = make_payload(40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf_evaluate(kp, alpha));
  }
}
BENCHMARK(BM_VrfEvaluate);

void BM_VrfVerify(benchmark::State& state) {
  const auto kp = ed25519_keypair_from_seed(make_payload(32));
  const Bytes alpha = make_payload(40);
  const auto proof = vrf_prove(kp, alpha);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf_verify(kp.public_key, alpha, proof));
  }
}
BENCHMARK(BM_VrfVerify);

void BM_FastBackendVrf(benchmark::State& state) {
  const auto provider = make_fast_crypto();
  const auto signer = provider->make_signer(make_payload(32));
  const Bytes alpha = make_payload(40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->vrf_output(alpha));
  }
}
BENCHMARK(BM_FastBackendVrf);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Which SHA-256 compression kernel ran ("sha-ni" or "portable"): the
  // BM_Sha256 and fast-backend rows depend on it.
  benchmark::AddCustomContext("sha256_kernel",
                              accountnet::crypto::detail::sha256_kernel_name());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
