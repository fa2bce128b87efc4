// Worker-pool decorator for CryptoProvider::verify_batch.
//
// Wraps any backend and fans each verify_batch call across a shared
// util::WorkerPool in contiguous chunks. Jobs are independent and every
// worker writes only its own verdict slots, so the result is bit-identical
// to the wrapped backend for any pool size (the provider determinism
// contract in provider.hpp). The pool is persistent — one
// condition-variable wake per batch instead of thread creation, which is
// what makes global per-wave batches (see VerificationEngine::preload)
// worth accumulating. This decorator is the only place verify_batch runs on
// more than one thread.
//
// verify()/vrf_verify()/make_signer() pass straight through, so a
// PooledProvider can be handed anywhere a CryptoProvider is expected
// (e.g. core::Node construction) without behavioural change.
#pragma once

#include <memory>

#include "accountnet/crypto/provider.hpp"

namespace accountnet::util {
class WorkerPool;
}

namespace accountnet::crypto {

class PooledProvider final : public CryptoProvider {
 public:
  /// Borrows both the inner provider and the pool; the caller keeps them
  /// alive for the decorator's lifetime. pool == nullptr (or a pool of 1)
  /// degrades to the inner provider's own verify_batch.
  PooledProvider(const CryptoProvider& inner, util::WorkerPool* pool)
      : inner_(inner), pool_(pool) {}

  std::unique_ptr<Signer> make_signer(BytesView seed32) const override {
    return inner_.make_signer(seed32);
  }

  bool verify(const PublicKeyBytes& pk, BytesView msg, BytesView sig) const override {
    return inner_.verify(pk, msg, sig);
  }

  std::optional<std::array<std::uint8_t, 64>> vrf_verify(
      const PublicKeyBytes& pk, BytesView alpha, BytesView proof) const override {
    return inner_.vrf_verify(pk, alpha, proof);
  }

  void verify_batch(std::span<const VerifyJob> jobs,
                    std::span<VerifyVerdict> verdicts) const override;

  const char* name() const override { return inner_.name(); }

 private:
  const CryptoProvider& inner_;
  util::WorkerPool* pool_;
};

}  // namespace accountnet::crypto
