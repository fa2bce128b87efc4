#include "accountnet/crypto/pooled.hpp"

#include <algorithm>

#include "accountnet/util/ensure.hpp"
#include "accountnet/util/worker_pool.hpp"

namespace accountnet::crypto {

void PooledProvider::verify_batch(std::span<const VerifyJob> jobs,
                                  std::span<VerifyVerdict> verdicts) const {
  AN_ENSURE_MSG(jobs.size() == verdicts.size(), "verify_batch verdict slot mismatch");
  if (pool_ == nullptr || pool_->threads() <= 1 || jobs.size() < 2) {
    inner_.verify_batch(jobs, verdicts);
    return;
  }
  // Contiguous chunks, one per pool thread: chunk i covers
  // [i*chunk, min((i+1)*chunk, n)) and is resolved by the inner provider's
  // own (sequential) batch path, so slot i's verdict is written exactly once
  // by exactly one worker.
  const std::size_t n = jobs.size();
  const std::size_t parts = std::min(pool_->threads(), n);
  const std::size_t chunk = (n + parts - 1) / parts;
  pool_->run(parts, [&](std::size_t p) {
    const std::size_t lo = p * chunk;
    if (lo >= n) return;  // ceil-sized chunks can run out before the last part
    const std::size_t len = std::min(chunk, n - lo);
    inner_.verify_batch(jobs.subspan(lo, len), verdicts.subspan(lo, len));
  });
}

}  // namespace accountnet::crypto
