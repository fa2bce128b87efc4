// SHA-256 compression kernels behind crypto::Sha256 (internal).
//
// Sha256 picks one kernel per process, from CPUID, the first time it
// compresses a block: the x86 SHA extensions where the CPU has them, the
// portable loop otherwise. Both are exposed here so tests can run each one
// directly and compare them, and so benchmarks can report which one ran.
#pragma once

#include <cstdint>

namespace accountnet::crypto::detail {

/// A compression function: folds one 64-byte `block` into `state`.
using Sha256Compress = void (*)(std::uint32_t* state, const std::uint8_t* block);

/// Folds one 64-byte block into `state` (FIPS 180-4 §6.2.2), plain C++.
void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* block);

/// True when this CPU has the SHA extensions (and SSE4.1); always false off
/// x86-64.
bool sha256_shani_available();

/// The same compression on SHA-NI. Only call it when
/// sha256_shani_available() is true.
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* block);

/// The kernel Sha256 uses on this CPU: "sha-ni" or "portable".
const char* sha256_kernel_name();

}  // namespace accountnet::crypto::detail
