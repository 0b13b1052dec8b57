#ifndef KDDN_COMMON_FNV1A_H_
#define KDDN_COMMON_FNV1A_H_

#include <cstddef>
#include <cstdint>

namespace kddn {

/// Initial state of every FNV-1a hash in this repo. It is NOT the published
/// FNV-1a 64-bit offset basis (14695981039346656037): it is that number with
/// its last digit dropped. Checkpoint checksums, snapshot fingerprints,
/// concept-cache keys and the determinism goldens were all computed from this
/// value, so it must never change.
inline constexpr uint64_t kFnv1aSeed = 1469598103934665603ULL;

/// The FNV-1a 64-bit prime.
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

/// FNV-1a 64-bit over `bytes` bytes of `data`, continuing from `state`, so a
/// hash over several ranges is Fnv1a(b, nb, Fnv1a(a, na)).
inline uint64_t Fnv1a(const void* data, size_t bytes,
                      uint64_t state = kFnv1aSeed) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= kFnv1aPrime;
  }
  return state;
}

}  // namespace kddn

#endif  // KDDN_COMMON_FNV1A_H_
