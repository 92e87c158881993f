// CRC32C (Castagnoli) — the checksum the scrubber uses to detect silent
// corruption in sealed checkpoint buffers. Portable slicing-by-8: eight
// 1 KiB tables built at compile time, several times the byte-at-a-time
// rate. The scrubber runs at low priority, but one chunk CRC is exactly
// what a commit waits for when it arrives mid-pass (scrubber.hpp), so its
// speed bounds the commit-exclusion overhead. It stays plain C++ all the
// same: the SSE4.2 instruction would tie the build to x86 for a
// background thread that is idle almost all of the time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace skt::util {

/// CRC32C of `bytes`, seeded with `seed` (pass a previous result to chain
/// chunks). The empty span returns the seed unchanged.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> bytes,
                                   std::uint32_t seed = 0);

}  // namespace skt::util
