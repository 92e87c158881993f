// The benchmark's output checks, kept apart from the program they judge.
// Each returns true when the output is correct. selftest.hpp feeds
// every one of them a deliberately wrong input.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "bench.hpp"

namespace perfbench::checks {

/// Rank `rank`'s buffer equals, word for word, the benchmark's own
/// regeneration of it: block b as step writer[b] wrote it. Buffers are
/// whole words long (data_bytes is a multiple of 8).
inline bool buffer_regenerates(std::span<const std::byte> data, std::uint64_t seed, int rank,
                               const std::vector<std::uint64_t>& writer) {
  constexpr std::size_t kWord = sizeof(std::uint64_t);
  if (writer.size() != (data.size() + kBlockBytes - 1) / kBlockBytes) return false;
  for (std::size_t b = 0; b < writer.size(); ++b) {
    const std::uint64_t key = step_key(seed, rank, writer[b]);
    const auto [first, last] = block_range(b, data.size());
    for (std::size_t off = first; off + kWord <= last; off += kWord) {
      std::uint64_t word = 0;
      std::memcpy(&word, data.data() + off, kWord);
      if (word != content_word(key, off / kWord)) return false;
    }
  }
  return true;
}

/// HPL's acceptance threshold on the scaled residual.
constexpr double kHplThreshold = 16.0;

/// A fault-tolerant solve passes HPL's threshold and reproduces, bit for
/// bit, the residual of a plain solve of the same system.
inline bool residual_ok(double scaled, double plain_scaled) {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::memcpy(&a, &scaled, sizeof a);
  std::memcpy(&b, &plain_scaled, sizeof b);
  return scaled < kHplThreshold && a == b;
}

/// The restored step lies in [lowest, highest]: for sync commits both are
/// the last step whose commit() returned; for async commits, the last
/// step whose ticket completed and the last step staged.
inline bool restored_step_ok(std::uint64_t restored, std::uint64_t lowest,
                             std::uint64_t highest) {
  return lowest <= restored && restored <= highest;
}

/// A commit moved at least the bytes the loop marked dirty.
inline bool dirty_bytes_ok(std::size_t dirty_bytes, std::size_t marked_bytes) {
  return dirty_bytes >= marked_bytes;
}

/// A node-loss job completed after exactly one relaunch.
inline bool one_relaunch(bool completed, int restarts) { return completed && restarts == 1; }

}  // namespace perfbench::checks
