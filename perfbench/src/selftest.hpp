// Shows that every output check can fail: each is fed a correct input it
// must accept and a deliberately wrong one it must reject. Run at the end
// of every benchmark run.
#pragma once

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "checks.hpp"

namespace perfbench {

/// Names of the cases where a check gave the wrong verdict (empty = all
/// checks accept good input and reject bad input).
inline std::vector<std::string> check_self_test() {
  std::vector<std::string> wrong;
  const auto expect = [&wrong](bool verdict, bool want, const char* name) {
    if (verdict != want) wrong.emplace_back(name);
  };
  constexpr std::uint64_t kSeed = 7;
  constexpr int kRank = 2;

  // A four-block buffer whose blocks were last written at steps 0, 3, 3, 1.
  std::vector<std::byte> buffer(4 * kBlockBytes);
  const std::vector<std::uint64_t> writers = {0, 3, 3, 1};
  for (std::size_t b = 0; b < writers.size(); ++b) {
    write_block(buffer, step_key(kSeed, kRank, writers[b]), b);
  }
  expect(checks::buffer_regenerates(buffer, kSeed, kRank, writers), true, "buffer: intact");
  std::vector<std::byte> flipped = buffer;
  flipped[kBlockBytes + 4097] ^= std::byte{0x10};
  expect(checks::buffer_regenerates(flipped, kSeed, kRank, writers), false,
         "buffer: one flipped byte");
  expect(checks::buffer_regenerates(buffer, kSeed, kRank, {0, 2, 2, 1}), false,
         "buffer: content one step too old");

  const double residual = 0.0012539484864524471;
  expect(checks::residual_ok(residual, residual), true, "residual: identical");
  expect(checks::residual_ok(std::nextafter(residual, 1.0), residual), false,
         "residual: one ulp off");
  expect(checks::residual_ok(16.0, 16.0), false, "residual: at HPL's threshold");

  expect(checks::restored_step_ok(39, 39, 39), true, "restored step: sync, last committed");
  expect(checks::restored_step_ok(38, 39, 39), false, "restored step: one too old");
  expect(checks::restored_step_ok(38, 38, 39), true, "restored step: async, in window");
  expect(checks::restored_step_ok(40, 38, 39), false, "restored step: never staged");

  expect(checks::dirty_bytes_ok(1 << 20, 1 << 20), true, "dirty bytes: equal to marked");
  expect(checks::dirty_bytes_ok((1 << 20) - 1, 1 << 20), false, "dirty bytes: below marked");

  expect(checks::one_relaunch(true, 1), true, "relaunch: exactly one");
  expect(checks::one_relaunch(true, 0), false, "relaunch: none");
  expect(checks::one_relaunch(true, 2), false, "relaunch: two");
  expect(checks::one_relaunch(false, 1), false, "relaunch: job did not complete");
  return wrong;
}

}  // namespace perfbench
