// The layer probe of a traced run (probe.cpp) and the SKT-HPL pieces it
// shares with the hpl_fail workload (hpl_job.cpp).
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "hpl/driver.hpp"
#include "jobs.hpp"

namespace perfbench {

// ---- hpl_fail geometry ---------------------------------------------------

constexpr std::int64_t kHplN = 3072;
constexpr std::int64_t kHplNb = 64;
constexpr int kHplP = 2;
constexpr int kHplQ = 2;
constexpr std::int64_t kHplCkptEvery = 4;  ///< panels between checkpoints
constexpr int kHplKillPanel = 24;          ///< rank 1's node dies at this panel

skt::hpl::HplConfig hpl_config(std::uint64_t seed);

/// Bytes of one rank's checkpointed matrix block (SKT-HPL's data_bytes).
std::size_t hpl_data_bytes();

struct PlainSolve {
  bool ok = false;
  double seconds = 0;          ///< Runtime::run around hpl::run_hpl
  double scaled_residual = 0;  ///< rank 0's (verify() is collective)
};

/// hpl::run_hpl on a fresh 2x2 cluster, no checkpointing.
PlainSolve plain_solve(const skt::hpl::HplConfig& config);

/// One hpl_fail job: SKT-HPL with rank 1's node powered off at its 24th
/// panel and one relaunch on a spare. Checks its outputs into `result`
/// and its figures into `samples`; returns false when the job did not
/// produce the figures.
bool run_hpl_job(const skt::hpl::HplConfig& config, double plain_scaled_residual, int job,
                 RunResult& result, Samples& samples);

// ---- the probe -----------------------------------------------------------

/// Time the public calls of each layer at `geometry` (its sessions always
/// run a 2 ms scrubber) and append every
/// per-layer metric to `result`, with the relaunch figures of the traced
/// jobs and the tracing overhead (traced vs untraced solve_s);
/// then write the run's spans to opts.out_dir.
void run_layer_probe(const Geometry& geometry, const Options& opts, const Samples& untraced,
                     const Samples& traced, RunResult& result);

}  // namespace perfbench
