// hpl_fail: SKT-HPL (hpl::run_skt_hpl) with self-checkpoint, sync XOR
// commits and one group of 4 on a 2x2 grid; rank 1's node is powered off
// at its 24th panel and the launcher relaunches on a spare. The solution
// must pass HPL's threshold and reproduce the plain solve's residual bit
// for bit.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "hpl/dist_matrix.hpp"
#include "hpl/skt_hpl.hpp"
#include "jobs.hpp"
#include "probe.hpp"

namespace perfbench {

using namespace skt;

namespace {
static_assert(kHplP * kHplQ == kRanks);
constexpr int kKilledRank = 1;
}  // namespace

hpl::HplConfig hpl_config(std::uint64_t seed) {
  return {.n = kHplN, .nb = kHplNb, .grid_p = kHplP, .grid_q = kHplQ, .seed = seed};
}

std::size_t hpl_data_bytes() {
  return static_cast<std::size_t>(
             hpl::DistMatrix::max_local_elements(kHplN, kHplN + 1, kHplNb, kHplP, kHplQ)) *
         sizeof(double);
}

namespace {
/// SKT-HPL's Session: the local matrix block, and its user state (magic,
/// next panel, n, nb, seed); XOR, sync, no scrubber.
Geometry hpl_geometry() {
  return {.pattern = {.data_bytes = hpl_data_bytes()}, .user_bytes = 5 * sizeof(std::int64_t)};
}
}  // namespace

PlainSolve plain_solve(const hpl::HplConfig& config) {
  sim::Cluster cluster({.num_nodes = kRanks, .spare_nodes = 0, .nodes_per_rack = kRanks});
  mpi::Runtime runtime(cluster, mpi::JobLauncher::default_ranklist(cluster, kRanks, 1));
  std::vector<hpl::HplResult> results(kRanks);
  const std::int64_t t0 = now_ns();
  const mpi::JobResult job = runtime.run([&](mpi::Comm& world) {
    results[static_cast<std::size_t>(world.rank())] = hpl::run_hpl(world, config);
  });
  PlainSolve out;
  out.seconds = seconds_between(t0, now_ns());
  out.ok = job.completed;
  out.scaled_residual = results[0].residual.scaled;
  return out;
}

bool run_hpl_job(const hpl::HplConfig& config, double plain_scaled_residual, int job,
                 RunResult& result, Samples& samples) {
  hpl::SktHplConfig skt_config{.hpl = config,
                               .strategy = ckpt::Strategy::kSelf,
                               .group_size = kRanks,
                               .codec = enc::CodecKind::kXor,
                               .ckpt_every_panels = kHplCkptEvery};
  // Per world rank; attempt 2's thread starts after attempt 1's was joined.
  std::vector<int> attempts(kRanks, 0);
  std::vector<std::int64_t> relaunch_entry(kRanks, 0);
  std::vector<hpl::SktHplResult> results(kRanks);
  const std::optional<NodeLossTimes> times = run_node_loss_job(
      1, {.point = "hpl.panel", .world_rank = kKilledRank, .hit = kHplKillPanel}, job, result,
      [&](mpi::Comm& world) {
        const auto r = static_cast<std::size_t>(world.rank());
        if (attempts[r]++ == 1) relaunch_entry[r] = now_ns();
        Span attempt(attempts[r] == 1 ? "job.attempt" : "job.relaunch", world.rank(), job);
        results[r] = hpl::run_skt_hpl(world, skt_config);
      });
  if (!times) return false;
  const std::string tag = job_tag(job);
  const std::int64_t killed = times->kill_ns;
  double restore_s = 0, ckpt_total_s = 0, per_commit_s = 0;
  std::int64_t relaunched_at = 0, restored_at = 0;
  for (int r = 0; r < kRanks; ++r) {
    const hpl::SktHplResult& res = results[static_cast<std::size_t>(r)];
    const std::string who = tag + "rank " + std::to_string(r) + ": ";
    if (!res.restored) result.fail(who + "final attempt did not resume from a checkpoint");
    if (!checks::residual_ok(res.hpl.residual.scaled, plain_scaled_residual)) {
      result.fail(who + "scaled residual " + std::to_string(res.hpl.residual.scaled) +
                  " differs from the plain solve's " + std::to_string(plain_scaled_residual));
    }
    // ckpt_total_s sums CommitStats::total_s(), which adds modeled encode
    // and device time to wall time. The first must be 0 here; the second
    // is 0 for an in-memory strategy without a device.
    if (res.checkpoints <= 0 || res.encode_virtual_total_s != 0.0) {
      result.fail(who + "no commits, or modeled time in the commit figures");
      continue;
    }
    const std::int64_t entry = relaunch_entry[static_cast<std::size_t>(r)];
    restore_s = std::max(restore_s, res.restore_s);
    ckpt_total_s = std::max(ckpt_total_s, res.ckpt_total_s);
    per_commit_s = std::max(per_commit_s, res.ckpt_total_s / res.checkpoints);
    relaunched_at = std::max(relaunched_at, entry);
    restored_at = std::max(restored_at, entry + static_cast<std::int64_t>(res.restore_s * 1e9));
  }
  // Panels factored over both attempts: the first reaches the kill panel,
  // the relaunch resumes at the last checkpoint before it.
  const std::int64_t resumed_panel = (kHplKillPanel - 1) / kHplCkptEvery * kHplCkptEvery;
  const double panels = static_cast<double>(kHplKillPanel + kHplN / kHplNb - resumed_panel);
  const double recover_s = seconds_between(killed, restored_at);
  const double relaunch_s = seconds_between(killed, relaunched_at);
  samples.solve_s.push_back(seconds_between(times->t0_ns, times->t1_ns));
  // The one end-to-end figure here the program reports about itself: the
  // commits run inside run_skt_hpl, where the benchmark cannot time them.
  samples.commit_ms.push_back(per_commit_s * 1e3);
  // Loop time leaves out kill -> relaunch, as timed by the benchmark; the
  // restore inside run_skt_hpl stays in.
  samples.steps_per_s.push_back(panels / (samples.solve_s.back() - relaunch_s));
  samples.recover_s.push_back(recover_s);
  samples.relaunch_ms.push_back(relaunch_s * 1e3);
  samples.restore_ms.push_back(restore_s * 1e3);
  samples.ckpt_total_ms.push_back(ckpt_total_s * 1e3);
  samples.mem_per_data_byte = static_cast<double>(results[0].memory_bytes) /
                              static_cast<double>(hpl_data_bytes());
  std::fprintf(stderr, "%swall %.3f s, commit %.2f ms, %.2f panels/s, recover %.3f s\n",
               tag.c_str(), samples.solve_s.back(), samples.commit_ms.back(),
               samples.steps_per_s.back(), recover_s);
  return true;
}

RunResult run_hpl_workload(const Options& opts) {
  const hpl::HplConfig config = hpl_config(opts.seed);
  RunResult result;
  const std::int64_t setup_done = cold_setup(hpl_geometry(), opts.seed);
  // The plain solve whose residual every job must reproduce.
  const PlainSolve plain = plain_solve(config);
  if (!plain.ok || !(plain.scaled_residual < checks::kHplThreshold)) {
    result.fail("plain HPL solve failed or missed the residual threshold");
    return result;
  }
  Samples untraced, traced;
  run_jobs(
      opts,
      [&](int job, Samples& into) { run_hpl_job(config, plain.scaled_residual, job, result, into); },
      untraced, traced);

  if (!opts.trace) {
    add_end_to_end(untraced, setup_done, result);
    return result;
  }
  run_layer_probe(hpl_geometry(), opts, untraced, traced, result);
  return result;
}

}  // namespace perfbench
