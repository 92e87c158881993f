// What every workload does the same way: build a checkpoint Session at the
// workload's geometry, time its cold set-up, and run one node-loss job on
// a fresh cluster with spares.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "bench.hpp"
#include "checks.hpp"
#include "ckpt/session.hpp"
#include "mpi/launcher.hpp"
#include "sim/cluster.hpp"
#include "sim/failure.hpp"

namespace perfbench {

constexpr int kRanks = 4;  ///< rank threads, one per node, one group

/// What each rank's Session protects and how it commits.
struct Geometry {
  WritePattern pattern;
  std::size_t user_bytes = 0;  ///< the user state checkpointed with the data
  int parity = 1;              ///< 1 = XOR single parity; m >= 2 = RS(4 - m, m)
  bool async = false;          ///< commit_async() instead of commit()
  double scrub_s = 0;          ///< scrubber cadence; 0 = no scrubber
};

/// A self-checkpoint Session over all kRanks ranks of `world` at `g`.
skt::ckpt::Session build_session(skt::mpi::Comm& world, const Geometry& g,
                                 const std::string& key_prefix);

/// The cold set-up every workload's setup_s ends with: a fresh cluster,
/// then on every rank build_session, open() and a first full commit of
/// seeded content. Returns the steady-clock time the last rank's commit
/// returned (0 when the job did not complete).
std::int64_t cold_setup(const Geometry& g, std::uint64_t seed);

/// When one node-loss job launched, ended, and lost its first node.
struct NodeLossTimes {
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::int64_t kill_ns = 0;
};

inline std::string job_tag(int job) { return "job " + std::to_string(job) + ": "; }

/// Run `rank_fn` as a kRanks-rank job on a fresh cluster with `spares`
/// spare nodes, `rule` powering off its victims, and at most one relaunch.
/// The job counts in result.attempted. One that does not complete counts
/// in result.failed; one that completes without the kill and exactly one
/// relaunch makes the run incorrect. Returns its times in the third case
/// only: when it completed as the workload means it to.
template <typename RankFn>  // void(skt::mpi::Comm&)
std::optional<NodeLossTimes> run_node_loss_job(int spares, skt::sim::FailureRule rule, int job,
                                               RunResult& result, RankFn&& rank_fn) {
  skt::sim::Cluster cluster(
      {.num_nodes = kRanks, .spare_nodes = spares, .nodes_per_rack = kRanks});
  skt::sim::FailureInjector injector;
  injector.add_rule(std::move(rule));
  std::atomic<std::int64_t> kill_ns{0};
  const int observer = cluster.add_power_off_observer([&kill_ns](int, const std::string&) {
    std::int64_t none = 0;
    kill_ns.compare_exchange_strong(none, now_ns());
  });
  skt::mpi::JobLauncher launcher(cluster, &injector, skt::mpi::LauncherConfig{.max_restarts = 1});

  NodeLossTimes times;
  times.t0_ns = now_ns();
  skt::mpi::LaunchResult launch;
  {
    Span s("job", -1, job);
    launch = launcher.run(kRanks, std::forward<RankFn>(rank_fn));
  }
  times.t1_ns = now_ns();
  cluster.remove_power_off_observer(observer);
  times.kill_ns = kill_ns.load();

  ++result.attempted;
  if (!launch.success) {
    result.job_failed(job_tag(job) + "did not complete: " + launch.failure);
    return std::nullopt;
  }
  if (!checks::one_relaunch(launch.success, launch.restarts) || times.kill_ns == 0) {
    result.fail(job_tag(job) + "expected the kill and exactly one relaunch, got restarts=" +
                std::to_string(launch.restarts));
    return std::nullopt;
  }
  return times;
}

}  // namespace perfbench
