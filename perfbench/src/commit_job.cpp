// commit_full and commit_sparse: a step loop on ckpt::Session that loses
// one or two nodes part-way through, is relaunched on spares, restores, and
// runs to its last step. Every buffer is checked against the benchmark's
// own regeneration after the restore and at the end.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "jobs.hpp"
#include "probe.hpp"

namespace perfbench {
namespace {

using namespace skt;

constexpr int kKilledRank = 1;

/// The loop position, checkpointed with the buffer as the user state.
struct LoopState {
  std::uint64_t magic = 0x7065726662656e63ull;
  std::uint64_t step = 0;
};

struct CommitWorkload {
  Geometry geometry;
  int steps = 60;      ///< loop steps per job
  int kill_step = 40;  ///< rank 1's node dies at this step, before its commit
  std::vector<int> extra_victims;  ///< ranks whose nodes die in the same instant
};

CommitWorkload workload_named(const std::string& name) {
  if (name == "commit_full") {
    return {.geometry = {.pattern = {.data_bytes = 32u << 20, .blocks_per_step = 0},
                         .user_bytes = sizeof(LoopState)}};
  }
  // 26 of the 256 64 KiB blocks: 10.2% of the buffer per step.
  return {.geometry = {.pattern = {.data_bytes = 16u << 20, .blocks_per_step = 26},
                       .user_bytes = sizeof(LoopState),
                       .parity = 2,
                       .async = true,
                       .scrub_s = 0.002},
          .extra_victims = {2}};
}

/// What one world rank records over one job (both attempts). The slot is
/// written by one rank thread at a time: attempt 2's thread starts after
/// attempt 1's was joined.
struct RankRecord {
  int attempts = 0;
  std::int64_t entry_ns[2] = {0, 0};      ///< first statement of each attempt
  std::int64_t open_begin_ns = 0;         ///< relaunch: open() called
  std::int64_t open_end_ns = 0;           ///< relaunch: open() returned kRestored
  std::int64_t loop_begin_ns[2] = {0, 0};
  std::int64_t loop_end_ns = 0;           ///< attempt 2 loop (and drain) done
  std::uint64_t steps_done[2] = {0, 0};   ///< commits returned per attempt
  std::uint64_t last_returned = 0;  ///< sync: commit() returned; async: staged
  std::uint64_t last_completed = 0; ///< ticket completed (sync: = last_returned)
  std::uint64_t restored_step = 0;
  bool restored = false;
  bool restored_in_range = false;
  bool restored_ok = false;
  bool final_ok = false;
  bool dirty_ok = true;
  double mem_per_data_byte = 0;
  std::map<std::uint64_t, double> commit_s;  ///< (attempt << 32 | step) -> seconds
};

void absorb(RankRecord& rec, const ckpt::CommitStats& stats, std::size_t marked) {
  rec.dirty_ok = rec.dirty_ok && checks::dirty_bytes_ok(stats.dirty_bytes, marked);
}

void rank_main(mpi::Comm& world, const CommitWorkload& w, std::uint64_t seed, int job,
               std::vector<RankRecord>& records) {
  const int r = world.rank();
  RankRecord& rec = records[static_cast<std::size_t>(r)];
  const int attempt = rec.attempts++;
  if (attempt > 1) throw std::logic_error("perfbench: more than one relaunch");
  rec.entry_ns[attempt] = now_ns();
  Span attempt_span(attempt == 0 ? "job.attempt" : "job.relaunch", r, job);

  const WritePattern& p = w.geometry.pattern;
  ckpt::Session session = build_session(world, w.geometry, "perfbench");
  const std::int64_t open_begin = now_ns();
  ckpt::OpenOutcome outcome;
  {
    Span s("ckpt.open", r, job);
    outcome = session.open();
  }
  const std::int64_t open_end = now_ns();
  const std::span<std::byte> data = session.data().first(p.data_bytes);
  LoopState state;

  if (outcome == ckpt::OpenOutcome::kFresh) {
    if (attempt != 0) throw std::logic_error("perfbench: relaunch found no checkpoint");
    for (std::size_t b = 0; b < p.blocks(); ++b) write_block(data, step_key(seed, r, 0), b);
    std::memcpy(session.user_state().data(), &state, sizeof state);
    Span s("ckpt.commit.initial", r, job);
    session.commit();
  } else {
    rec.open_begin_ns = open_begin;
    rec.open_end_ns = open_end;
    std::memcpy(&state, session.user_state().data(), sizeof state);
    rec.restored = true;
    rec.restored_step = state.step;
    rec.restored_in_range = LoopState{}.magic == state.magic &&
                            checks::restored_step_ok(state.step, rec.last_completed,
                                                     rec.last_returned);
    Span s("app.verify.restored", r, job);
    rec.restored_ok = checks::buffer_regenerates(data, seed, r, p.writers_at(seed, r, state.step));
  }

  rec.loop_begin_ns[attempt] = now_ns();
  ckpt::CommitTicket pending;
  std::size_t pending_marked = 0;
  for (std::uint64_t step = state.step + 1; step <= static_cast<std::uint64_t>(w.steps); ++step) {
    world.barrier();  // every rank has returned from the previous commit
    world.failpoint("perfbench.kill");
    {
      Span s("app.write", r, job);
      const std::uint64_t key = step_key(seed, r, step);
      for (const std::uint32_t b : p.blocks_at(seed, r, step)) {
        write_block(data, key, b);
        if (p.sparse()) {
          const auto [first, last] = block_range(b, p.data_bytes);
          session.mark_dirty(first, last - first);
        }
      }
      state.step = step;
      std::memcpy(session.user_state().data(), &state, sizeof state);
    }
    const std::size_t marked = p.bytes_per_step();
    if (w.geometry.async) {
      const std::int64_t t0 = now_ns();
      ckpt::CommitTicket ticket;
      {
        Span s("ckpt.commit_async", r, job);
        ticket = session.commit_async();
      }
      rec.commit_s[(std::uint64_t(attempt) << 32) | step] = seconds_between(t0, now_ns());
      if (pending.valid()) {
        absorb(rec, pending.wait(), pending_marked);  // done: commit_async waited for it
        rec.last_completed = step - 1;
      }
      pending = ticket;
      pending_marked = marked;
    } else {
      const std::int64_t t0 = now_ns();
      ckpt::CommitStats stats;
      {
        Span s("ckpt.commit", r, job);
        stats = session.commit();
      }
      rec.commit_s[(std::uint64_t(attempt) << 32) | step] = seconds_between(t0, now_ns());
      absorb(rec, stats, marked);
      rec.last_completed = step;
    }
    rec.last_returned = step;
    ++rec.steps_done[attempt];
  }
  if (pending.valid()) {
    Span s("ckpt.drain", r, job);
    session.drain();
    absorb(rec, pending.wait(), pending_marked);
    rec.last_completed = rec.last_returned;
  }
  rec.loop_end_ns = now_ns();
  rec.mem_per_data_byte =
      static_cast<double>(session.memory_bytes()) / static_cast<double>(p.data_bytes);
  Span s("app.verify.final", r, job);
  rec.final_ok = checks::buffer_regenerates(data, seed, r, p.writers_at(seed, r, state.step)) &&
                 state.step == static_cast<std::uint64_t>(w.steps);
}

/// One node-loss job: the loop on a fresh cluster with spares, rank 1's
/// node (and the extra victims') powered off at the kill step, one
/// relaunch. Checks go to `result`, figures to `samples`.
void run_job(const CommitWorkload& w, std::uint64_t seed, int job, RunResult& result,
             Samples& samples) {
  std::vector<RankRecord> records(kRanks);
  const std::optional<NodeLossTimes> times = run_node_loss_job(
      1 + static_cast<int>(w.extra_victims.size()),
      {.point = "perfbench.kill",
       .world_rank = kKilledRank,
       .hit = w.kill_step,
       .extra_victims = w.extra_victims},
      job, result, [&](mpi::Comm& world) { rank_main(world, w, seed, job, records); });
  if (!times) return;
  const std::string tag = job_tag(job);
  const std::int64_t killed = times->kill_ns;
  std::int64_t restored_at = 0, relaunched_at = 0;
  double open_s = 0;
  for (int r = 0; r < kRanks; ++r) {
    const RankRecord& rec = records[static_cast<std::size_t>(r)];
    const std::string who = tag + "rank " + std::to_string(r) + ": ";
    if (!rec.restored) result.fail(who + "not restored on the relaunch");
    if (!rec.restored_in_range) {
      result.fail(who + "restored step " + std::to_string(rec.restored_step) + " outside [" +
                  std::to_string(rec.last_completed) + ", " +
                  std::to_string(rec.last_returned) + "]");
    }
    if (rec.restored_step != records[0].restored_step) result.fail(who + "restored step differs");
    if (!rec.restored_ok) result.fail(who + "restored buffer differs from its regeneration");
    if (!rec.final_ok) result.fail(who + "final buffer differs from its regeneration");
    if (!rec.dirty_ok) result.fail(who + "a commit reported fewer dirty bytes than marked");
    restored_at = std::max(restored_at, rec.open_end_ns);
    relaunched_at = std::max(relaunched_at, rec.entry_ns[1]);
    open_s = std::max(open_s, seconds_between(rec.open_begin_ns, rec.open_end_ns));
  }

  // Per commit, the slowest rank; the job's sample is the mean over its
  // commits (a median would flip between the modes of a two-humped
  // distribution from run to run).
  std::map<std::uint64_t, double> slowest;
  for (const RankRecord& rec : records) {
    for (const auto& [key, s] : rec.commit_s) slowest[key] = std::max(slowest[key], s);
  }
  double commit_sum_s = 0;
  for (const auto& [key, s] : slowest) commit_sum_s += s;
  samples.commit_ms.push_back(commit_sum_s * 1e3 / static_cast<double>(slowest.size()));

  const RankRecord& r0 = records[0];
  const double loop_s = seconds_between(r0.loop_begin_ns[0], killed) +
                        seconds_between(r0.loop_begin_ns[1], r0.loop_end_ns);
  samples.solve_s.push_back(seconds_between(times->t0_ns, times->t1_ns));
  samples.steps_per_s.push_back(static_cast<double>(r0.steps_done[0] + r0.steps_done[1]) /
                                loop_s);
  samples.recover_s.push_back(seconds_between(killed, restored_at));
  samples.relaunch_ms.push_back(seconds_between(killed, relaunched_at) * 1e3);
  samples.restore_ms.push_back(open_s * 1e3);
  samples.mem_per_data_byte = r0.mem_per_data_byte;
  std::fprintf(stderr, "%swall %.3f s, commit %.2f ms, %.2f steps/s, recover %.3f s\n",
               tag.c_str(), samples.solve_s.back(), samples.commit_ms.back(),
               samples.steps_per_s.back(), samples.recover_s.back());
}

}  // namespace

RunResult run_commit_workload(const Options& opts) {
  const CommitWorkload w = workload_named(opts.workload);
  RunResult result;
  const std::int64_t setup_done = cold_setup(w.geometry, opts.seed);
  Samples untraced, traced;
  run_jobs(
      opts, [&](int job, Samples& into) { run_job(w, opts.seed, job, result, into); }, untraced,
      traced);

  if (!opts.trace) {
    add_end_to_end(untraced, setup_done, result);
    return result;
  }
  run_layer_probe(w.geometry, opts, untraced, traced, result);
  return result;
}

}  // namespace perfbench
