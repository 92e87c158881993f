// The layer probe: after a traced run's jobs, time the public calls of
// each module at the workload's geometry — mpi collectives, encoding
// kernels and group codecs, a ckpt::Session loop, and the hpl drivers.
// Every timing is the benchmark's own steady-clock span around one call;
// figures labelled program-reported come from the stats the call returns.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "ckpt/session.hpp"
#include "encoding/group_codec.hpp"
#include "encoding/kernels.hpp"
#include "encoding/rs_group.hpp"
#include "mpi/grid.hpp"
#include "mpi/launcher.hpp"
#include "probe.hpp"
#include "util/aligned.hpp"

namespace perfbench {
namespace {

using namespace skt;

constexpr int kSessionSteps = 8;

/// Per-repetition durations from every rank; a repetition's time is its
/// slowest rank's.
class RepTimes {
 public:
  explicit RepTimes(const char* span) : span_(span), per_rank_(kRanks) {}

  /// Time `fn` on rank `rank` as one repetition.
  template <typename Fn>
  void time(int rank, Fn&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    spans().add(span_, rank, -1, t0, t1);
    per_rank_[static_cast<std::size_t>(rank)].push_back(seconds_between(t0, t1));
  }

  /// Median over repetitions of the slowest rank's seconds.
  [[nodiscard]] double median_s() const {
    std::vector<double> slowest;
    for (const std::vector<double>& times : per_rank_) {
      if (times.size() > slowest.size()) slowest.resize(times.size(), 0.0);
      for (std::size_t i = 0; i < times.size(); ++i) slowest[i] = std::max(slowest[i], times[i]);
    }
    return median(slowest);
  }

 private:
  const char* span_;
  std::vector<std::vector<double>> per_rank_;
};

/// Timings the probe job collects from its rank threads.
struct ProbeTimes {
  RepTimes allreduce{"mpi.allreduce"};
  RepTimes bcast{"mpi.bcast_panel"};
  RepTimes reduce_scatter{"mpi.reduce_scatter_blocks"};
  RepTimes xor_acc{"encoding.xor_acc"};
  RepTimes gf256{"encoding.gf256_mul_acc"};
  RepTimes encode{"encoding.encode"};
  RepTimes encode_delta{"encoding.encode_delta"};
  RepTimes rebuild{"encoding.rebuild"};
  RepTimes drain{"ckpt.drain"};
  RepTimes commit{"ckpt.commit"};
  std::size_t stripe_bytes = 0;
  // Rank 0's session loop.
  std::vector<double> encode_s, flush_s;
  double marked_bytes = 0, dirty_bytes = 0;
  double wire_bytes = 0, copied_bytes = 0;  ///< job-wide, over the session loop
  double scrub_chunks = 0, loop_s = 0;
};

void fill(std::span<std::byte> buffer, std::uint64_t key) {
  for (std::size_t b = 0; b * kBlockBytes < buffer.size(); ++b) write_block(buffer, key, b);
}

/// Per-stripe dirty flags for one step of `g`'s write pattern, as the
/// protocol's tracker sets them: the stripes under the rewritten blocks
/// plus the stripe holding the user-state tail.
std::vector<std::uint8_t> dirty_flags(const Geometry& g, std::uint64_t seed, int rank,
                                      std::size_t stripe_bytes, std::size_t stripes) {
  std::vector<std::uint8_t> flags(stripes, 0);
  const auto mark = [&](std::size_t first, std::size_t last) {
    for (std::size_t s = first / stripe_bytes; s <= (last - 1) / stripe_bytes && s < stripes; ++s) {
      flags[s] = 1;
    }
  };
  for (const std::uint32_t b : g.pattern.blocks_at(seed, rank, 1)) {
    const auto [first, last] = block_range(b, g.pattern.data_bytes);
    mark(first, last);
  }
  mark(g.pattern.data_bytes, g.pattern.data_bytes + g.user_bytes);
  return flags;
}

/// The codec calls at the workload geometry: XOR GroupCodec for parity 1,
/// RSGroupCodec otherwise.
template <typename Codec>
void probe_codec(mpi::Comm& world, const Codec& codec, std::size_t padded, std::size_t parity,
                 const std::vector<std::uint8_t>& flags, const std::vector<int>& failed,
                 std::uint64_t seed, ProbeTimes& t) {
  const int r = world.rank();
  util::AlignedBytes base(padded, std::byte{0});
  util::AlignedBytes next(padded, std::byte{0});
  util::AlignedBytes old_parity(parity, std::byte{0});
  util::AlignedBytes out(parity, std::byte{0});
  fill(base, step_key(seed, r, 0));
  std::memcpy(next.data(), base.data(), padded);
  for (std::size_t s = 0; s < flags.size(); ++s) {
    if (flags[s] == 0) continue;
    const std::size_t stripe = padded / flags.size();
    std::byte* p = next.data() + s * stripe;
    p[0] = static_cast<std::byte>(static_cast<unsigned>(p[0]) ^ 0xffu);
  }
  codec.encode(world, base, old_parity);
  for (int i = 0; i < 5; ++i) {
    world.barrier();
    t.encode.time(r, [&] { codec.encode(world, base, out); });
  }
  for (int i = 0; i < 5; ++i) {
    world.barrier();
    t.encode_delta.time(r, [&] { codec.encode_delta(world, base, next, old_parity, out, flags); });
  }
  for (int i = 0; i < 3; ++i) {
    world.barrier();
    t.rebuild.time(r, [&] {
      if constexpr (std::is_same_v<Codec, enc::GroupCodec>) {
        codec.rebuild(world, failed.front(), base, old_parity);
      } else {
        codec.rebuild(world, failed, base, old_parity);
      }
    });
  }
}

void probe_rank(mpi::Comm& world, const Geometry& g, std::uint64_t seed, ProbeTimes& t) {
  const int r = world.rank();
  const std::size_t protected_bytes = g.pattern.data_bytes + g.user_bytes;

  // mpi: a 64-byte allreduce (HPL's pivot search size class) and one
  // nb-wide panel broadcast along a process row of the hpl_fail grid.
  std::vector<double> in(8, 1.0 + r), out(8, 0.0);
  for (int i = 0; i < 200; ++i) {
    world.barrier();
    t.allreduce.time(r, [&] { world.allreduce<double>(in, out, mpi::Sum{}); });
  }
  {
    mpi::Grid grid(world, kHplP, kHplQ);
    std::vector<double> panel(static_cast<std::size_t>(kHplN / kHplP * kHplNb), 1.0);
    for (int i = 0; i < 20; ++i) {
      world.barrier();
      t.bcast.time(r, [&] { grid.row().bcast<double>(0, panel); });
    }
  }

  // mpi: one reduce-scatter pass over the workload's stripe blocks.
  const std::size_t stripe =
      g.parity == 1
          ? enc::GroupCodec(enc::CodecKind::kXor, protected_bytes, kRanks).checksum_bytes()
          : enc::RSGroupCodec(protected_bytes, kRanks, g.parity).stripe_bytes();
  if (r == 0) t.stripe_bytes = stripe;
  {
    util::AlignedBytes blocks_buf(kRanks * stripe, std::byte{1});
    util::AlignedBytes result(stripe, std::byte{0});
    std::vector<std::span<const std::uint64_t>> blocks;
    for (int b = 0; b < kRanks; ++b) {
      blocks.emplace_back(reinterpret_cast<const std::uint64_t*>(blocks_buf.data() + b * stripe),
                          stripe / sizeof(std::uint64_t));
    }
    const std::span<std::uint64_t> into{reinterpret_cast<std::uint64_t*>(result.data()),
                                        stripe / sizeof(std::uint64_t)};
    for (int i = 0; i < 5; ++i) {
      world.barrier();
      t.reduce_scatter.time(r, [&] {
        world.reduce_scatter_blocks<std::uint64_t, mpi::BXor>(blocks, into, mpi::BXor{});
      });
    }

    // encoding kernels, one rank at a time, on stripe-sized buffers.
    if (r == 0) {
      const std::span<std::uint8_t> acc{reinterpret_cast<std::uint8_t*>(result.data()), stripe};
      const std::span<const std::uint8_t> src{
          reinterpret_cast<const std::uint8_t*>(blocks_buf.data()), stripe};
      for (int i = 0; i < 10; ++i) {
        t.xor_acc.time(r, [&] { enc::kernels::xor_acc(result, {blocks_buf.data(), stripe}); });
      }
      for (int i = 0; i < 10; ++i) {
        t.gf256.time(r, [&] { enc::kernels::gf256_mul_acc(acc, src, 0x53); });
      }
    }
  }
  world.barrier();

  // encoding: the group codec at the workload geometry and dirty pattern.
  if (g.parity == 1) {
    const enc::GroupCodec codec(enc::CodecKind::kXor, protected_bytes, kRanks);
    probe_codec(world, codec, codec.padded_bytes(), codec.checksum_bytes(),
                dirty_flags(g, seed, r, codec.checksum_bytes(), kRanks - 1), {1}, seed, t);
  } else {
    const enc::RSGroupCodec codec(protected_bytes, kRanks, g.parity);
    std::vector<int> failed;
    for (int m = 1; m <= g.parity; ++m) failed.push_back(m);
    probe_codec(world, codec, codec.padded_bytes(), codec.parity_bytes(),
                dirty_flags(g, seed, r, codec.stripe_bytes(), kRanks - g.parity), failed, seed,
                t);
  }

  // ckpt: a Session in the workload's mode, with a 2 ms scrubber, running
  // the workload's write pattern. drain() is the async epoch wait (a no-op
  // for sync sessions); the commit call is the stage copy for async
  // sessions and the whole commit for sync ones.
  Geometry scrubbed = g;
  scrubbed.scrub_s = 0.002;
  ckpt::Session session = build_session(world, scrubbed, "perfbench-probe");
  session.open();
  const std::span<std::byte> data = session.data().first(g.pattern.data_bytes);
  fill(data, step_key(seed, r, 0));
  session.commit();
  world.barrier();
  mpi::Runtime& rt = world.runtime();
  const double wire0 = static_cast<double>(rt.wire_bytes());
  const double copied0 = static_cast<double>(rt.copied_bytes());
  const double scrub0 = static_cast<double>(session.scrubber()->stats().chunks_verified);
  const std::int64_t loop0 = now_ns();
  ckpt::CommitTicket pending;
  const auto absorb = [&](const ckpt::CommitStats& stats) {
    if (r != 0) return;
    t.encode_s.push_back(stats.encode_s);
    t.flush_s.push_back(stats.flush_s);
    t.marked_bytes += static_cast<double>(g.pattern.bytes_per_step());
    t.dirty_bytes += static_cast<double>(stats.dirty_bytes);
  };
  for (std::uint64_t step = 1; step <= kSessionSteps; ++step) {
    const std::uint64_t key = step_key(seed, r, step);
    for (const std::uint32_t b : g.pattern.blocks_at(seed, r, step)) {
      write_block(data, key, b);
      if (g.pattern.sparse()) {
        const auto [first, last] = block_range(b, g.pattern.data_bytes);
        session.mark_dirty(first, last - first);
      }
    }
    t.drain.time(r, [&] { session.drain(); });
    if (g.async) {
      ckpt::CommitTicket ticket;
      t.commit.time(r, [&] { ticket = session.commit_async(); });
      if (pending.valid()) absorb(pending.wait());
      pending = ticket;
    } else {
      ckpt::CommitStats stats;
      t.commit.time(r, [&] { stats = session.commit(); });
      absorb(stats);
    }
  }
  session.drain();
  if (pending.valid()) absorb(pending.wait());
  world.barrier();
  if (r == 0) {
    t.loop_s = seconds_between(loop0, now_ns());
    t.wire_bytes = (static_cast<double>(rt.wire_bytes()) - wire0) / kSessionSteps;
    t.copied_bytes = (static_cast<double>(rt.copied_bytes()) - copied0) / kSessionSteps;
    t.scrub_chunks = static_cast<double>(session.scrubber()->stats().chunks_verified) - scrub0;
  }
}

}  // namespace

void run_layer_probe(const Geometry& geometry, const Options& opts, const Samples& untraced,
                     const Samples& traced, RunResult& result) {
  spans().enable(true);
  ProbeTimes t;
  {
    sim::Cluster cluster({.num_nodes = kRanks, .spare_nodes = 0, .nodes_per_rack = kRanks});
    mpi::Runtime runtime(cluster, mpi::JobLauncher::default_ranklist(cluster, kRanks, 1));
    const mpi::JobResult job = runtime.run(
        [&](mpi::Comm& world) { probe_rank(world, geometry, opts.seed, t); });
    if (!job.completed) result.fail("layer probe job failed: " + job.abort_reason);
  }

  // hpl: dgemm peak, a plain solve, and one hpl_fail job, all at the
  // hpl_fail geometry on every workload.
  const hpl::HplConfig config = hpl_config(opts.seed);
  double gflops = 0;
  {
    Span s("hpl.calibrate_peak_gflops", -1, -1);
    gflops = hpl::calibrate_peak_gflops();
  }
  PlainSolve plain;
  {
    Span s("hpl.run_hpl", -1, -1);
    plain = plain_solve(config);
  }
  // The hpl_fail job counts in `attempted` (and `failed`) like the timed ones.
  Samples hpl_job;
  if (plain.ok) {
    run_hpl_job(config, plain.scaled_residual, -1, result, hpl_job);
  } else {
    result.fail("layer probe: the plain HPL solve failed");
  }
  spans().enable(false);

  const double stripe = static_cast<double>(t.stripe_bytes);
  result.add("mpi.allreduce_64B_us", t.allreduce.median_s() * 1e6, "us");
  result.add("mpi.bcast_panel_ms", t.bcast.median_s() * 1e3, "ms");
  result.add("mpi.reduce_scatter_ms", t.reduce_scatter.median_s() * 1e3, "ms");
  result.add("mpi.wire_bytes_per_commit", t.wire_bytes, "B");
  result.add("mpi.copied_bytes_per_commit", t.copied_bytes, "B");
  result.add("mpi.relaunch_ms", median(traced.relaunch_ms), "ms");
  result.add("job.recover_s", trimmed_mean(untraced.recover_s), "s");
  result.add("encoding.xor_GBps", stripe / t.xor_acc.median_s() * 1e-9, "GB/s");
  result.add("encoding.gf256_GBps", stripe / t.gf256.median_s() * 1e-9, "GB/s");
  result.add("encoding.encode_ms", t.encode.median_s() * 1e3, "ms");
  result.add("encoding.encode_delta_ms", t.encode_delta.median_s() * 1e3, "ms");
  result.add("encoding.rebuild_ms", t.rebuild.median_s() * 1e3, "ms");
  result.add("ckpt.epoch_wait_ms", t.drain.median_s() * 1e3, "ms");
  result.add("ckpt.stage_ms", t.commit.median_s() * 1e3, "ms");
  result.add("ckpt.encode_ms", median(t.encode_s) * 1e3, "ms");
  result.add("ckpt.flush_ms", median(t.flush_s) * 1e3, "ms");
  result.add("ckpt.dirty_amplification", t.dirty_bytes / t.marked_bytes, "ratio");
  result.add("ckpt.restore_open_ms", median(traced.restore_ms), "ms");
  result.add("ckpt.scrub_chunks_per_s", t.scrub_chunks / t.loop_s, "1/s");
  result.add("hpl.plain_solve_s", plain.seconds, "s");
  result.add("hpl.dgemm_gflops", gflops, "GFLOP/s");
  result.add("hpl.ckpt_total_ms", median(hpl_job.ckpt_total_ms), "ms");
  result.add("hpl.restore_ms", median(hpl_job.restore_ms), "ms");
  result.add("trace.overhead_pct",
             (trimmed_mean(traced.solve_s) / trimmed_mean(untraced.solve_s) - 1.0) * 100.0, "%");

  const std::string path = opts.out_dir + "/trace_" + opts.workload + "_" +
                           std::to_string(opts.seed) + ".json";
  if (!spans().write_chrome_trace(path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
