// Shared pieces of the repository benchmark: the clock, the seeded content
// generator, the in-memory span recorder and the result record. See
// README.md for the workloads and what each metric means.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock; every timestamp the benchmark compares
/// across threads is one of these.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// The process's start on the steady clock (static initialisation of the
/// main translation unit); the span timeline counts from here.
std::int64_t process_start_ns();

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of `v` without its lowest and highest value (the plain mean below
/// five values). A run's per-job figures are summarised this way: one job
/// stalled by the host moves it little, and it follows the share of jobs
/// the host ran slowly smoothly, where a median jumps between two levels.
inline double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t drop = v.size() >= 5 ? 1 : 0;
  double sum = 0;
  for (std::size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

// --------------------------------------------------------------------------
// Seeded content. Word j of rank r's buffer, last written at step s, is a
// pure function of (seed, r, s, j), so any rank's buffer at any step can be
// regenerated without keeping a copy.

constexpr std::size_t kBlockBytes = 64 << 10;  ///< write/mark granularity

inline std::uint64_t step_key(std::uint64_t seed, int rank, std::uint64_t step) {
  return skt::util::splitmix64(skt::util::splitmix64(seed ^ 0x70657266ull) +
                               static_cast<std::uint64_t>(rank) * 0x9e3779b97f4a7c15ull +
                               step * 0xbf58476d1ce4e5b9ull);
}

/// Cheap enough that rewriting a buffer costs little next to a commit, and
/// every word differs between any two step keys.
inline std::uint64_t content_word(std::uint64_t key, std::uint64_t word_index) {
  return key ^ (word_index * 0x9e3779b97f4a7c15ull);
}

/// How one workload's loop rewrites its buffer each step.
struct WritePattern {
  std::size_t data_bytes = 0;
  int blocks_per_step = 0;  ///< 0 = rewrite every block (un-annotated)

  /// Blocks of the buffer; the last one is short when data_bytes is not a
  /// multiple of kBlockBytes.
  [[nodiscard]] std::size_t blocks() const {
    return (data_bytes + kBlockBytes - 1) / kBlockBytes;
  }
  [[nodiscard]] bool sparse() const { return blocks_per_step > 0; }
  [[nodiscard]] std::size_t bytes_per_step() const {
    return sparse() ? static_cast<std::size_t>(blocks_per_step) * kBlockBytes : data_bytes;
  }

  /// Blocks rank `rank` rewrites at `step` (>= 1); step 0 writes all.
  [[nodiscard]] std::vector<std::uint32_t> blocks_at(std::uint64_t seed, int rank,
                                                     std::uint64_t step) const {
    std::vector<std::uint32_t> all(blocks());
    for (std::uint32_t b = 0; b < all.size(); ++b) all[b] = b;
    if (step == 0 || !sparse()) return all;
    skt::util::Xoshiro256 rng(step_key(seed, rank, step) ^ 0x5ca77e12ull);
    const std::size_t k = static_cast<std::size_t>(blocks_per_step);
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(all[i], all[i + rng.next_below(all.size() - i)]);
    }
    all.resize(k);
    std::sort(all.begin(), all.end());
    return all;
  }

  /// Step that last wrote each block, as of the end of `step`.
  [[nodiscard]] std::vector<std::uint64_t> writers_at(std::uint64_t seed, int rank,
                                                      std::uint64_t step) const {
    std::vector<std::uint64_t> writer(blocks(), sparse() ? 0 : step);
    if (!sparse()) return writer;
    for (std::uint64_t s = 1; s <= step; ++s) {
      for (const std::uint32_t b : blocks_at(seed, rank, s)) writer[b] = s;
    }
    return writer;
  }
};

/// Byte range [first, second) of block `b` in a buffer of `data_bytes`.
inline std::pair<std::size_t, std::size_t> block_range(std::size_t b, std::size_t data_bytes) {
  return {b * kBlockBytes, std::min((b + 1) * kBlockBytes, data_bytes)};
}

/// Write block `b` of `data` with the content of step key `key`.
inline void write_block(std::span<std::byte> data, std::uint64_t key, std::size_t b) {
  const auto [first, last] = block_range(b, data.size());
  for (std::size_t off = first; off + sizeof(std::uint64_t) <= last; off += sizeof(std::uint64_t)) {
    const std::uint64_t word = content_word(key, off / sizeof(std::uint64_t));
    std::memcpy(data.data() + off, &word, sizeof word);
  }
}

// --------------------------------------------------------------------------
// Spans: the benchmark's own, around its calls into the program's modules.
// Kept in memory while the run lasts and written out at its end.

struct SpanRecord {
  const char* name = "";  ///< string literal
  int rank = -1;          ///< world rank; -1 = the benchmark's main thread
  int job = 0;            ///< spans of one job share this id
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

class SpanLog {
 public:
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void add(const char* name, int rank, int job, std::int64_t t0, std::int64_t t1) {
    if (!enabled()) return;
    std::lock_guard lock(mutex_);
    spans_.push_back({name, rank, job, t0, t1});
  }

  /// Chrome trace_event JSON of every span, written to `path`.
  bool write_chrome_trace(const std::string& path) const;

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return spans_.size();
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

SpanLog& spans();

/// RAII span around one call; costs one relaxed load when tracing is off.
class Span {
 public:
  Span(const char* name, int rank, int job)
      : name_(name), rank_(rank), job_(job), t0_(spans().enabled() ? now_ns() : 0) {}
  ~Span() {
    if (t0_ != 0) spans().add(name_, rank_, job_, t0_, now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  int rank_;
  int job_;
  std::int64_t t0_;
};

// --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false (stderr)

  /// An output check did not hold: the run is incorrect.
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  /// An operation did not complete. It counts in `failed`; `correct`
  /// speaks of the operations that did complete.
  void job_failed(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build";  ///< where the traced run writes its spans
};

/// Wall-time figures a run collects from its node-loss jobs, one value per
/// job; the run's end-to-end metrics are their trimmed means. README.md
/// defines each one per workload.
struct Samples {
  std::vector<double> solve_s;      ///< JobLauncher::run start -> verified result
  std::vector<double> commit_ms;    ///< time a commit blocks the loop
  std::vector<double> steps_per_s;  ///< loop steps (panels) per second of loop time
  std::vector<double> recover_s;    ///< kill -> last rank restored
  std::vector<double> relaunch_ms;  ///< kill -> last relaunched rank function entered
  std::vector<double> restore_ms;   ///< the restoring call on the relaunch, slowest rank
  std::vector<double> ckpt_total_ms;  ///< hpl_fail: SktHplResult::ckpt_total_s, slowest rank
  double mem_per_data_byte = 0;
};

/// Job 0 warms the code paths: it is checked, and its figures are
/// dropped. Whole timed jobs follow until opts.seconds of wall time have
/// passed. A traced run alternates untraced and traced jobs, so the two
/// medians give the tracing overhead.
template <typename JobFn>  // void(int job, Samples& into)
void run_jobs(const Options& opts, JobFn&& run_job, Samples& untraced, Samples& traced) {
  Samples warmup;
  run_job(0, warmup);
  const std::int64_t begin = now_ns();
  int job = 1;
  do {
    const bool trace = opts.trace && job % 2 == 0;
    spans().enable(trace);
    run_job(job, trace ? traced : untraced);
    spans().enable(false);
    ++job;
  } while (seconds_between(begin, now_ns()) < opts.seconds || (opts.trace && job < 3));
}

/// The end-to-end metrics of an untraced run. `setup_done_ns` is when the
/// run's cold set-up returned (0 = it did not).
inline void add_end_to_end(const Samples& s, std::int64_t setup_done_ns, RunResult& result) {
  if (s.solve_s.empty()) result.fail("no timed job gave figures");
  if (setup_done_ns == 0) result.fail("the cold set-up did not complete");
  const double setup_s = seconds_between(process_start_ns(), setup_done_ns);
  result.add("solve_s", trimmed_mean(s.solve_s), "s");
  result.add("setup_s", setup_s, "s");
  result.add("commit_ms", trimmed_mean(s.commit_ms), "ms");
  result.add("steps_per_s", trimmed_mean(s.steps_per_s), "1/s");
  result.add("mem_per_data_byte", s.mem_per_data_byte, "B/B");
}

// Workload entry points (commit_job.cpp, hpl_job.cpp). Each runs node-loss
// jobs for opts.seconds and fills the end-to-end metrics; with opts.trace
// it records spans and then calls the layer probe (probe.cpp).
RunResult run_commit_workload(const Options& opts);
RunResult run_hpl_workload(const Options& opts);

}  // namespace perfbench
