// Background scrub-and-repair: a low-priority thread that re-verifies the
// CRC32C of every sealed checkpoint buffer between commits, catching the
// silent corruption (DRAM bit flips, wild writes) that an in-memory
// checkpoint is otherwise blind to until the restore that needed the bytes
// fails.
//
// Mechanics:
//
//   * The protocol exposes its sealed segments through scrub_view()
//     (protocol.hpp). Each region is split into fixed-size chunks; a
//     baseline CRC per chunk is captured whenever committed_epoch()
//     advances (the buffers were just rewritten) and re-verified on every
//     subsequent pass of the same epoch.
//
//   * Commits and scrub passes exclude each other through
//     commit_exclusion(): the Session locks it around commit()/restore()
//     (and hands it to the async engine for commit_staged()), while a
//     pass re-acquires it PER CHUNK. A pass that observes the epoch
//     advance between chunks abandons itself (the buffers it was reading
//     were legitimately rewritten) and the next tick recaptures baselines.
//
//   * A commit announces itself before it blocks: CommitExclusion::lock()
//     raises a waiter count, takes the mutex, then lowers the count. The
//     cadence thread only TRY-locks each chunk and refuses — abandoning
//     the pass — whenever a commit is announced, so a commit arriving
//     mid-pass waits for at most the one 4 KiB chunk CRC in progress. A
//     plain mutex gives no such bound: it does not favor a thread already
//     waiting, and the cadence thread's try_lock right after its unlock
//     wins the race against the commit it just woke, chunk after chunk.
//     This is what keeps the scrub overhead on an encode-like workload
//     under the 3% bench gate.
//
//   * A corrupt chunk whose region has a byte-identical mirror (e.g. the
//     C/D checksum pair after a flush) is repaired in place by copying the
//     mirror chunk, after checking the mirror itself still matches the
//     baseline. Mirror-less corruption is counted as unrepaired — the
//     next restore must route around it via the erasure code.
//
// Telemetry: scrub.passes, scrub.chunks_verified, scrub.corruption_detected,
// scrub.repaired, scrub.unrepaired counters, aggregated into the RunReport
// like every other metric.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/protocol.hpp"

namespace skt::ckpt {

struct ScrubStats {
  std::uint64_t passes = 0;               ///< completed scrub passes
  std::uint64_t chunks_verified = 0;      ///< chunk CRCs recomputed
  std::uint64_t corruption_detected = 0;  ///< chunks whose CRC diverged
  std::uint64_t repaired = 0;             ///< chunks restored from a mirror
  std::uint64_t unrepaired = 0;           ///< corrupt chunks with no mirror
};

/// The commit/scrub exclusion lock (Lockable, so std::lock_guard and
/// std::unique_lock work with it). lock() announces the caller as a
/// waiting commit for as long as it blocks; try_lock() and unlock() pass
/// straight through to the inner mutex. The scrubber's cadence thread
/// reads commit_waiting() and yields instead of re-acquiring.
class CommitExclusion {
 public:
  void lock() {
    waiters_.fetch_add(1, std::memory_order_relaxed);
    mutex_.lock();
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
  bool try_lock() { return mutex_.try_lock(); }
  void unlock() { mutex_.unlock(); }

  /// True while some thread is inside lock(), i.e. waiting for (or just
  /// taking) the mutex.
  [[nodiscard]] bool commit_waiting() const {
    return waiters_.load(std::memory_order_relaxed) != 0;
  }

 private:
  std::mutex mutex_;
  std::atomic<int> waiters_{0};
};

class Scrubber {
 public:
  struct Options {
    /// Cadence of the background thread; each tick runs one full pass
    /// over every region, try-locking the commit exclusion per chunk.
    double interval_s = 0.002;
    /// Verification granularity, and the most a commit waits on the
    /// scrubber (one chunk CRC). Smaller chunks localize repairs and
    /// shorten that wait; larger ones amortize the per-chunk locking.
    std::size_t chunk_bytes = 4096;
  };

  /// `protocol` must be open()ed already and outlive the scrubber.
  explicit Scrubber(CheckpointProtocol& protocol);
  Scrubber(CheckpointProtocol& protocol, Options options);

  /// Stops and joins the background thread.
  ~Scrubber();

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// The commit/scrub exclusion lock. Hold it (via lock(), which
  /// announces the waiting commit) for the duration of any commit or
  /// restore so a pass never reads a half-rewritten buffer.
  [[nodiscard]] CommitExclusion& commit_exclusion() { return exclusion_; }

  /// Start the cadence thread (idempotent).
  void start();

  /// Stop and join the cadence thread (idempotent; also run by ~Scrubber).
  void stop();

  /// One deterministic synchronous pass — blocks on each chunk's exclusion
  /// acquisition instead of try-locking, so tests can inject a fault and
  /// assert the very next pass catches it. Returns the stats delta of this
  /// pass.
  ScrubStats scrub_now();

  /// Lifetime totals across background and synchronous passes.
  [[nodiscard]] ScrubStats stats() const;

 private:
  struct RegionState {
    std::vector<std::uint32_t> baseline;  ///< per-chunk CRC32C
  };

  /// Runs one pass, re-acquiring exclusion_ per chunk. `blocking` selects
  /// lock() (scrub_now) vs try_lock() (cadence thread) per acquisition; a
  /// failed try, an announced commit, or a mid-pass epoch change abandons
  /// the (non-blocking) pass. Holds pass_mutex_ throughout, so passes
  /// themselves never interleave.
  ScrubStats run_pass(bool blocking);
  void thread_loop();

  CheckpointProtocol& protocol_;
  Options options_;

  CommitExclusion exclusion_;
  /// Serializes whole passes (cadence thread vs. scrub_now) now that
  /// exclusion_ is only held per chunk. Lock order: pass_mutex_ before
  /// exclusion_; commits take exclusion_ alone, so no cycle exists.
  std::mutex pass_mutex_;
  /// Epoch the baselines describe; re-captured when the protocol commits.
  std::uint64_t baseline_epoch_ = ~std::uint64_t{0};
  std::vector<RegionState> regions_;  // parallel to protocol_.scrub_view()

  mutable std::mutex stats_mutex_;
  ScrubStats stats_;

  std::mutex thread_mutex_;
  std::condition_variable thread_cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace skt::ckpt
