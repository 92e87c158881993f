// The background scrubber: silent bit flips in sealed checkpoint buffers
// must be DETECTED (CRC32C against the seal-time baseline) and, for
// mirror-backed regions, REPAIRED in place from the byte-identical twin —
// all between commits, without ever delaying one. These tests drive
// Session-owned scrubbers over live protocols inside the simulator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "ckpt/scrubber.hpp"
#include "ckpt/session.hpp"
#include "ckpt_harness.hpp"
#include "telemetry/metrics.hpp"
#include "testing.hpp"

namespace skt::ckpt {
namespace {

using skt::testing::fill_pattern;

/// A session whose cadence thread is parked far in the future, so every
/// pass in the test is an explicit, deterministic scrub_now().
Session manual_scrub_session(mpi::Comm& world, Strategy strategy, int parity,
                             CommitMode mode = CommitMode::kSync) {
  return SessionBuilder{}
      .strategy(strategy)
      .group_size(world.size())
      .data_bytes(4096)
      .parity_degree(parity)
      .key_prefix("scrub")
      .mode(mode)
      .scrub_interval(3600.0)
      .build(world);
}

ScrubRegion first_mirrored(std::vector<ScrubRegion> view) {
  for (ScrubRegion& r : view) {
    if (!r.mirror.empty()) return r;
  }
  throw std::logic_error("no mirror-backed scrub region");
}

TEST(Scrubber, DetectsAndRepairsBitFlipFromMirror) {
  skt::testing::MiniCluster mc(4);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    Session session = manual_scrub_session(world, Strategy::kSelf, 2);
    ASSERT_EQ(session.open(), OpenOutcome::kFresh);
    fill_pattern(session.data(), 7, world.rank(), 1);
    session.commit();

    ASSERT_NE(session.scrubber(), nullptr);
    session.scrubber()->scrub_now();  // baseline pass for this epoch

    ScrubRegion region = first_mirrored(session.unsafe_protocol().scrub_view());
    const std::byte original = region.bytes[5];
    region.bytes[5] ^= std::byte{0x40};

    const ScrubStats pass = session.scrubber()->scrub_now();
    EXPECT_GT(pass.chunks_verified, 0u);
    EXPECT_EQ(pass.corruption_detected, 1u);
    EXPECT_EQ(pass.repaired, 1u);
    EXPECT_EQ(pass.unrepaired, 0u);
    EXPECT_EQ(region.bytes[5], original);  // byte restored from the twin

    // The repaired buffer verifies clean on the next pass.
    const ScrubStats clean = session.scrubber()->scrub_now();
    EXPECT_EQ(clean.corruption_detected, 0u);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(Scrubber, UnmirroredCorruptionIsCountedNotRepaired) {
  skt::testing::MiniCluster mc(4);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    Session session = manual_scrub_session(world, Strategy::kSelf, 1);
    ASSERT_EQ(session.open(), OpenOutcome::kFresh);
    fill_pattern(session.data(), 11, world.rank(), 1);
    session.commit();
    session.scrubber()->scrub_now();

    // "B" (the full checkpoint copy) has no quiescent twin: detection
    // without repair is the honest outcome.
    std::vector<ScrubRegion> view = session.unsafe_protocol().scrub_view();
    ASSERT_FALSE(view.empty());
    ASSERT_TRUE(view.front().mirror.empty()) << view.front().name;
    view.front().bytes[9] ^= std::byte{0x01};

    const ScrubStats pass = session.scrubber()->scrub_now();
    EXPECT_EQ(pass.corruption_detected, 1u);
    EXPECT_EQ(pass.repaired, 0u);
    EXPECT_EQ(pass.unrepaired, 1u);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(Scrubber, RebaselinesAfterEveryCommitWithoutFalsePositives) {
  skt::testing::MiniCluster mc(4);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    Session session = manual_scrub_session(world, Strategy::kSelf, 2);
    ASSERT_EQ(session.open(), OpenOutcome::kFresh);
    std::uint64_t detected = 0;
    for (std::uint64_t it = 1; it <= 4; ++it) {
      // A legitimate full rewrite + commit must never read as corruption:
      // the epoch change makes the next pass recapture baselines.
      fill_pattern(session.data(), 13, world.rank(), it);
      session.commit();
      detected += session.scrubber()->scrub_now().corruption_detected;  // baseline
      detected += session.scrubber()->scrub_now().corruption_detected;  // verify
    }
    EXPECT_EQ(detected, 0u);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(Scrubber, DoubleFlipHittingBothTwinsIsNotMisrepaired) {
  skt::testing::MiniCluster mc(4);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    Session session = manual_scrub_session(world, Strategy::kSelf, 2);
    ASSERT_EQ(session.open(), OpenOutcome::kFresh);
    fill_pattern(session.data(), 17, world.rank(), 1);
    session.commit();
    session.scrubber()->scrub_now();

    // Corrupt the SAME chunk of both twins: neither side can vouch for
    // the other, so "repairing" one from the other would launder garbage.
    ScrubRegion region = first_mirrored(session.unsafe_protocol().scrub_view());
    region.bytes[2] ^= std::byte{0x08};
    region.mirror[2] ^= std::byte{0x80};

    const ScrubStats pass = session.scrubber()->scrub_now();
    EXPECT_EQ(pass.corruption_detected, 2u);  // once per twin region
    EXPECT_EQ(pass.repaired, 0u);
    EXPECT_EQ(pass.unrepaired, 2u);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(Scrubber, BackgroundCadenceThreadRepairsWhileRankIdles) {
  skt::testing::MiniCluster mc(4);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    Session session = SessionBuilder{}
                          .strategy(Strategy::kSelf)
                          .group_size(world.size())
                          .data_bytes(4096)
                          .parity_degree(2)
                          .key_prefix("scrub_bg")
                          .scrub_interval(0.0002)
                          .build(world);
    ASSERT_EQ(session.open(), OpenOutcome::kFresh);
    fill_pattern(session.data(), 19, world.rank(), 1);
    session.commit();

    // Let the cadence thread take its baseline, then flip a byte and wait
    // for the BACKGROUND pass (no scrub_now) to repair it.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (session.scrubber()->stats().passes == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(session.scrubber()->stats().passes, 0u) << "cadence thread never ticked";

    // Flip (and later re-read) under the commit-exclusion lock — the same
    // handshake commits use — so the cadence thread never sees a torn
    // write.
    ScrubRegion region = first_mirrored(session.unsafe_protocol().scrub_view());
    std::byte original;
    {
      std::lock_guard lock(session.scrubber()->commit_exclusion());
      original = region.bytes[64];
      region.bytes[64] ^= std::byte{0x20};
    }
    while (session.scrubber()->stats().repaired == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const ScrubStats stats = session.scrubber()->stats();
    EXPECT_GE(stats.corruption_detected, 1u);
    EXPECT_GE(stats.repaired, 1u);
    EXPECT_EQ(stats.unrepaired, 0u);
    {
      std::lock_guard lock(session.scrubber()->commit_exclusion());
      EXPECT_EQ(region.bytes[64], original);
    }
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

TEST(Scrubber, BlockedCommitAnnouncesItselfUntilItAcquires) {
  // The flag the cadence thread yields to: lock() raises it for as long as
  // it blocks and lowers it once it holds the mutex; try_lock() passes
  // straight through without announcing anything.
  CommitExclusion exclusion;
  EXPECT_FALSE(exclusion.commit_waiting());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> acquired{false};
  std::thread commit;
  {
    std::lock_guard held(exclusion);
    commit = std::thread([&] {
      std::lock_guard lock(exclusion);
      acquired.store(true);
    });
    while (!exclusion.commit_waiting() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(exclusion.commit_waiting()) << "a blocked lock() never announced itself";
    EXPECT_FALSE(acquired.load());  // still blocked behind `held`
    bool tried = true;
    std::thread([&] { tried = exclusion.try_lock(); }).join();
    EXPECT_FALSE(tried);
  }
  while (!acquired.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(acquired.load()) << "the announced commit never acquired";
  commit.join();
  EXPECT_FALSE(exclusion.commit_waiting());
}

TEST(Scrubber, AsyncCommitsAndCadenceScrubberCoexistCleanly) {
  // The commit-exclusion handshake under load: a fast cadence scrubber
  // racing an async commit pipeline must neither delay commits, tear
  // reads (TSan lane), nor report phantom corruption.
  skt::testing::MiniCluster mc(4);
  const std::uint64_t unrepaired_before =
      telemetry::metrics().counter("scrub.unrepaired").value();
  const std::uint64_t detected_before =
      telemetry::metrics().counter("scrub.corruption_detected").value();
  const auto result = mc.run(4, [](mpi::Comm& world) {
    skt::testing::CkptAppConfig config;
    config.strategy = Strategy::kSelf;
    config.group_size = world.size();
    config.parity_degree = 2;
    config.iterations = 8;
    config.data_bytes = 4096;
    config.mode = CommitMode::kAsync;
    config.scrub_interval = 0.0001;
    skt::testing::checkpointed_app(world, config);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_EQ(telemetry::metrics().counter("scrub.corruption_detected").value(),
            detected_before)
      << "phantom corruption under async commits";
  EXPECT_EQ(telemetry::metrics().counter("scrub.unrepaired").value(), unrepaired_before);
}

TEST(Scrubber, DoubleCheckpointRegionsAreScrubbableButUnmirrored) {
  skt::testing::MiniCluster mc(4);
  const auto result = mc.run(4, [](mpi::Comm& world) {
    Session session = manual_scrub_session(world, Strategy::kDouble, 2);
    ASSERT_EQ(session.open(), OpenOutcome::kFresh);
    fill_pattern(session.data(), 23, world.rank(), 1);
    session.commit();
    // Double-checkpoint's buffer pairs hold DIFFERENT epochs, so no region
    // may advertise a mirror (a cross-epoch "repair" would corrupt).
    for (const ScrubRegion& r : session.unsafe_protocol().scrub_view()) {
      EXPECT_TRUE(r.mirror.empty()) << r.name;
    }
    session.scrubber()->scrub_now();  // baseline
    const ScrubStats pass = session.scrubber()->scrub_now();
    EXPECT_GT(pass.chunks_verified, 0u);
    EXPECT_EQ(pass.corruption_detected, 0u);
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;
}

}  // namespace
}  // namespace skt::ckpt
