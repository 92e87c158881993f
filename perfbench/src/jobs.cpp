#include "jobs.hpp"

#include <algorithm>
#include <vector>

namespace perfbench {

using namespace skt;

ckpt::Session build_session(mpi::Comm& world, const Geometry& g, const std::string& key_prefix) {
  return ckpt::SessionBuilder{}
      .strategy(ckpt::Strategy::kSelf)
      .data_bytes(g.pattern.data_bytes)
      .user_bytes(g.user_bytes)
      .codec(enc::CodecKind::kXor)
      .parity_degree(g.parity)
      .group_size(kRanks)
      .mode(g.async ? ckpt::CommitMode::kAsync : ckpt::CommitMode::kSync)
      .scrub_interval(g.scrub_s)
      .key_prefix(key_prefix)
      .build(world);
}

std::int64_t cold_setup(const Geometry& g, std::uint64_t seed) {
  sim::Cluster cluster({.num_nodes = kRanks, .spare_nodes = 0, .nodes_per_rack = kRanks});
  mpi::Runtime runtime(cluster, mpi::JobLauncher::default_ranklist(cluster, kRanks, 1));
  std::vector<std::int64_t> committed(kRanks, 0);
  const mpi::JobResult job = runtime.run([&](mpi::Comm& world) {
    const int r = world.rank();
    ckpt::Session session = build_session(world, g, "perfbench-setup");
    session.open();
    const std::span<std::byte> data = session.data().first(g.pattern.data_bytes);
    for (std::size_t b = 0; b < g.pattern.blocks(); ++b) write_block(data, step_key(seed, r, 0), b);
    session.commit();
    committed[static_cast<std::size_t>(r)] = now_ns();
  });
  if (!job.completed) return 0;
  return *std::max_element(committed.begin(), committed.end());
}

}  // namespace perfbench
