// perfbench: the repository benchmark. Runs one workload for --seconds,
// checks its outputs, and prints one JSON result line last:
//
//   perfbench --workload hpl_fail|commit_full|commit_sparse --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans, runs
// the layer probe and prints the per-layer metrics. See README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench.hpp"
#include "selftest.hpp"
#include "util/log.hpp"

namespace perfbench {
namespace {
const std::int64_t g_process_start = now_ns();
}  // namespace

std::int64_t process_start_ns() { return g_process_start; }

SpanLog& spans() {
  static SpanLog log;
  return log;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(mutex_);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f}",
                  i == 0 ? "" : ",", s.name, s.job, s.rank,
                  static_cast<double>(s.t0_ns - g_process_start) * 1e-3,
                  static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3);
    out << line;
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload hpl_fail|commit_full|commit_sparse "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

void print_result(const RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("--seed takes a whole number");
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0 && opts.seconds <= 3600)) {
        return usage("--seconds takes a number in (0, 3600]");
      }
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (key == "--out-dir") {
      opts.out_dir = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (!have_seconds) return usage("--seconds is required");
  skt::util::set_log_level(skt::util::LogLevel::kError);
#if defined(__GLIBC__)
  // Fix glibc's mmap threshold at its documented starting value (128 KiB).
  // Left dynamic, glibc raises it after the first free of a large mmapped
  // block, and from then on serves multi-MiB commit buffers from reused
  // heap memory instead of fresh pages. When that happens depends on the
  // order of frees across rank threads, so one process saw 0.4 and another
  // 0.6 million page faults per commit_full job, and commit times moved by
  // a quarter between runs. Fixed, every large buffer is a fresh mapping in
  // every run: the program's allocation cost always shows, the same way.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif

  RunResult result;
  try {
    if (opts.workload == "hpl_fail") {
      result = run_hpl_workload(opts);
    } else if (opts.workload == "commit_full" || opts.workload == "commit_sparse") {
      result = run_commit_workload(opts);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& wrong : check_self_test()) {
    result.fail("output check gave the wrong verdict: " + wrong);
  }
  for (Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.fail("metric " + m.name + " is not a finite number");
      m.value = 0;
    }
  }
  for (const std::string& why : result.problems) {
    std::fprintf(stderr, "INCORRECT: %s\n", why.c_str());
  }
  print_result(result);
  return 0;
}
