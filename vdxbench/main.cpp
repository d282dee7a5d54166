// vdxbench: one command per workload.
//
//   vdxbench --workload stream-1m|serve-overload|shard-churn --seed N
//            --seconds S --trace 0|1 [--size tiny] [--expect-digest HEX]
//            [--scratch DIR]
//
// Prints each metric as "name value unit (note)", then the decision digest,
// and as the last line one JSON object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer split.
// Exits 1 when an output check fails, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

using vdxbench::Options;
using vdxbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "vdxbench: %s\nusage: vdxbench --workload "
               "stream-1m|serve-overload|shard-churn --seed N --seconds S "
               "--trace 0|1 [--size tiny] [--expect-digest HEX] [--scratch DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  options.scratch = std::filesystem::current_path() / ".bench_build" / "scratch";
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag{argv[i]};
    if (i + 1 >= argc) usage("missing value for " + std::string{flag});
    const std::string value{argv[++i]};
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0)) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "tiny") usage("bad --size " + value);
      options.tiny = true;
    } else if (flag == "--expect-digest") {
      options.expect_digest = value;
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else {
      usage("unknown flag " + std::string{flag});
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

void print_number(double value) {
  // Every digit as measured; JSON has no NaN or infinity.
  if (std::isfinite(value)) {
    std::printf("%.17g", value);
  } else {
    std::printf("null");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Result result;
  try {
    if (options.workload == "stream-1m") {
      result = vdxbench::run_stream_1m(options);
    } else if (options.workload == "serve-overload") {
      result = vdxbench::run_serve_overload(options);
    } else if (options.workload == "shard-churn") {
      result = vdxbench::run_shard_churn(options);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vdxbench: %s failed: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }

  for (const vdxbench::Metric& m : result.metrics) {
    std::printf("%-24s %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
    std::printf("\n");
  }
  std::printf("digest %s seed=%llu rounds=%zu %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), result.digest_rounds,
              result.digest.c_str());
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "vdxbench: check failed: %s\n", error.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const vdxbench::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    print_number(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
