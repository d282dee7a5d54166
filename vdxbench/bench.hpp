// Shared pieces of the VDX benchmark binary: run options, the result a
// workload hands back, the end-to-end metric set, decision digests, and the
// span-tree analysis that turns a SpanTracer's spans into per-layer self
// times.
//
// Everything here sits outside the engines: workloads call the repository's
// public interfaces and read the spans and counters those interfaces already
// emit when handed an obs::Observer. See README.md for the metric contract.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace vdxbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: every workload shrinks its population so the whole
  /// matrix runs in seconds. Never used for measured runs.
  bool tiny = false;
  /// Expected decision digest (hex); empty skips the comparison.
  std::string expect_digest;
  /// Private scratch directory inside the checkout (checkpoint files).
  std::filesystem::path scratch;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  /// Digest of the first `digest_rounds` decisions (hex).
  std::string digest;
  std::size_t digest_rounds = 0;

  /// Records a failed output check; the run then reports correct=false.
  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit, std::string note = {});
};

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// End-to-end metrics shared by every workload. `setup_samples` are the
/// repeated set-ups (median reported); `window_s` is the timed window. The
/// round tail is the highest percentile with at least ten samples beyond it:
/// the 11th-largest round, at percentile 100 * (n - 10) / n.
struct EndToEnd {
  std::vector<double> setup_samples;
  double window_s = 0.0;
  double sessions = 0.0;
  std::vector<double> round_seconds;
  /// Refused or failed work over offered work (reported as its complement).
  double failed_work = 0.0;
  double offered_work = 0.0;
};
void add_end_to_end(Result& result, const EndToEnd& e2e);

/// FNV-1a over the bytes of decision fields. One digest per round; the run
/// digest chains the per-round digests of the first K rounds.
class Digest {
 public:
  void add(std::uint64_t value) noexcept;
  void add(double value) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};
/// Compares two per-round digest sequences over their common prefix and
/// records a mismatch on `result`.
void compare_digests(Result& result, const std::vector<std::uint64_t>& reference,
                     const std::vector<std::uint64_t>& other, std::string_view what);
/// Sets the run digest (the first k round digests chained) and checks it
/// against --expect-digest when one was given.
void finish_digest(Result& result, const Options& options,
                   const std::vector<std::uint64_t>& rounds, std::size_t k);

/// Self time (span duration minus the time its direct children cover) and
/// span counts, summed per span name over spans [first, last).
struct SpanTotals {
  std::map<std::string, double, std::less<>> self_s;
  std::map<std::string, std::size_t, std::less<>> count;

  [[nodiscard]] double self(std::string_view name) const;
  [[nodiscard]] double calls(std::string_view name) const;
};
[[nodiscard]] SpanTotals analyse(const vdx::obs::SpanTracer& tracer,
                                 std::size_t first = 0,
                                 std::size_t last = SIZE_MAX);

/// A span opened from benchmark code around a call into a layer; a null
/// tracer makes it free.
class BenchSpan {
 public:
  BenchSpan(vdx::obs::SpanTracer* tracer, std::string_view name)
      : tracer_(tracer), token_(tracer != nullptr ? tracer->begin(name) : 0) {}
  ~BenchSpan() {
    if (tracer_ != nullptr) tracer_->end(token_);
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  vdx::obs::SpanTracer* tracer_;
  std::uint64_t token_;
};

/// A counter's value, 0 when the registry never registered it.
[[nodiscard]] double counter(const vdx::obs::MetricsRegistry& metrics,
                             std::string_view name);

/// Fails the run when the tracer dropped spans: per-layer numbers must never
/// come from a truncated trace.
void check_tracer(Result& result, const vdx::obs::SpanTracer& tracer);

/// Every per-layer metric of a traced run; a layer a workload does not run
/// stays 0. Span-derived fields come from fill_from_spans(), counters from
/// the workload.
struct Layers {
  double trace_calls = 0, trace_sessions = 0, trace_self_s = 0;
  double sim_epoch_self_s = 0;
  double broker_gather_self_s = 0, broker_optimize_self_s = 0;
  double broker_bids = 0, broker_allocations = 0;
  double cdn_matching_self_s = 0;
  double proto_wire_self_s = 0, proto_bytes_on_wire = 0, proto_shares_sent = 0,
         proto_bids_received = 0, proto_accepts_sent = 0;
  double solver_calls = 0, solver_self_s = 0;
  double market_push_delta_calls = 0, market_push_delta_s = 0, market_round_self_s = 0,
         shard_frames = 0, shard_retries = 0;
  double serve_shed_clients = 0, serve_shed_rounds = 0, serve_queue_dropped = 0,
         serve_round_self_s = 0;
  double state_calls = 0, state_bytes_written = 0, state_fsyncs = 0, state_self_s = 0;
};
/// Maps span names onto layers: engine spans (timeline.epoch, decision.*,
/// broker.optimize, solver.solve) and the benchmark's own spans around
/// calls into a layer (trace.*, state.*, market.*, serve.round).
void fill_from_spans(Layers& layers, const SpanTotals& totals);
/// Adds every per-layer metric, plus untraced_s (traced wall minus the sum of
/// the layer self times) and trace_overhead (traced over untraced wall of
/// the same rounds, minus 1).
void add_layers(Result& result, const Layers& layers, double traced_wall_s,
                double untraced_wall_s);

/// Tracer receiving the bench-side solver.solve spans of solver_probe.cpp;
/// null (the default) leaves the wrapper a plain forward.
extern vdx::obs::SpanTracer* solver_tracer;

[[nodiscard]] Result run_stream_1m(const Options& options);
[[nodiscard]] Result run_serve_overload(const Options& options);
[[nodiscard]] Result run_shard_churn(const Options& options);

}  // namespace vdxbench
