#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>

#include "bench.hpp"

namespace vdxbench {
namespace {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

struct RoundStats {
  std::size_t n = 0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_percentile = 0.0;
};

/// With fewer than 11 samples the tail is the maximum.
RoundStats round_stats(std::vector<double> seconds) {
  RoundStats stats;
  stats.n = seconds.size();
  if (seconds.empty()) return stats;
  stats.p50_ms = median(seconds) * 1000.0;
  std::sort(seconds.begin(), seconds.end());
  const std::size_t n = seconds.size();
  if (n >= 11) {
    stats.tail_ms = seconds[n - 11] * 1000.0;
    stats.tail_percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    stats.tail_ms = seconds.back() * 1000.0;
    stats.tail_percentile = 100.0;
  }
  return stats;
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

/// Chains round digests [0, k) into the run digest.
std::string chain(const std::vector<std::uint64_t>& rounds, std::size_t k) {
  Digest digest;
  for (std::size_t i = 0; i < std::min(k, rounds.size()); ++i) digest.add(rounds[i]);
  return hex(digest.value());
}

}  // namespace

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

void Result::add(std::string name, double value, std::string unit, std::string note) {
  metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void add_end_to_end(Result& result, const EndToEnd& e2e) {
  const RoundStats rounds = round_stats(e2e.round_seconds);
  const double window = std::max(e2e.window_s, 1e-9);
  const double failed_fraction =
      e2e.offered_work > 0.0 ? e2e.failed_work / e2e.offered_work : 0.0;
  char note[160];
  std::snprintf(note, sizeof note, "median of %zu set-ups", e2e.setup_samples.size());
  result.add("setup_s", median(e2e.setup_samples), "s", note);
  std::snprintf(note, sizeof note, "%.0f sessions in %.3f s", e2e.sessions, window);
  result.add("sessions_per_s", e2e.sessions / window, "1/s", note);
  std::snprintf(note, sizeof note, "%zu rounds in %.3f s", rounds.n, window);
  result.add("rounds_per_s", static_cast<double>(rounds.n) / window, "1/s", note);
  std::snprintf(note, sizeof note, "n=%zu", rounds.n);
  result.add("round_p50_ms", rounds.p50_ms, "ms", note);
  std::snprintf(note, sizeof note, "p%.2f, n=%zu", rounds.tail_percentile, rounds.n);
  result.add("round_tail_ms", rounds.tail_ms, "ms", note);
  std::snprintf(note, sizeof note, "failed_fraction=%.6g (%.0f of %.0f)",
                failed_fraction, e2e.failed_work, e2e.offered_work);
  result.add("served_fraction", 1.0 - failed_fraction, "ratio", note);
  result.add("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of the workload process");
  result.check(rounds.n > 0, "no round completed inside the timed window");
}

void Digest::add(std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffU;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::add(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}


void compare_digests(Result& result, const std::vector<std::uint64_t>& reference,
                     const std::vector<std::uint64_t>& other, std::string_view what) {
  const std::size_t n = std::min(reference.size(), other.size());
  std::size_t first_mismatch = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (reference[i] != other[i]) {
      first_mismatch = i;
      break;
    }
  }
  result.check(n > 0, std::string{what} + ": no rounds to compare");
  result.check(first_mismatch == n, std::string{what} + ": decisions differ from round " +
                                        std::to_string(first_mismatch));
}

void finish_digest(Result& result, const Options& options,
                   const std::vector<std::uint64_t>& rounds, std::size_t k) {
  result.check(rounds.size() >= k, "fewer than " + std::to_string(k) +
                                       " decision rounds for the digest");
  result.digest_rounds = k;
  result.digest = chain(rounds, k);
  if (!options.expect_digest.empty()) {
    result.check(result.digest == options.expect_digest,
                 "digest " + result.digest + " differs from the recorded " +
                     options.expect_digest);
  }
}

double SpanTotals::self(std::string_view name) const {
  const auto it = self_s.find(name);
  return it == self_s.end() ? 0.0 : it->second;
}

double SpanTotals::calls(std::string_view name) const {
  const auto it = count.find(name);
  return it == count.end() ? 0.0 : static_cast<double>(it->second);
}

SpanTotals analyse(const vdx::obs::SpanTracer& tracer, std::size_t first,
                   std::size_t last) {
  const auto spans = tracer.spans();
  last = std::min(last, spans.size());
  std::vector<double> children(spans.size(), 0.0);
  for (std::size_t i = first; i < last; ++i) {
    const auto& span = spans[i];
    if (!span.closed || span.parent == UINT32_MAX) continue;
    children[span.parent] += span.wall_close_s - span.wall_open_s;
  }
  SpanTotals totals;
  for (std::size_t i = first; i < last; ++i) {
    const auto& span = spans[i];
    if (!span.closed) continue;
    const double self = span.wall_close_s - span.wall_open_s - children[i];
    const std::string_view name = tracer.name(span);
    auto it = totals.self_s.find(name);
    if (it == totals.self_s.end()) it = totals.self_s.emplace(std::string{name}, 0.0).first;
    it->second += self;
    auto ct = totals.count.find(name);
    if (ct == totals.count.end()) ct = totals.count.emplace(std::string{name}, 0).first;
    ++ct->second;
  }
  return totals;
}

double counter(const vdx::obs::MetricsRegistry& metrics, std::string_view name) {
  const auto row = metrics.find(name);
  return row ? row->value : 0.0;
}

void check_tracer(Result& result, const vdx::obs::SpanTracer& tracer) {
  result.check(tracer.dropped() == 0,
               "tracer dropped " + std::to_string(tracer.dropped()) +
                   " spans past its capacity of " + std::to_string(tracer.capacity()));
}

namespace {

/// Self time and span count of every span whose name starts with `prefix`.
std::pair<double, double> prefixed(const SpanTotals& totals, std::string_view prefix) {
  double self = 0.0, calls = 0.0;
  for (const auto& [name, seconds] : totals.self_s) {
    if (name.rfind(prefix, 0) != 0) continue;
    self += seconds;
    calls += static_cast<double>(totals.count.at(name));
  }
  return {self, calls};
}

}  // namespace

void fill_from_spans(Layers& layers, const SpanTotals& totals) {
  std::tie(layers.trace_self_s, layers.trace_calls) = prefixed(totals, "trace.");
  layers.sim_epoch_self_s = totals.self("timeline.epoch");
  layers.broker_gather_self_s = totals.self("decision.gather");
  layers.broker_optimize_self_s =
      totals.self("decision.optimize") + totals.self("broker.optimize");
  layers.cdn_matching_self_s = totals.self("decision.matching");
  layers.proto_wire_self_s = totals.self("decision.share") +
                             totals.self("decision.announce") +
                             totals.self("decision.accept");
  layers.solver_calls = totals.calls("solver.solve");
  layers.solver_self_s = totals.self("solver.solve");
  layers.market_push_delta_calls = totals.calls("market.push_delta");
  layers.market_push_delta_s = totals.self("market.push_delta");
  layers.market_round_self_s = totals.self("market.run_round");
  layers.serve_round_self_s = totals.self("serve.round");
  std::tie(layers.state_self_s, layers.state_calls) = prefixed(totals, "state.");
}

void add_layers(Result& result, const Layers& l, double traced_wall_s,
                double untraced_wall_s) {
  result.add("trace.calls", l.trace_calls, "count");
  result.add("trace.sessions", l.trace_sessions, "count");
  result.add("trace.self_s", l.trace_self_s, "s");
  result.add("sim.epoch_self_s", l.sim_epoch_self_s, "s");
  result.add("broker.gather_self_s", l.broker_gather_self_s, "s");
  result.add("broker.optimize_self_s", l.broker_optimize_self_s, "s");
  char note[160];
  std::snprintf(note, sizeof note, "%.0f allocations / %.0f bids", l.broker_allocations,
                l.broker_bids);
  result.add("broker.bid_win_ratio",
             l.broker_bids > 0 ? l.broker_allocations / l.broker_bids : 0.0, "ratio",
             note);
  result.add("cdn.matching_self_s", l.cdn_matching_self_s, "s");
  result.add("proto.wire_self_s", l.proto_wire_self_s, "s");
  result.add("proto.bytes_on_wire", l.proto_bytes_on_wire, "bytes");
  result.add("proto.shares_sent", l.proto_shares_sent, "count");
  result.add("proto.bids_received", l.proto_bids_received, "count");
  result.add("proto.accepts_sent", l.proto_accepts_sent, "count");
  result.add("solver.calls", l.solver_calls, "count");
  result.add("solver.self_s", l.solver_self_s, "s");
  result.add("market.push_delta_calls", l.market_push_delta_calls, "count");
  result.add("market.push_delta_s", l.market_push_delta_s, "s");
  result.add("market.round_self_s", l.market_round_self_s, "s");
  result.add("exchange.shard.frames", l.shard_frames, "count");
  result.add("exchange.shard.retries", l.shard_retries, "count");
  result.add("serve.shed_clients", l.serve_shed_clients, "count");
  result.add("serve.shed_rounds", l.serve_shed_rounds, "count");
  result.add("serve.queue_dropped", l.serve_queue_dropped, "count");
  result.add("serve.round_self_s", l.serve_round_self_s, "s");
  result.add("state.calls", l.state_calls, "count");
  result.add("state.bytes_written", l.state_bytes_written, "bytes");
  result.add("state.fsyncs", l.state_fsyncs, "count");
  result.add("state.self_s", l.state_self_s, "s");

  const double attributed = l.trace_self_s + l.sim_epoch_self_s +
                            l.broker_gather_self_s + l.broker_optimize_self_s +
                            l.cdn_matching_self_s + l.proto_wire_self_s +
                            l.solver_self_s + l.market_push_delta_s +
                            l.market_round_self_s + l.serve_round_self_s +
                            l.state_self_s;
  std::snprintf(note, sizeof note, "%.3f s traced wall, %.3f s attributed to layers",
                traced_wall_s, attributed);
  result.add("untraced_s", traced_wall_s - attributed, "s", note);
  std::snprintf(note, sizeof note, "traced %.3f s vs untraced %.3f s, same rounds",
                traced_wall_s, untraced_wall_s);
  result.add("trace_overhead", traced_wall_s / std::max(untraced_wall_s, 1e-9) - 1.0,
             "ratio", note);
}

}  // namespace vdxbench
