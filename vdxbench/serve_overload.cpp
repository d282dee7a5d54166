// serve-overload: serve::ServeDaemon over a GeneratorFeed at twice a 1x
// load, with the admission budget at 1.5x the 1x peak round demand (the
// bench_serving_load calibration), an arrival-queue bound at 1.5x the 1x peak
// active population, and a checkpoint every 25 rounds through
// CheckpointStore. It is the only workload that runs serve admission and
// state persistence, and it is bound by the per-round wire and bid path.
//
// Timed window: from the top of round 1 (round 0, which builds the agents'
// menus, is a warm-up) until --seconds have passed; rounds run back to back.
// Round samples are the wall times between consecutive round_hook calls, so
// a round's checkpoint write counts in that round.
#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <unistd.h>

#include "bench.hpp"
#include "serve/codec.hpp"
#include "serve/daemon.hpp"
#include "serve/feed.hpp"
#include "state/fs.hpp"

namespace vdxbench {
namespace {

using namespace vdx;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;

struct Shape {
  std::size_t sessions_per_hour;
  double hours;
  double round_s = 30.0;
  double load = 2.0;
  double budget_factor = 1.5;
  double queue_factor = 2.0;
  std::size_t checkpoint_every;
  std::size_t digest_rounds;
  std::size_t traced_rounds;
};

Shape shape_for(const Options& options) {
  if (!options.tiny) {
    return {.sessions_per_hour = 1'500, .hours = 24.0, .checkpoint_every = 25,
            .digest_rounds = 100, .traced_rounds = 240};
  }
  // The tiny shape tightens budget and queue bound so a 30-round self-test
  // still sheds at both layers.
  return {.sessions_per_hour = 600, .hours = 2.0, .budget_factor = 1.25,
          .queue_factor = 1.75, .checkpoint_every = 5, .digest_rounds = 20,
          .traced_rounds = 30};
}

sim::ScenarioConfig scenario_config_for(const Shape& shape) {
  sim::ScenarioConfig config;
  config.trace.session_count = shape.sessions_per_hour;  // pilot only
  return config;
}

trace::TraceConfig feed_config(const sim::Scenario& scenario, const Shape& shape,
                               double load) {
  trace::TraceConfig config = scenario.config().trace;
  config.duration_s = shape.hours * 3600.0;
  config.session_count = static_cast<std::size_t>(
      load * static_cast<double>(shape.sessions_per_hour) * shape.hours + 0.5);
  return config;
}

serve::GeneratorFeed make_feed(const sim::Scenario& scenario, const Shape& shape,
                               double load, std::uint64_t seed) {
  core::Rng root{seed};
  // Blocks of 8K sessions instead of the generator's 64K keep the generator's
  // resident block small next to the daemon's ~10 MB footprint, so peak RSS
  // reflects the daemon rather than one 3 MB input buffer.
  trace::BrokerTraceGenerator::Options options;
  options.block_sessions = 8192;
  return serve::GeneratorFeed{scenario.world(), feed_config(scenario, shape, load),
                              root.fork("stream-trace"), options};
}

/// Peak round demand and peak active population of the 1x feed over its
/// first hour (the bench_serving_load smoke horizon), computed from the
/// arrivals alone with the daemon's half-open [arrival, end) activity at
/// round midpoints.
struct Calibration {
  double peak_demand_mbps = 0.0;
  std::size_t peak_active = 0;
};

Calibration calibrate(const sim::Scenario& scenario, const Shape& shape) {
  // A fixed reference feed, not the run's seed: the budget is deployment
  // configuration, provisioned once, and every seed's traffic meets the same
  // budget.
  serve::GeneratorFeed feed = make_feed(scenario, shape, 1.0, scenario.config().seed);
  using Departure = std::pair<double, double>;  // (end_s, bitrate)
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>> active;
  Calibration calibration;
  double demand = 0.0;
  const auto rounds = static_cast<std::size_t>(3600.0 / shape.round_s);
  for (std::size_t r = 0; r < rounds; ++r) {
    const double t = (static_cast<double>(r) + 0.5) * shape.round_s;
    for (const trace::Session& s : feed.next_until(t)) {
      active.emplace(s.end_s(), s.bitrate_mbps);
      demand += s.bitrate_mbps;
    }
    while (!active.empty() && active.top().first <= t) {
      demand -= active.top().second;
      active.pop();
    }
    calibration.peak_demand_mbps = std::max(calibration.peak_demand_mbps, demand);
    calibration.peak_active = std::max(calibration.peak_active, active.size());
  }
  return calibration;
}

/// ArrivalFeed decorator: counts and times next_until, with a
/// trace.next_until span when a tracer is attached.
class TimedFeed final : public serve::ArrivalFeed {
 public:
  TimedFeed(serve::ArrivalFeed& inner, obs::SpanTracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::vector<trace::Session> next_until(double t) override {
    const BenchSpan span{tracer_, "trace.next_until"};
    auto out = inner_.next_until(t);
    sessions += out.size();
    return out;
  }
  [[nodiscard]] bool exhausted() const override { return inner_.exhausted(); }
  [[nodiscard]] double duration_s() const override { return inner_.duration_s(); }
  [[nodiscard]] std::uint64_t consumed() const override { return inner_.consumed(); }
  void seek(std::uint64_t consumed) override { inner_.seek(consumed); }
  [[nodiscard]] bool seekable() const override { return inner_.seekable(); }

  std::size_t sessions = 0;

 private:
  serve::ArrivalFeed& inner_;
  obs::SpanTracer* tracer_;
};

/// state::FileSystem decorator over the host filesystem: counts calls,
/// bytes written, fsyncs and failures, with a state.<op> span per call.
class TimedFs final : public state::FileSystem {
 public:
  explicit TimedFs(obs::SpanTracer* tracer) : tracer_(tracer) {}

  core::Result<Handle> open_write(const std::filesystem::path& path) override {
    const BenchSpan span{tracer_, "state.open_write"};
    return note(inner_.open_write(path));
  }
  core::Status write(Handle handle, std::span<const std::uint8_t> bytes) override {
    const BenchSpan span{tracer_, "state.write"};
    bytes_written += bytes.size();
    return note(inner_.write(handle, bytes));
  }
  core::Status fsync(Handle handle) override {
    const BenchSpan span{tracer_, "state.fsync"};
    ++fsyncs;
    return note(inner_.fsync(handle));
  }
  core::Status close(Handle handle) override {
    const BenchSpan span{tracer_, "state.close"};
    return note(inner_.close(handle));
  }
  core::Status rename(const std::filesystem::path& from,
                      const std::filesystem::path& to) override {
    const BenchSpan span{tracer_, "state.rename"};
    return note(inner_.rename(from, to));
  }
  core::Status remove(const std::filesystem::path& path) override {
    const BenchSpan span{tracer_, "state.remove"};
    return note(inner_.remove(path));
  }
  core::Status create_directories(const std::filesystem::path& dir) override {
    const BenchSpan span{tracer_, "state.create_directories"};
    return note(inner_.create_directories(dir));
  }
  core::Result<std::vector<std::filesystem::path>> list_dir(
      const std::filesystem::path& dir) override {
    const BenchSpan span{tracer_, "state.list_dir"};
    return note(inner_.list_dir(dir));
  }
  core::Result<std::vector<std::uint8_t>> read_file(
      const std::filesystem::path& path) override {
    const BenchSpan span{tracer_, "state.read_file"};
    return note(inner_.read_file(path));
  }

  std::size_t calls = 0;
  std::size_t bytes_written = 0;
  std::size_t fsyncs = 0;
  std::size_t failures = 0;

 private:
  template <typename R>
  R note(R result) {
    ++calls;
    if (!result.ok()) ++failures;
    return result;
  }

  state::FileSystem& inner_ = state::real_fs();
  obs::SpanTracer* tracer_;
};

/// Removes a scratch directory on every exit path.
struct ScratchDir {
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::filesystem::path path;
};

constexpr const char* kWindowCounters[] = {
    "serve.queue_dropped", "proto.bytes_on_wire",  "proto.shares_sent",
    "proto.bids_received", "proto.accepts_sent",   "broker.optimize.bids",
    "broker.optimize.allocations"};

/// What one daemon run measured inside its timed window.
struct Serve {
  double window_s = 0.0;
  std::vector<double> round_seconds;
  std::vector<std::uint64_t> digests;
  double window_sessions = 0.0;
  double offered_clients = 0.0;
  double shed_clients = 0.0;
  double shed_rounds = 0.0;
  std::map<std::string, double, std::less<>> counters;  // window deltas
  std::size_t state_calls = 0, state_bytes = 0, state_fsyncs = 0;
  std::size_t window_rounds = 0;
  std::size_t first_span = 0, last_span = 0;
};

/// One daemon run. The window opens at the top of round 1 and closes at the
/// top of the first round after --seconds (untraced) or after
/// `fixed_rounds` window rounds (both halves of a traced run).
Serve run_daemon(const sim::Scenario& scenario, const Shape& shape,
                 const Calibration& calibration, const Options& options,
                 std::size_t fixed_rounds, obs::SpanTracer* tracer,
                 const std::string& tag, Result& result) {
  constexpr std::uint64_t kWarmupRounds = 1;
  serve::GeneratorFeed generator = make_feed(scenario, shape, shape.load, options.seed);
  TimedFeed feed{generator, tracer};
  TimedFs fs{tracer};
  obs::MetricsRegistry metrics;
  const ScratchDir dir{options.scratch /
                       ("serve-" + std::to_string(::getpid()) + "-" + tag)};
  const double budget = shape.budget_factor * calibration.peak_demand_mbps;

  std::atomic<bool> stop{false};
  std::ostringstream lines;
  Serve out;
  std::optional<double> window_start;
  double previous_hook = 0.0;
  std::uint64_t token = 0;
  std::size_t feed_at_start = 0, fs_calls = 0, fs_bytes = 0, fs_fsyncs = 0;

  const auto hook = [&](std::uint64_t r) {
    const double t = now_s();
    if (tracer != nullptr && token != 0) tracer->end(token);
    // Decision lines of the round that just ended.
    bool decided = false;
    std::istringstream in{lines.str()};
    for (std::string text; std::getline(in, text);) {
      const auto parsed = serve::parse_decision(text);
      result.check(parsed.ok(), "unparseable decision line: " + text);
      if (!parsed.ok()) continue;
      const serve::DecisionLine& line = parsed.value();
      result.check(line.admitted_mbps <= budget * (1.0 + 1e-12),
                   "round " + std::to_string(line.round) + " admitted " +
                       std::to_string(line.admitted_mbps) + " Mbps over budget " +
                       std::to_string(budget));
      Digest digest;  // decisions only: logical_ticks depends on the tracer
      digest.add(line.round);
      digest.add(line.active_sessions);
      for (const double v : {line.demand_mbps, line.admitted_mbps, line.shed_mbps,
                             line.shed_clients, line.mean_score, line.mean_cost}) {
        digest.add(v);
      }
      out.digests.push_back(digest.value());
      decided = true;
      if (window_start) {
        out.offered_clients += static_cast<double>(line.active_sessions);
        out.shed_clients += line.shed_clients;
        if (line.shed_mbps > 0.0) out.shed_rounds += 1.0;
      }
    }
    lines.str("");
    lines.clear();

    // The lines read above belong to round r - 1, timed from its hook to this.
    if (window_start && decided) out.round_seconds.push_back(t - previous_hook);
    previous_hook = t;

    if (r == kWarmupRounds) {
      window_start = t;
      feed_at_start = feed.sessions;
      fs_calls = fs.calls, fs_bytes = fs.bytes_written, fs_fsyncs = fs.fsyncs;
      for (const char* name : kWindowCounters) out.counters[name] = -counter(metrics, name);
      if (tracer != nullptr) out.first_span = tracer->spans().size();
    }
    const bool done =
        window_start &&
        (fixed_rounds > 0 ? r >= kWarmupRounds + fixed_rounds
                          : t - *window_start >= options.seconds &&
                                out.digests.size() >= shape.digest_rounds);
    if (done) {
      stop.store(true);
      out.window_s = t - *window_start;
      out.window_rounds = r - kWarmupRounds;
      out.window_sessions = static_cast<double>(feed.sessions - feed_at_start);
      out.state_calls = fs.calls - fs_calls;
      out.state_bytes = fs.bytes_written - fs_bytes;
      out.state_fsyncs = fs.fsyncs - fs_fsyncs;
      for (auto& [name, value] : out.counters) value += counter(metrics, name);
      if (tracer != nullptr) out.last_span = tracer->spans().size();
      token = 0;
      return;
    }
    token = tracer != nullptr ? tracer->begin("serve.round") : 0;
  };

  serve::ServeConfig config;
  config.round_s = shape.round_s;
  config.queue_capacity =
      static_cast<std::size_t>(shape.queue_factor * static_cast<double>(calibration.peak_active));
  config.checkpoint_every_rounds = shape.checkpoint_every;
  config.checkpoint_dir = dir.path;
  config.checkpoint_keep = 3;
  config.stop = &stop;
  config.decisions = &lines;
  config.exchange.overload.demand_budget_mbps = budget;
  config.checkpoint_fs = &fs;
  config.round_hook = hook;
  config.obs.metrics = &metrics;
  config.obs.tracer = tracer;

  serve::ServeDaemon daemon{scenario, feed, std::move(config)};
  const serve::ServeReport report = daemon.run();
  result.check(report.drained, "the feed ran out before the timed window closed");
  result.check(fs.failures == 0,
               std::to_string(fs.failures) + " checkpoint filesystem calls failed");
  result.check(report.checkpoint_skips == 0,
               std::to_string(report.checkpoint_skips) + " checkpoints skipped");
  return out;
}

}  // namespace

Result run_serve_overload(const Options& options) {
  Result result;
  const Shape shape = shape_for(options);
  const sim::ScenarioConfig scenario_config = scenario_config_for(shape);
  (void)std::filesystem::create_directories(options.scratch);

  if (!options.trace) {
    EndToEnd e2e;
    std::optional<sim::Scenario> scenario;
    Calibration calibration;
    for (int i = 0; i < kSetups; ++i) {
      scenario.reset();
      const double start = now_s();
      scenario.emplace(sim::Scenario::build(scenario_config));
      calibration = calibrate(*scenario, shape);
      e2e.setup_samples.push_back(now_s() - start);
    }
    const Serve run =
        run_daemon(*scenario, shape, calibration, options, 0, nullptr, "e2e", result);
    e2e.window_s = run.window_s;
    e2e.sessions = run.window_sessions;
    e2e.round_seconds = run.round_seconds;
    const double dropped = run.counters.at("serve.queue_dropped");
    e2e.failed_work = run.shed_clients + dropped;
    e2e.offered_work = run.offered_clients + dropped;
    result.attempted = run.round_seconds.size();
    add_end_to_end(result, e2e);
    finish_digest(result, options, run.digests, shape.digest_rounds);
    return result;
  }

  const sim::Scenario scenario = sim::Scenario::build(scenario_config);
  const Calibration calibration = calibrate(scenario, shape);
  const Serve untraced = run_daemon(scenario, shape, calibration, options,
                                    shape.traced_rounds, nullptr, "untraced", result);
  // Spans per round: serve.round, trace.next_until, ~10 protocol and solver
  // spans, and the state.* calls of a checkpoint; capacity has 4x head-room.
  obs::SpanTracer tracer{(shape.traced_rounds + 16) * 128};
  const Serve traced = run_daemon(scenario, shape, calibration, options,
                                  shape.traced_rounds, &tracer, "traced", result);
  check_tracer(result, tracer);
  compare_digests(result, untraced.digests, traced.digests, "traced vs untraced");
  result.attempted = traced.window_rounds;

  Layers layers;
  fill_from_spans(layers, analyse(tracer, traced.first_span, traced.last_span));
  layers.trace_sessions = traced.window_sessions;
  layers.proto_bytes_on_wire = traced.counters.at("proto.bytes_on_wire");
  layers.proto_shares_sent = traced.counters.at("proto.shares_sent");
  layers.proto_bids_received = traced.counters.at("proto.bids_received");
  layers.proto_accepts_sent = traced.counters.at("proto.accepts_sent");
  layers.broker_bids = traced.counters.at("broker.optimize.bids");
  layers.broker_allocations = traced.counters.at("broker.optimize.allocations");
  layers.serve_shed_clients = traced.shed_clients;
  layers.serve_shed_rounds = traced.shed_rounds;
  layers.serve_queue_dropped = traced.counters.at("serve.queue_dropped");
  layers.state_bytes_written = static_cast<double>(traced.state_bytes);
  layers.state_fsyncs = static_cast<double>(traced.state_fsyncs);
  result.check(layers.state_calls == static_cast<double>(traced.state_calls),
               "state spans and state calls disagree");
  add_layers(result, layers, traced.window_s, untraced.window_s);
  finish_digest(result, options, traced.digests, shape.digest_rounds);
  return result;
}

}  // namespace vdxbench
