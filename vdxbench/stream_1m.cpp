// stream-1m: the paper-scale batch path. sim::StreamingTimeline runs the
// marketplace design over 1M broker + 3M background sessions streamed from
// the chunked trace generator across 6 h of 300 s epochs. It has no proto
// wire at all; solve and generate bound it.
//
// Timed window: whole StreamingTimeline::run() calls (passes), back to back.
// A pass includes the engine's candidate-menu build before epoch 0, which
// every run of the engine pays. Round samples are the epochs, timed by the
// engine's own timeline.epoch span (the only span the untraced run records).
#include <memory>
#include <optional>

#include "bench.hpp"
#include "sim/streaming.hpp"

namespace vdxbench {
namespace {

using namespace vdx;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;

struct Shape {
  std::size_t broker_sessions;
  double hours;
  double epoch_s = 300.0;
  std::size_t threads = 4;
};

Shape shape_for(const Options& options) {
  if (options.tiny) return {.broker_sessions = 20'000, .hours = 1.0};
  return {.broker_sessions = 1'000'000, .hours = 6.0};
}

sim::ScenarioConfig scenario_config_for(const Shape& shape) {
  sim::ScenarioConfig config;
  // The scenario contributes world, catalog and mapping; its pilot trace
  // stays small whatever the streamed session count.
  config.trace.session_count = 10'000;
  config.trace.duration_s = shape.hours * 3600.0;
  return config;
}

/// The seeded inputs of one set-up: broker and background generators.
struct Streams {
  Streams(const sim::Scenario& scenario, const Shape& shape, std::uint64_t seed) {
    const sim::ScenarioConfig& config = scenario.config();
    core::Rng root{seed};
    trace::TraceConfig broker_trace = config.trace;
    broker_trace.session_count = shape.broker_sessions;
    trace::TraceConfig background_trace = broker_trace;
    background_trace.session_count = static_cast<std::size_t>(
        config.background_multiplier * static_cast<double>(shape.broker_sessions));
    trace::BrokerTraceGenerator::Options background_options;
    background_options.broker_controlled = false;
    broker = std::make_unique<trace::BrokerTraceGenerator>(
        scenario.world(), broker_trace, root.fork("stream-trace"));
    background = std::make_unique<trace::BrokerTraceGenerator>(
        scenario.world(), background_trace, root.fork("stream-background"),
        background_options);
  }
  std::unique_ptr<trace::BrokerTraceGenerator> broker;
  std::unique_ptr<trace::BrokerTraceGenerator> background;
};

/// SessionStream decorator: a trace.next_batch span around each generator
/// call when a tracer is attached.
class TimedStream final : public sim::SessionStream {
 public:
  TimedStream(trace::BrokerTraceGenerator& generator, obs::SpanTracer* tracer)
      : inner_(generator), tracer_(tracer) {}

  [[nodiscard]] std::vector<trace::Session> next_batch(std::size_t max_sessions) override {
    const BenchSpan span{tracer_, "trace.next_batch"};
    return inner_.next_batch(max_sessions);
  }
  [[nodiscard]] bool exhausted() const override { return inner_.exhausted(); }
  [[nodiscard]] double duration_s() const override { return inner_.duration_s(); }
  void seek(std::uint64_t consumed) override { inner_.seek(consumed); }

 private:
  sim::GeneratorStream inner_;
  obs::SpanTracer* tracer_;
};

struct Pass {
  double wall_s = 0.0;
  std::vector<double> epoch_seconds;
  std::vector<std::uint64_t> digests;
  double sessions = 0.0;
  double shed = 0.0;
};

std::size_t epochs_of(const Shape& shape) {
  return static_cast<std::size_t>(shape.hours * 3600.0 / shape.epoch_s + 0.5);
}

/// One run() over fresh streams. `tracer` always records timeline.epoch; with
/// `layers` it also receives the bench-side generator and solver spans.
Pass run_pass(const sim::Scenario& scenario, const Shape& shape, Streams& streams,
              obs::SpanTracer& tracer, obs::MetricsRegistry* metrics, bool layers,
              Result& result) {
  streams.broker->reset();
  streams.background->reset();
  TimedStream broker{*streams.broker, layers ? &tracer : nullptr};
  TimedStream background{*streams.background, layers ? &tracer : nullptr};

  sim::StreamingConfig config;
  config.design = sim::Design::kMarketplace;
  config.epoch_s = shape.epoch_s;
  config.run.threads = shape.threads;
  config.obs.tracer = &tracer;
  config.obs.metrics = metrics;
  const std::size_t first_span = tracer.spans().size();

  Pass pass;
  solver_tracer = layers ? &tracer : nullptr;
  const double start = now_s();
  const sim::StreamingResult run =
      sim::StreamingTimeline{scenario, config}.run(broker, background);
  pass.wall_s = now_s() - start;
  solver_tracer = nullptr;

  const auto spans = tracer.spans();
  for (std::size_t i = first_span; i < spans.size(); ++i) {
    if (tracer.name(spans[i]) == "timeline.epoch") {
      pass.epoch_seconds.push_back(spans[i].wall_close_s - spans[i].wall_open_s);
    }
  }
  for (const sim::EpochReport& epoch : run.timeline.epochs) {
    result.check(epoch.assigned_sessions + epoch.shed_sessions <= epoch.active_sessions,
                 "epoch " + std::to_string(epoch.epoch) + ": assigned + shed > active");
    Digest digest;
    digest.add(std::uint64_t{epoch.epoch});
    digest.add(epoch.time_s);
    digest.add(std::uint64_t{epoch.active_sessions});
    digest.add(std::uint64_t{epoch.assigned_sessions});
    digest.add(std::uint64_t{epoch.shed_sessions});
    digest.add(epoch.cdn_switch_fraction);
    digest.add(epoch.cluster_switch_fraction);
    const sim::DesignMetrics& m = epoch.metrics;
    for (const double v : {m.median_cost, m.median_score, m.median_distance_miles,
                           m.median_load, m.congested_fraction, m.mean_cost,
                           m.mean_score, m.broker_traffic_mbps}) {
      digest.add(v);
    }
    pass.digests.push_back(digest.value());
  }
  result.check(pass.epoch_seconds.size() == epochs_of(shape),
               "expected " + std::to_string(epochs_of(shape)) + " epochs, saw " +
                   std::to_string(pass.epoch_seconds.size()));
  pass.sessions = static_cast<double>(run.broker_sessions + run.background_sessions);
  pass.shed = static_cast<double>(run.shed_sessions);
  return pass;
}

std::size_t tracer_capacity(const Shape& shape, const Streams& streams) {
  const std::size_t sessions =
      streams.broker->total_sessions() + streams.background->total_sessions();
  // Epoch, solver and generator spans, with generous head-room: the exact
  // count is checked after the run (dropped() must be 0).
  return 64 * epochs_of(shape) + 4 * (sessions / 8192 + epochs_of(shape)) + 4096;
}

}  // namespace

Result run_stream_1m(const Options& options) {
  Result result;
  const Shape shape = shape_for(options);
  const sim::ScenarioConfig scenario_config = scenario_config_for(shape);

  if (!options.trace) {
    EndToEnd e2e;
    std::optional<sim::Scenario> scenario;
    std::optional<Streams> streams;
    for (int i = 0; i < kSetups; ++i) {
      streams.reset();
      scenario.reset();
      const double start = now_s();
      scenario.emplace(sim::Scenario::build(scenario_config));
      streams.emplace(*scenario, shape, options.seed);
      e2e.setup_samples.push_back(now_s() - start);
    }

    std::vector<std::uint64_t> reference;
    double last_pass = 0.0;
    while (e2e.window_s == 0.0 || e2e.window_s + last_pass <= options.seconds) {
      obs::SpanTracer tracer{epochs_of(shape) + 16};
      const Pass pass = run_pass(*scenario, shape, *streams, tracer, nullptr, false, result);
      check_tracer(result, tracer);
      if (reference.empty()) {
        reference = pass.digests;
      } else {
        compare_digests(result, reference, pass.digests, "repeated pass");
      }
      last_pass = pass.wall_s;
      e2e.window_s += pass.wall_s;
      e2e.sessions += pass.sessions;
      e2e.failed_work += pass.shed;
      e2e.offered_work += pass.sessions;
      e2e.round_seconds.insert(e2e.round_seconds.end(), pass.epoch_seconds.begin(),
                               pass.epoch_seconds.end());
      ++result.attempted;
    }
    add_end_to_end(result, e2e);
    finish_digest(result, options, reference, reference.size());
    return result;
  }

  // Traced run: one untraced pass, then the same pass traced.
  const sim::Scenario scenario = sim::Scenario::build(scenario_config);
  Streams streams{scenario, shape, options.seed};
  obs::SpanTracer epoch_tracer{epochs_of(shape) + 16};
  const Pass untraced =
      run_pass(scenario, shape, streams, epoch_tracer, nullptr, false, result);

  obs::MetricsRegistry metrics;
  obs::SpanTracer tracer{tracer_capacity(shape, streams)};
  const Pass traced = run_pass(scenario, shape, streams, tracer, &metrics, true, result);
  check_tracer(result, tracer);
  compare_digests(result, untraced.digests, traced.digests, "traced vs untraced");
  result.attempted = 2;

  Layers layers;
  fill_from_spans(layers, analyse(tracer));
  layers.trace_sessions = traced.sessions;
  // The streaming path never touches the wire: predicted 0, reported as read.
  layers.proto_bytes_on_wire = counter(metrics, "proto.bytes_on_wire");
  layers.proto_shares_sent = counter(metrics, "proto.shares_sent");
  layers.proto_bids_received = counter(metrics, "proto.bids_received");
  layers.proto_accepts_sent = counter(metrics, "proto.accepts_sent");
  add_layers(result, layers, traced.wall_s, untraced.wall_s);
  finish_digest(result, options, traced.digests, traced.digests.size());
  return result;
}

}  // namespace vdxbench
