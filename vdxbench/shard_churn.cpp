// shard-churn: market::ShardedExchange with 4 in-process shards and 4
// collect threads. Set-up prefills a 1M-session population; each round then
// pushes 10K adds + 10K removes through push_session_delta and calls
// run_round. It is the only workload that writes the per-shard SessionLedger
// stores and frames shard traffic, and it solves few groups with huge demand.
//
// Timed window: rounds back to back from round 1 (round 0, which builds the
// agents' menus, is a warm-up) until --seconds have passed. A round sample
// is push_session_delta + run_round plus generating the round's delta.
#include <functional>
#include <optional>

#include "bench.hpp"
#include "market/shard.hpp"

namespace vdxbench {
namespace {

using namespace vdx;

/// Set-ups per untraced process (the 1M prefill is costly; run.py takes the
/// median over three processes).
constexpr int kSetups = 1;

struct Shape {
  std::size_t population;
  std::size_t churn;
  std::size_t shards = 4;
  std::size_t collect_threads = 4;
  std::size_t digest_rounds;
  std::size_t traced_rounds;
};

Shape shape_for(const Options& options) {
  if (options.tiny) {
    return {.population = 20'000, .churn = 500, .digest_rounds = 5, .traced_rounds = 8};
  }
  return {.population = 1'000'000, .churn = 10'000, .digest_rounds = 10,
          .traced_rounds = 24};
}

constexpr double kRungs[] = {1.2, 3.6};

/// Seeded session attributes as a pure function of (seed, id), so adds and
/// the later removes of the same id agree without storing the population.
struct Sessions {
  std::uint64_t seed;
  std::uint32_t cities;

  [[nodiscard]] proto::ShardSessionAdd add_of(std::uint64_t id) const {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + id;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return {static_cast<std::uint32_t>(id), static_cast<std::uint32_t>(z % cities),
            kRungs[(z >> 32) % std::size(kRungs)]};
  }
};

market::ShardedConfig exchange_config(const Shape& shape, obs::Observer observer) {
  market::ShardedConfig config;
  config.shards = shape.shards;
  config.collect_threads = shape.collect_threads;
  // Small bid menus, as bench_shard_scale: settlement stays comparable to
  // the demand-aggregation path the workload exists to load.
  config.exchange.agent.bid_count = 4;
  config.exchange.obs = observer;
  return config;
}

/// A prefilled exchange plus the FIFO churn cursor over session ids.
struct Engine {
  Engine(const sim::Scenario& scenario, const Shape& shape, const Sessions& sessions,
         obs::Observer observer, Result& result)
      : exchange(scenario, exchange_config(shape, observer)) {
    std::vector<proto::ShardSessionAdd> adds;
    adds.reserve(shape.population);
    for (; tail < shape.population; ++tail) adds.push_back(sessions.add_of(tail));
    const auto status = exchange.push_session_delta(adds, {});
    result.check(status.ok(), "prefill push failed: " +
                                  (status.ok() ? std::string{} : status.error().message));
  }
  market::ShardedExchange exchange;
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
};

struct Rounds {
  double window_s = 0.0;
  std::vector<double> round_seconds;
  std::vector<std::uint64_t> digests;
  std::size_t calls = 0;
  std::size_t failed_calls = 0;
  std::size_t first_span = 0, last_span = 0;
  double bytes = 0, shares = 0, bids = 0, accepts = 0;
};

std::uint64_t digest_of(const market::RoundReport& report) {
  Digest digest;
  digest.add(std::uint64_t{report.round});
  digest.add(std::uint64_t{report.wire.shares_sent});
  digest.add(std::uint64_t{report.wire.bids_received});
  digest.add(std::uint64_t{report.wire.accepts_sent});
  digest.add(std::uint64_t{report.wire.bytes_on_wire});
  for (const double v : {report.mean_score, report.mean_cost, report.congested_fraction,
                         report.shed_mbps, report.shed_clients,
                         report.mean_prediction_error}) {
    digest.add(v);
  }
  for (const double mbps : report.awarded_mbps) digest.add(mbps);
  return digest.value();
}

/// Runs the warm-up round, then window rounds until --seconds have passed
/// (fixed_rounds == 0) or for exactly fixed_rounds.
Rounds run_rounds(Engine& engine, const Shape& shape, const Sessions& sessions,
                  const Options& options, std::size_t fixed_rounds,
                  obs::SpanTracer* tracer, Result& result,
                  const std::function<void()>& at_window_start = [] {}) {
  std::vector<proto::ShardSessionAdd> adds(shape.churn);
  std::vector<std::uint32_t> removes(shape.churn);
  Rounds out;
  double window_start = 0.0;
  for (std::size_t r = 0;; ++r) {
    const double start = now_s();
    if (r == 1) {
      at_window_start();
      window_start = start;
      if (tracer != nullptr) out.first_span = tracer->spans().size();
    }
    if (r >= 1 && (fixed_rounds > 0 ? r > fixed_rounds
                                    : start - window_start >= options.seconds &&
                                          out.digests.size() >= shape.digest_rounds)) {
      out.window_s = start - window_start;
      if (tracer != nullptr) out.last_span = tracer->spans().size();
      break;
    }
    for (std::size_t k = 0; k < shape.churn; ++k) {
      adds[k] = sessions.add_of(engine.tail++);
      removes[k] = static_cast<std::uint32_t>(engine.head++);
    }
    {
      const BenchSpan span{tracer, "market.push_delta"};
      const auto status = engine.exchange.push_session_delta(adds, removes);
      ++out.calls;
      if (!status.ok()) {
        ++out.failed_calls;
        result.check(false, "push_session_delta: " + status.error().message);
      }
    }
    core::Result<market::RoundReport> report = [&] {
      const BenchSpan span{tracer, "market.run_round"};
      return engine.exchange.try_run_round();
    }();
    ++out.calls;
    if (!report.ok()) {
      ++out.failed_calls;
      result.check(false, "run_round: " + report.error().message);
      break;
    }
    out.digests.push_back(digest_of(report.value()));
    if (r >= 1) {
      out.round_seconds.push_back(now_s() - start);
      const proto::RoundStats& wire = report.value().wire;
      out.bytes += static_cast<double>(wire.bytes_on_wire);
      out.shares += static_cast<double>(wire.shares_sent);
      out.bids += static_cast<double>(wire.bids_received);
      out.accepts += static_cast<double>(wire.accepts_sent);
    }
  }
  return out;
}

}  // namespace

Result run_shard_churn(const Options& options) {
  Result result;
  const Shape shape = shape_for(options);
  sim::ScenarioConfig scenario_config;
  scenario_config.trace.session_count = 10'000;  // pilot only; demand is generated

  if (!options.trace) {
    EndToEnd e2e;
    std::optional<sim::Scenario> scenario;
    std::optional<Engine> engine;
    for (int i = 0; i < kSetups; ++i) {
      engine.reset();
      scenario.reset();
      const double start = now_s();
      scenario.emplace(sim::Scenario::build(scenario_config));
      const Sessions sessions{options.seed,
                              static_cast<std::uint32_t>(scenario->world().cities().size())};
      engine.emplace(*scenario, shape, sessions, obs::Observer{}, result);
      e2e.setup_samples.push_back(now_s() - start);
    }
    const Sessions sessions{options.seed,
                            static_cast<std::uint32_t>(scenario->world().cities().size())};
    const Rounds rounds = run_rounds(*engine, shape, sessions, options, 0, nullptr, result);
    e2e.window_s = rounds.window_s;
    e2e.sessions = static_cast<double>(2 * shape.churn * rounds.round_seconds.size());
    e2e.round_seconds = rounds.round_seconds;
    e2e.failed_work = static_cast<double>(rounds.failed_calls);
    e2e.offered_work = static_cast<double>(rounds.calls);
    result.attempted = rounds.calls;
    result.failed = rounds.failed_calls;
    add_end_to_end(result, e2e);
    finish_digest(result, options, rounds.digests, shape.digest_rounds);
    return result;
  }

  const sim::Scenario scenario = sim::Scenario::build(scenario_config);
  const Sessions sessions{options.seed,
                          static_cast<std::uint32_t>(scenario.world().cities().size())};
  Rounds untraced;
  {
    Engine engine{scenario, shape, sessions, obs::Observer{}, result};
    untraced = run_rounds(engine, shape, sessions, options, shape.traced_rounds, nullptr,
                          result);
  }
  obs::MetricsRegistry metrics;
  // Two bench spans plus ~10 protocol and solver spans per round; 8x head-room.
  obs::SpanTracer tracer{(shape.traced_rounds + 2) * 128};
  Engine engine{scenario, shape, sessions, obs::Observer{&metrics, &tracer, nullptr},
                result};
  const obs::MetricsRegistry& shard_metrics = engine.exchange.shard_metrics();
  double bids_before = 0, allocations_before = 0, frames_before = 0, retries_before = 0;
  const Rounds traced =
      run_rounds(engine, shape, sessions, options, shape.traced_rounds, &tracer, result, [&] {
        bids_before = counter(metrics, "broker.optimize.bids");
        allocations_before = counter(metrics, "broker.optimize.allocations");
        frames_before = counter(shard_metrics, "exchange.shard.frames");
        retries_before = counter(shard_metrics, "exchange.shard.retries");
      });
  check_tracer(result, tracer);
  compare_digests(result, untraced.digests, traced.digests, "traced vs untraced");
  result.attempted = traced.calls;
  result.failed = traced.failed_calls;

  Layers layers;
  fill_from_spans(layers, analyse(tracer, traced.first_span, traced.last_span));
  layers.proto_bytes_on_wire = traced.bytes;
  layers.proto_shares_sent = traced.shares;
  layers.proto_bids_received = traced.bids;
  layers.proto_accepts_sent = traced.accepts;
  layers.broker_bids = counter(metrics, "broker.optimize.bids") - bids_before;
  layers.broker_allocations =
      counter(metrics, "broker.optimize.allocations") - allocations_before;
  layers.shard_frames = counter(shard_metrics, "exchange.shard.frames") - frames_before;
  layers.shard_retries = counter(shard_metrics, "exchange.shard.retries") - retries_before;
  add_layers(result, layers, traced.window_s, untraced.window_s);
  finish_digest(result, options, traced.digests, shape.digest_rounds);
  return result;
}

}  // namespace vdxbench
