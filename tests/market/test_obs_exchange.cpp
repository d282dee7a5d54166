// Observability acceptance (DESIGN.md §7): the exchange threads metrics,
// spans, and journal events through every layer; logical-clock traces are
// byte-identical across same-seed chaos runs; and RoundReport's fault
// telemetry agrees with the named `exchange.*` counters it is derived from.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "market/exchange.hpp"
#include "obs/observe.hpp"

namespace vdx::market {
namespace {

class ObsExchangeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioConfig config;
    config.trace.session_count = 3000;
    config.seed = 31;
    scenario_ = new sim::Scenario(sim::Scenario::build(config));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static const sim::Scenario& scenario() { return *scenario_; }

  static ExchangeConfig chaos_config() {
    ExchangeConfig config;
    config.chaos.faults.drop_rate = 0.10;
    config.chaos.faults.corrupt_rate = 0.02;
    config.chaos.faults.seed = 0x5EED;
    return config;
  }

 private:
  static sim::Scenario* scenario_;
};

sim::Scenario* ObsExchangeTest::scenario_ = nullptr;

/// One fully observed run: trace + journal JSONL and the report stream.
struct ObservedRun {
  std::string trace;
  std::string journal;
  std::vector<RoundReport> reports;
};

ObservedRun observed_run(const sim::Scenario& scenario, ExchangeConfig config,
                         std::size_t rounds) {
  obs::MetricsRegistry metrics;
  obs::SpanTracer tracer;
  obs::RunJournal journal;
  config.obs = obs::Observer{&metrics, &tracer, &journal};
  VdxExchange exchange{scenario, config};
  ObservedRun run;
  run.reports = exchange.run(rounds);
  std::ostringstream trace_out;
  tracer.write_jsonl(trace_out);
  run.trace = trace_out.str();
  std::ostringstream journal_out;
  journal.write_jsonl(journal_out);
  run.journal = journal_out.str();
  return run;
}

TEST_F(ObsExchangeTest, SameSeedChaosRunsProduceByteIdenticalTraces) {
  const ObservedRun first = observed_run(scenario(), chaos_config(), 4);
  const ObservedRun second = observed_run(scenario(), chaos_config(), 4);
  EXPECT_FALSE(first.trace.empty());
  EXPECT_FALSE(first.journal.empty());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.journal, second.journal);
  // And chaos really happened — this is not a trivially empty transport.
  EXPECT_NE(first.journal.find("\"event\":\"retry\""), std::string::npos);
}

TEST_F(ObsExchangeTest, TraceCoversAllSevenDecisionStepsOnBothTransports) {
  for (const bool chaos : {false, true}) {
    obs::SpanTracer tracer;
    ExchangeConfig config = chaos ? chaos_config() : ExchangeConfig{};
    config.obs.tracer = &tracer;
    VdxExchange exchange{scenario(), config};
    (void)exchange.run_round();

    std::set<std::string> seen;
    for (const auto& span : tracer.spans()) {
      seen.emplace(tracer.name(span));
    }
    for (const char* step :
         {"decision.round", "decision.estimate", "decision.gather",
          "decision.share", "decision.matching", "decision.announce",
          "decision.optimize", "decision.accept", "broker.optimize",
          "solver.solve"}) {
      EXPECT_TRUE(seen.contains(step)) << (chaos ? "chaos: " : "perfect: ")
                                       << step << " span missing";
    }
    // The logical clock moved: the trace is not flat.
    EXPECT_GT(exchange.logical_clock(), 0u);
    EXPECT_EQ(tracer.spans().front().logical_close, exchange.logical_clock());
  }
}

TEST_F(ObsExchangeTest, RoundReportTelemetryMatchesNamedCounters) {
  obs::MetricsRegistry metrics;
  ExchangeConfig config = chaos_config();
  config.obs.metrics = &metrics;
  VdxExchange exchange{scenario(), config};

  constexpr std::size_t kRounds = 5;
  std::size_t timeouts = 0;
  std::size_t retries = 0;
  std::size_t stale = 0;
  std::size_t degraded = 0;
  std::size_t quorum_misses = 0;
  for (const RoundReport& report : exchange.run(kRounds)) {
    timeouts += report.wire.chaos.timeouts;
    retries += report.wire.chaos.retries;
    stale += report.stale_bids_used;
    if (report.degraded) ++degraded;
    if (!report.quorum_met) ++quorum_misses;
  }

  const auto counter = [&](const char* name) {
    const auto row = metrics.find(name);
    return row.has_value() ? row->value : -1.0;
  };
  EXPECT_DOUBLE_EQ(counter("exchange.rounds"), kRounds);
  EXPECT_DOUBLE_EQ(counter("exchange.timeouts"), static_cast<double>(timeouts));
  EXPECT_DOUBLE_EQ(counter("exchange.retries"), static_cast<double>(retries));
  EXPECT_DOUBLE_EQ(counter("exchange.stale_bids"), static_cast<double>(stale));
  EXPECT_DOUBLE_EQ(counter("exchange.degraded_rounds"),
                   static_cast<double>(degraded));
  EXPECT_DOUBLE_EQ(counter("exchange.quorum_misses"),
                   static_cast<double>(quorum_misses));
  // The engine's own aggregation agrees with the exchange's view.
  EXPECT_DOUBLE_EQ(counter("proto.timeouts"), static_cast<double>(timeouts));
  EXPECT_DOUBLE_EQ(counter("proto.retries"), static_cast<double>(retries));
  // The solver was invoked under the broker's Optimize each round.
  const auto solves = metrics.find("broker.optimize.calls");
  ASSERT_TRUE(solves.has_value());
  EXPECT_DOUBLE_EQ(solves->value, kRounds);
}

TEST_F(ObsExchangeTest, ExchangeWithoutObserverStillSelfMeters) {
  VdxExchange exchange{scenario(), chaos_config()};
  (void)exchange.run(2);
  // The owned fallback registry backs RoundReport even when the caller
  // supplied no observer at all.
  const auto row = exchange.metrics().find("exchange.rounds");
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ(row->value, 2.0);
}

TEST_F(ObsExchangeTest, DarkClusterFailoverLandsInJournalAndCounters) {
  obs::MetricsRegistry metrics;
  obs::RunJournal journal;
  ExchangeConfig config;
  config.obs.metrics = &metrics;
  config.obs.journal = &journal;
  VdxExchange exchange{scenario(), config};
  const RoundReport report = exchange.run_round();

  // Kill the CDN carrying the most traffic; its clusters go dark.
  std::size_t top = 0;
  for (std::size_t i = 1; i < report.awarded_mbps.size(); ++i) {
    if (report.awarded_mbps[i] > report.awarded_mbps[top]) top = i;
  }
  exchange.set_failed(cdn::CdnId{static_cast<std::uint32_t>(top)}, true);

  const auto groups = scenario().broker_groups();
  for (std::uint32_t session = 0; session < 200; ++session) {
    const auto& group = groups[session % groups.size()];
    ASSERT_TRUE(exchange.deliver(session, group.city, group.bitrate_mbps).ok());
  }

  const auto failovers = metrics.find("exchange.failovers");
  ASSERT_TRUE(failovers.has_value());
  EXPECT_GE(failovers->value, 1.0);
  std::size_t failover_events = 0;
  for (const obs::Event& event : journal.events()) {
    if (event.kind == obs::EventKind::kFailover) ++failover_events;
  }
  EXPECT_GE(failover_events, 1u);
  const auto sessions = metrics.find("delivery.sessions");
  ASSERT_TRUE(sessions.has_value());
  EXPECT_DOUBLE_EQ(sessions->value, 200.0);
}

}  // namespace
}  // namespace vdx::market
