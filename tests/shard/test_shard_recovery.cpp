// Kill-and-resume drill (DESIGN.md §14): hard-kill every worker shard (a
// real SIGKILL under the process backend) after every settlement round,
// resume from the per-shard checkpoint stores, and byte-compare the
// settlement against the monolithic reference. A killed coordinator
// rebuilds from its own store with resume_from_stores(). Crash tolerance
// must cost restarts — never settlement bytes.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "market/shard.hpp"
#include "shard/shard_test_util.hpp"
#include "sim/designs.hpp"

namespace vdx::market {
namespace {

using shard_test::RoundAction;
using shard_test::RunCapture;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() / ("vdx_shard_" + tag)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

class ShardRecovery : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioConfig config;
    config.trace.session_count = 900;
    config.seed = 29;
    scenario_ = new sim::Scenario(sim::Scenario::build(config));
    background_ = new std::vector<double>(sim::place_background(*scenario_));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
    delete background_;
    background_ = nullptr;
  }
  static const sim::Scenario& scenario() { return *scenario_; }
  static std::span<const double> background() { return *background_; }

  static RunCapture run_mono(const std::vector<RoundAction>& script) {
    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    ExchangeConfig config;
    config.obs = obs::Observer{&metrics, nullptr, &journal};
    VdxExchange exchange{scenario(), config};
    return shard_test::drive(exchange, script, background(), journal, metrics);
  }

 private:
  static sim::Scenario* scenario_;
  static std::vector<double>* background_;
};

sim::Scenario* ShardRecovery::scenario_ = nullptr;
std::vector<double>* ShardRecovery::background_ = nullptr;

constexpr std::size_t kRounds = 5;

// Demand mode needs no store at all: the coordinator's cached slice is
// authoritative, so a storeless worker death costs one respawn + re-push.
TEST_F(ShardRecovery, StorelessWorkerDeathInDemandModeIsInvisible) {
  const auto script = shard_test::make_script(
      scenario(), sim::StressScenario::kFlashCrowd, kRounds);
  const RunCapture mono = run_mono(script);

  for (const ShardBackend backend :
       {ShardBackend::kInproc, ShardBackend::kProcess}) {
    ShardedConfig config;
    config.shards = 4;
    config.backend = backend;
    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
    ShardedExchange exchange{scenario(), config};

    RunCapture capture;
    for (std::size_t r = 0; r < script.size(); ++r) {
      const RoundAction& action = script[r];
      if (action.fail.has_value()) exchange.set_failed(cdn::CdnId{1}, *action.fail);
      if (action.budget.has_value()) exchange.set_demand_budget(*action.budget);
      exchange.set_active_load(action.groups, background());
      capture.reports.push_back(exchange.run_round());
      exchange.kill_worker(r % config.shards);
      EXPECT_FALSE(exchange.worker_alive(r % config.shards));
    }
    const auto placed = exchange.settlement().placements();
    capture.placements.assign(placed.begin(), placed.end());
    std::ostringstream journal_out;
    journal.write_jsonl(journal_out);
    capture.journal_jsonl = journal_out.str();
    std::ostringstream metrics_out;
    metrics.write_jsonl(metrics_out);
    capture.metrics_jsonl = metrics_out.str();

    shard_test::expect_identical(
        mono, capture,
        std::string{"storeless kill "} + std::string{to_string(backend)});
    EXPECT_EQ(exchange.worker_restarts(), kRounds - 1);  // last kill never recovered
  }
}

// Session mode CANNOT replay lost ledgers from the coordinator — per-shard
// checkpoint stores are mandatory, and with checkpoint_every_rounds=1 a
// SIGKILL after every settlement round must still be byte-invisible.
TEST_F(ShardRecovery, SessionModeResumesFromPerShardStoresAfterEveryRoundKill) {
  const std::size_t cities = scenario().world().cities().size();
  const auto add_of = [&](std::uint32_t id) {
    return proto::ShardSessionAdd{id, id % static_cast<std::uint32_t>(cities),
                                  id % 2 == 0 ? 1.2 : 3.6};
  };

  // Monolithic reference over the same deltas (global ledger, regrouped).
  std::vector<RoundReport> mono_reports;
  {
    VdxExchange mono{scenario()};
    SessionLedger global;
    for (std::size_t r = 0; r < kRounds; ++r) {
      std::vector<proto::ShardSessionAdd> adds;
      for (std::uint32_t k = 0; k < 300; ++k) {
        adds.push_back(add_of(static_cast<std::uint32_t>(r) * 300 + k));
      }
      ASSERT_TRUE(global.apply(adds, {}).ok());
      mono.set_active_load(global.groups(), background());
      mono_reports.push_back(mono.run_round());
    }
  }

  for (const ShardBackend backend :
       {ShardBackend::kInproc, ShardBackend::kProcess}) {
    TempDir dir{std::string{"sessions_"} + std::string{to_string(backend)}};
    ShardedConfig config;
    config.shards = 4;
    config.backend = backend;
    config.checkpoint_dir = dir.path();
    config.checkpoint_every_rounds = 1;
    ShardedExchange exchange{scenario(), config};

    for (std::size_t r = 0; r < kRounds; ++r) {
      std::vector<proto::ShardSessionAdd> adds;
      for (std::uint32_t k = 0; k < 300; ++k) {
        adds.push_back(add_of(static_cast<std::uint32_t>(r) * 300 + k));
      }
      ASSERT_TRUE(exchange.push_session_delta(adds, {}).ok());
      const RoundReport report = exchange.run_round();
      EXPECT_EQ(mono_reports[r].awarded_mbps, report.awarded_mbps)
          << to_string(backend) << " round " << r;
      EXPECT_EQ(mono_reports[r].mean_score, report.mean_score)
          << to_string(backend) << " round " << r;
      // The auto-checkpoint has landed; now the shard dies for real.
      exchange.kill_worker(r % config.shards);
    }
    EXPECT_GT(exchange.worker_restarts(), 0u);
  }
}

// A session-fed worker that dies WITHOUT a store is unrecoverable — the
// next round must fail with a typed error, not silently settle wrong bytes.
TEST_F(ShardRecovery, SessionModeWithoutStoreFailsClosedOnWorkerDeath) {
  ShardedConfig config;
  config.shards = 2;
  ShardedExchange exchange{scenario(), config};
  std::vector<proto::ShardSessionAdd> adds;
  for (std::uint32_t id = 0; id < 200; ++id) {
    adds.push_back({id, id % static_cast<std::uint32_t>(
                            scenario().world().cities().size()),
                    1.5});
  }
  ASSERT_TRUE(exchange.push_session_delta(adds, {}).ok());
  (void)exchange.run_round();

  exchange.kill_worker(0);
  const auto result = exchange.try_run_round();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, core::Errc::kUnavailable);
  EXPECT_THROW((void)exchange.run_round(), std::runtime_error);
}

// A delta that fails mid-push leaves some shards applied and routing
// uncommitted. The batch stays OUTSTANDING: settlement and snapshots refuse
// to run, a DIFFERENT batch is refused outright, and only the verbatim
// retry passes the gate (idempotent on the shards that already applied it).
TEST_F(ShardRecovery, FailedDeltaPushWedgesSettlementUntilVerbatimRetry) {
  ShardedConfig config;
  config.shards = 2;
  ShardedExchange exchange{scenario(), config};
  // One city per shard so the batch demonstrably spans both workers.
  const auto& plan = exchange.plan();
  std::uint32_t city0 = UINT32_MAX;
  std::uint32_t city1 = UINT32_MAX;
  for (std::uint32_t c = 0; c < plan.shard_of_city.size(); ++c) {
    (plan.shard_of_city[c] == 0 ? city0 : city1) = c;
  }
  ASSERT_NE(city0, UINT32_MAX);
  ASSERT_NE(city1, UINT32_MAX);

  std::vector<proto::ShardSessionAdd> first{{1, city0, 1.0}, {2, city1, 1.0}};
  ASSERT_TRUE(exchange.push_session_delta(first, {}).ok());
  (void)exchange.run_round();

  // Shard 1 is session-fed with no store: unrecoverable. The push applies
  // on shard 0, then fails on shard 1 — the exact partial state.
  exchange.kill_worker(1);
  std::vector<proto::ShardSessionAdd> second{{3, city0, 2.0}, {4, city1, 2.0}};
  const auto failed = exchange.push_session_delta(second, {});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, core::Errc::kUnavailable);

  // Settlement and snapshots fail closed while the batch is outstanding.
  const auto round = exchange.try_run_round();
  ASSERT_FALSE(round.ok());
  EXPECT_EQ(round.error().code, core::Errc::kNotReady);
  const auto snapshot = exchange.try_save_state();
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.error().code, core::Errc::kNotReady);
  EXPECT_THROW((void)exchange.save_state(), std::runtime_error);

  // A different batch is refused at the gate...
  std::vector<proto::ShardSessionAdd> different{{5, city0, 3.0}};
  const auto refused = exchange.push_session_delta(different, {});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, core::Errc::kNotReady);

  // ...while the verbatim retry passes it (and here fails only because the
  // worker is truly unrecoverable — a healed worker would clear the wedge).
  const auto retried = exchange.push_session_delta(second, {});
  ASSERT_FALSE(retried.ok());
  EXPECT_EQ(retried.error().code, core::Errc::kUnavailable);
}

// A session-fed worker restored from a per-shard checkpoint taken BEFORE the
// last delta holds fewer clients than routing sent it. Its rounds still line
// up (a delta does not advance the round clock), so only the per-shard
// client count can catch it: the round must fail closed, typed.
TEST_F(ShardRecovery, StaleSessionCheckpointFailsClosedOnClientCount) {
  TempDir dir{"stale_sessions"};
  ShardedConfig config;
  config.shards = 2;
  config.checkpoint_dir = dir.path();
  ShardedExchange exchange{scenario(), config};
  const auto& plan = exchange.plan();
  std::uint32_t city0 = UINT32_MAX;
  for (std::uint32_t c = 0; c < plan.shard_of_city.size(); ++c) {
    if (plan.shard_of_city[c] == 0) city0 = c;
  }
  ASSERT_NE(city0, UINT32_MAX);

  std::vector<proto::ShardSessionAdd> first;
  for (std::uint32_t id = 0; id < 200; ++id) {
    first.push_back({id, id % static_cast<std::uint32_t>(plan.shard_of_city.size()),
                     1.5});
  }
  ASSERT_TRUE(exchange.push_session_delta(first, {}).ok());
  ASSERT_TRUE(exchange.try_run_round().ok());
  ASSERT_TRUE(exchange.checkpoint_now().ok());

  // Lands on shard 0 after its checkpoint; the restore will not have it.
  const std::vector<proto::ShardSessionAdd> late{{500, city0, 2.5}, {501, city0, 2.5}};
  ASSERT_TRUE(exchange.push_session_delta(late, {}).ok());
  exchange.kill_worker(0);

  const auto result = exchange.try_run_round();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, core::Errc::kUnavailable);
  EXPECT_NE(result.error().message.find("routing expects"), std::string::npos)
      << result.error().message;
  EXPECT_EQ(exchange.worker_restarts(), 1u);
}

// Per-shard routing counts are derived state: a coordinator restored from an
// embedded snapshot or from its store must rebuild them, keep them through
// later deltas, and settle every later round byte-identically to a run that
// was never interrupted.
TEST_F(ShardRecovery, RestoredRoutingCountsSettleLikeTheUninterruptedRun) {
  const std::uint32_t cities =
      static_cast<std::uint32_t>(scenario().world().cities().size());
  constexpr std::size_t kDeltaRounds = 6;
  constexpr std::size_t kCrashAfter = 3;
  // Round r adds 150 sessions, re-adds the last 10 of the round before
  // unchanged, and removes the oldest 60 still live plus one unknown id.
  // Neither the re-adds nor the unknown remove may move a count.
  const auto add_of = [&](std::uint32_t id) {
    return proto::ShardSessionAdd{id, (id * 7) % cities, id % 3 == 0 ? 1.2 : 3.6};
  };
  const auto delta_of = [&](std::size_t r) {
    std::pair<std::vector<proto::ShardSessionAdd>, std::vector<std::uint32_t>> d;
    for (std::uint32_t k = 0; k < 150; ++k) {
      d.first.push_back(add_of(static_cast<std::uint32_t>(r * 150 + k)));
    }
    for (std::uint32_t k = 0; r > 0 && k < 10; ++k) {
      d.first.push_back(add_of(static_cast<std::uint32_t>(r * 150 - 10 + k)));
    }
    for (std::uint32_t k = 0; k < 60; ++k) {
      d.second.push_back(static_cast<std::uint32_t>(r * 60 + k));
    }
    d.second.push_back(UINT32_MAX - static_cast<std::uint32_t>(r));
    return d;
  };
  const auto run_rounds = [&](ShardedExchange& exchange, std::size_t from,
                              std::size_t to, RunCapture& capture) {
    for (std::size_t r = from; r < to; ++r) {
      const auto [adds, removes] = delta_of(r);
      ASSERT_TRUE(exchange.push_session_delta(adds, removes).ok()) << r;
      auto report = exchange.try_run_round();
      ASSERT_TRUE(report.ok()) << "round " << r << ": " << report.error().message;
      capture.reports.push_back(report.value());
    }
    const auto placed = exchange.settlement().placements();
    capture.placements.assign(placed.begin(), placed.end());
  };

  ShardedConfig config;
  config.shards = 3;
  RunCapture uninterrupted;
  {
    ShardedExchange exchange{scenario(), config};
    run_rounds(exchange, 0, kDeltaRounds, uninterrupted);
  }

  {
    RunCapture head;
    std::vector<std::uint8_t> snapshot;
    {
      ShardedExchange first{scenario(), config};
      run_rounds(first, 0, kCrashAfter, head);
      snapshot = first.save_state();
    }
    ShardedExchange resumed{scenario(), config};
    ASSERT_TRUE(resumed.restore_state(snapshot).ok());
    RunCapture tail;
    run_rounds(resumed, kCrashAfter, kDeltaRounds, tail);
    head.reports.insert(head.reports.end(), tail.reports.begin(), tail.reports.end());
    head.placements = tail.placements;
    shard_test::expect_identical(uninterrupted, head, "embedded snapshot");
  }

  for (const ShardBackend backend :
       {ShardBackend::kInproc, ShardBackend::kProcess}) {
    TempDir dir{std::string{"routing_"} + std::string{to_string(backend)}};
    ShardedConfig stored = config;
    stored.backend = backend;
    stored.checkpoint_dir = dir.path();
    stored.checkpoint_every_rounds = 1;
    RunCapture head;
    {
      ShardedExchange first{scenario(), stored};
      run_rounds(first, 0, kCrashAfter, head);
    }
    ShardedExchange resumed{scenario(), stored};
    ASSERT_TRUE(resumed.resume_from_stores().ok()) << to_string(backend);
    RunCapture tail;
    run_rounds(resumed, kCrashAfter, kDeltaRounds, tail);
    head.reports.insert(head.reports.end(), tail.reports.begin(), tail.reports.end());
    head.placements = tail.placements;
    shard_test::expect_identical(uninterrupted, head,
                                 std::string{"stores "} + std::string{to_string(backend)});
  }
}

// Coordinator crash: a FRESH ShardedExchange over the same stores resumes
// via resume_from_stores() and the tail is byte-identical to the
// uninterrupted run — for both backends, killing a worker mid-tail too.
TEST_F(ShardRecovery, CoordinatorResumesFromStoreWithIdenticalTail) {
  const auto script = shard_test::make_script(
      scenario(), sim::StressScenario::kPerfectStorm, kRounds);
  const RunCapture uninterrupted = run_mono(script);
  constexpr std::size_t kCrashAfter = 2;

  for (const ShardBackend backend :
       {ShardBackend::kInproc, ShardBackend::kProcess}) {
    TempDir dir{std::string{"coord_"} + std::string{to_string(backend)}};
    ShardedConfig config;
    config.shards = 4;
    config.backend = backend;
    config.checkpoint_dir = dir.path();
    config.checkpoint_every_rounds = 1;

    std::vector<RoundReport> head;
    {
      ShardedExchange first{scenario(), config};
      for (std::size_t r = 0; r < kCrashAfter; ++r) {
        const RoundAction& action = script[r];
        if (action.fail.has_value()) first.set_failed(cdn::CdnId{1}, *action.fail);
        if (action.budget.has_value()) first.set_demand_budget(*action.budget);
        first.set_active_load(action.groups, background());
        head.push_back(first.run_round());
      }
      // ~first: the coordinator process "dies" (stores survive on disk).
    }

    ShardedExchange resumed{scenario(), config};
    ASSERT_TRUE(resumed.resume_from_stores().ok()) << to_string(backend);
    ASSERT_EQ(resumed.rounds_completed(), kCrashAfter);
    // The resumed coordinator must re-learn the failure/budget knobs the
    // script had applied before the crash (external control state, exactly
    // like the daemon re-applies its own config on resume).
    bool fail_on = false;
    double budget = 0.0;
    for (std::size_t r = 0; r < kCrashAfter; ++r) {
      if (script[r].fail.has_value()) fail_on = *script[r].fail;
      if (script[r].budget.has_value()) budget = *script[r].budget;
    }
    resumed.set_failed(cdn::CdnId{1}, fail_on);
    resumed.set_demand_budget(budget);

    std::vector<RoundReport> tail;
    for (std::size_t r = kCrashAfter; r < script.size(); ++r) {
      const RoundAction& action = script[r];
      if (action.fail.has_value()) resumed.set_failed(cdn::CdnId{1}, *action.fail);
      if (action.budget.has_value()) resumed.set_demand_budget(*action.budget);
      resumed.set_active_load(action.groups, background());
      tail.push_back(resumed.run_round());
      resumed.kill_worker(r % config.shards);  // and workers keep dying
    }

    for (std::size_t r = 0; r < script.size(); ++r) {
      const RoundReport& expected = uninterrupted.reports[r];
      const RoundReport& actual =
          r < kCrashAfter ? head[r] : tail[r - kCrashAfter];
      const std::string at = std::string{to_string(backend)} + " resumed round " +
                             std::to_string(r);
      EXPECT_EQ(expected.awarded_mbps, actual.awarded_mbps) << at;
      EXPECT_EQ(expected.mean_score, actual.mean_score) << at;
      EXPECT_EQ(expected.mean_cost, actual.mean_cost) << at;
      EXPECT_EQ(expected.shed_mbps, actual.shed_mbps) << at;
      EXPECT_EQ(expected.wire.bytes_on_wire, actual.wire.bytes_on_wire) << at;
    }
  }
}

// The embedded snapshot path (the daemon's checkpoint file): save_state()
// bundles coordinator + settlement + every worker; restore_state() on a
// fresh exchange continues byte-identically.
TEST_F(ShardRecovery, EmbeddedSnapshotRoundTripsAcrossAFreshExchange) {
  const auto script = shard_test::make_script(
      scenario(), sim::StressScenario::kDiurnal, kRounds);
  const RunCapture uninterrupted = run_mono(script);
  constexpr std::size_t kCrashAfter = 3;

  ShardedConfig config;
  config.shards = 3;
  std::vector<std::uint8_t> snapshot;
  {
    ShardedExchange first{scenario(), config};
    for (std::size_t r = 0; r < kCrashAfter; ++r) {
      first.set_active_load(script[r].groups, background());
      (void)first.run_round();
    }
    snapshot = first.save_state();
  }
  ASSERT_FALSE(snapshot.empty());

  ShardedExchange resumed{scenario(), config};
  ASSERT_TRUE(resumed.restore_state(snapshot).ok());
  ASSERT_EQ(resumed.rounds_completed(), kCrashAfter);
  for (std::size_t r = kCrashAfter; r < script.size(); ++r) {
    resumed.set_active_load(script[r].groups, background());
    const RoundReport report = resumed.run_round();
    EXPECT_EQ(uninterrupted.reports[r].awarded_mbps, report.awarded_mbps)
        << "embedded round " << r;
    EXPECT_EQ(uninterrupted.reports[r].mean_score, report.mean_score)
        << "embedded round " << r;
  }

  // A snapshot from a different shard topology must be refused.
  ShardedConfig other = config;
  other.shards = 2;
  ShardedExchange wrong_plan{scenario(), other};
  EXPECT_FALSE(wrong_plan.restore_state(snapshot).ok());
}

}  // namespace
}  // namespace vdx::market
