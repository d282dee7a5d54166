// Observer matrix (DESIGN.md §7): the logical clock belongs to the engine that
// runs the protocol, so which sinks are attached must change nothing an
// engine decides, stamps or checkpoints. Every engine runs under all 8
// subsets of {metrics, tracer, journal}. Each run must match the bare run
// (no sinks) bit for bit on its reports or decision lines, and on its
// snapshot bytes unless those carry the journal window. Each run with a
// journal must match the first journaled run event for event, `logical`
// stamps included. Where the engine runs protocol rounds, those stamps must
// also move: a journal stamped 0 throughout would pass the comparison while
// recording nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "market/exchange.hpp"
#include "market/shard.hpp"
#include "obs/observe.hpp"
#include "serve/codec.hpp"
#include "serve/serve_util.hpp"
#include "sim/streaming.hpp"
#include "sim/timeline_io.hpp"
#include "state/snapshot.hpp"
#include "state/store.hpp"

namespace vdx {
namespace {

using serve::test::TempDir;
using serve::test::test_scenario;

/// Everything deterministic one engine run produced.
struct Capture {
  /// Reports or decision lines, rendered bit-exactly.
  std::string decisions;
  /// save_state() bytes, or the retained checkpoint files in name order.
  std::vector<std::vector<std::uint8_t>> snapshots;
  /// The journal's retained events; empty when no journal was attached.
  std::vector<obs::Event> journal;
};

/// Fresh sinks per run; `mask` bits select metrics (1), tracer (2), journal (4).
struct Sinks {
  obs::MetricsRegistry metrics;
  obs::SpanTracer tracer;
  obs::RunJournal journal;

  [[nodiscard]] obs::Observer observer(unsigned mask) {
    return obs::Observer{(mask & 1U) != 0 ? &metrics : nullptr,
                         (mask & 2U) != 0 ? &tracer : nullptr,
                         (mask & 4U) != 0 ? &journal : nullptr};
  }
};

std::string subset_name(unsigned mask) {
  std::string name = "{";
  if ((mask & 1U) != 0) name += " metrics";
  if ((mask & 2U) != 0) name += " tracer";
  if ((mask & 4U) != 0) name += " journal";
  return name + " }";
}

/// Runs the engine under all 8 subsets and checks the matrix invariants.
/// `run` builds the engine with the given observer and returns its capture
/// (the journal part is filled in here, from the observer's own journal).
/// A checkpoint that carries the journal window (`snapshot_holds_journal`)
/// is compared only with runs that attach a journal too.
void expect_observer_independent(
    const std::function<Capture(const obs::Observer&, unsigned)>& run,
    bool clock_moves, bool snapshot_holds_journal) {
  std::optional<Capture> bare;
  std::optional<Capture> journaled;
  for (unsigned mask = 0; mask < 8; ++mask) {
    Sinks sinks;
    const obs::Observer observer = sinks.observer(mask);
    Capture got = run(observer, mask);
    if (observer.journal != nullptr) got.journal = observer.journal->events();
    const std::string subset = subset_name(mask);

    if (!bare) {
      bare = got;
      EXPECT_FALSE(bare->decisions.empty());
      EXPECT_FALSE(bare->snapshots.empty());
      continue;
    }
    EXPECT_EQ(got.decisions, bare->decisions) << subset;
    const bool journal_class = snapshot_holds_journal && observer.journal != nullptr;
    if (!journal_class || journaled) {
      const Capture& reference = journal_class ? *journaled : *bare;
      EXPECT_TRUE(got.snapshots == reference.snapshots)
          << subset << ": snapshot bytes differ from the reference run's";
    }
    if (observer.journal == nullptr) continue;
    if (!journaled) {
      journaled = got;
      ASSERT_FALSE(journaled->journal.empty()) << subset;
      std::set<std::uint64_t> stamps;
      for (const obs::Event& event : journaled->journal) stamps.insert(event.logical);
      if (clock_moves) {
        EXPECT_GT(stamps.size(), 1U) << subset << ": the logical clock never moved";
      } else {
        EXPECT_EQ(stamps, std::set<std::uint64_t>{0}) << subset;
      }
      continue;
    }
    ASSERT_EQ(got.journal.size(), journaled->journal.size()) << subset;
    for (std::size_t i = 0; i < got.journal.size(); ++i) {
      EXPECT_EQ(got.journal[i].logical, journaled->journal[i].logical)
          << subset << " event " << i;
      EXPECT_TRUE(got.journal[i] == journaled->journal[i]) << subset << " event " << i;
    }
  }
}

std::string render(const market::RoundReport& r) {
  std::ostringstream out;
  out << std::hexfloat << r.round << ' ' << r.wire.shares_sent << ' '
      << r.wire.bids_received << ' ' << r.wire.accepts_sent << ' ' << r.wire.bytes_on_wire
      << ' ' << r.wire.chaos.messages << ' ' << r.wire.chaos.retries << ' '
      << r.wire.chaos.timeouts << ' ' << r.wire.chaos.decode_rejects << ' '
      << r.wire.chaos.ticks_elapsed << ' ' << r.mean_score << ' ' << r.mean_cost << ' '
      << r.congested_fraction << ' ' << r.shed_mbps << ' ' << r.shed_clients << ' '
      << r.shed_groups << ' ' << r.mean_prediction_error << ' ' << r.degraded << ' '
      << r.quorum_met << ' ' << r.stale_bids_used << ' ' << r.stale_bid_share << ' '
      << r.timeout_rate;
  for (const double mbps : r.awarded_mbps) out << ' ' << mbps;
  out << '\n';
  return out.str();
}

std::string render(std::span<const sim::Placement> placements) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const sim::Placement& p : placements) {
    out << p.group << ' ' << p.cluster.value() << ' ' << p.clients << ' ' << p.price
        << ' ' << p.score << '\n';
  }
  return out.str();
}

/// The retained checkpoint files of a store directory, in name order.
std::vector<std::vector<std::uint8_t>> checkpoint_files(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator{dir}) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::vector<std::uint8_t>> files;
  for (const std::filesystem::path& path : paths) {
    auto bytes = state::read_file(path);
    EXPECT_TRUE(bytes.ok()) << path;
    if (bytes.ok()) files.push_back(std::move(bytes).value());
  }
  return files;
}

/// Rounds, then Delivery-Protocol sessions (which tick the clock too), then
/// the exchange snapshot, restored into a fresh exchange that runs one more
/// round on the restored clock.
Capture run_exchange(market::ExchangeConfig config, const obs::Observer& observer) {
  config.obs = observer;
  market::VdxExchange exchange{test_scenario(), config};
  Capture capture;
  for (const market::RoundReport& report : exchange.run(3)) {
    capture.decisions += render(report);
  }
  capture.decisions += render(exchange.placements());
  const auto sessions = test_scenario().broker_trace().sessions();
  for (std::size_t i = 0; i < 3 && i < sessions.size(); ++i) {
    const auto outcome = exchange.deliver(static_cast<std::uint32_t>(i), sessions[i].city,
                                          sessions[i].bitrate_mbps);
    EXPECT_TRUE(outcome.ok());
    if (!outcome.ok()) continue;
    std::ostringstream out;
    out << std::hexfloat << outcome.value().result.cluster_id << ' '
        << outcome.value().delivery.delivered_mbps << ' ' << outcome.value().bytes_on_wire
        << ' ' << outcome.value().rehomed << '\n';
    capture.decisions += out.str();
  }
  capture.snapshots.push_back(exchange.save_state());
  market::VdxExchange resumed{test_scenario(), config};
  EXPECT_TRUE(resumed.restore_state(capture.snapshots.back()).ok());
  capture.decisions += render(resumed.run_round());
  capture.snapshots.push_back(resumed.save_state());
  return capture;
}

TEST(ObserverMatrix, ExchangeOnPerfectLink) {
  expect_observer_independent(
      [](const obs::Observer& observer, unsigned) {
        return run_exchange(market::ExchangeConfig{}, observer);
      },
      /*clock_moves=*/true, /*snapshot_holds_journal=*/false);
}

TEST(ObserverMatrix, ExchangeOnChaosLink) {
  market::ExchangeConfig config;
  config.chaos.faults.drop_rate = 0.10;
  config.chaos.faults.seed = 0x0B5;
  expect_observer_independent(
      [&](const obs::Observer& observer, unsigned) {
        return run_exchange(config, observer);
      },
      /*clock_moves=*/true, /*snapshot_holds_journal=*/false);
}

TEST(ObserverMatrix, ShardedExchangeAtTwoShards) {
  const auto groups = test_scenario().broker_groups();
  const std::vector<double> background(test_scenario().catalog().clusters().size(), 0.0);
  expect_observer_independent(
      [&](const obs::Observer& observer, unsigned) {
        market::ShardedConfig config;
        config.shards = 2;
        config.exchange.obs = observer;
        // Supervisor and link-breaker events stamp the settlement clock too:
        // a second in-window kill is denied, trips the breaker, and a later
        // half-open probe closes it again.
        config.worker_restart.max_restarts = 1;
        config.worker_restart.window_ticks = 2;
        config.link_breaker.failure_threshold = 1;
        config.link_breaker.open_ticks = 2;
        market::ShardedExchange exchange{test_scenario(), config};
        Capture capture;
        for (int round = 0; round < 6; ++round) {
          exchange.set_active_load(groups, background);
          capture.decisions += render(exchange.run_round());
          if (round == 1 || round == 2) exchange.kill_worker(0);
        }
        EXPECT_EQ(exchange.worker_supervisor().denied_total(), 1U);
        capture.decisions += render(exchange.settlement().placements());
        capture.snapshots.push_back(exchange.save_state());
        return capture;
      },
      /*clock_moves=*/true, /*snapshot_holds_journal=*/false);
}

TEST(ObserverMatrix, ServeDaemon) {
  expect_observer_independent(
      [](const obs::Observer& observer, unsigned mask) {
        const TempDir dir{"observer_matrix_" + std::to_string(mask)};
        serve::test::HarnessOptions options;
        options.checkpoint_every = 7;
        options.checkpoint_dir = dir.path();
        serve::GeneratorFeed feed = serve::test::make_feed(options);
        std::ostringstream decisions;
        serve::ServeDaemon daemon{test_scenario(), feed,
                                  serve::test::config_for(options, observer, &decisions)};
        const serve::ServeReport report = daemon.run();
        EXPECT_GT(report.decision_rounds, 0U);
        EXPECT_GT(report.checkpoints_written, 0U);
        // Each decision line's logical_ticks is the round's clock delta:
        // 1 tick per fault-free protocol step.
        std::istringstream lines{decisions.str()};
        for (std::string line; std::getline(lines, line);) {
          const auto parsed = serve::parse_decision(line);
          EXPECT_TRUE(parsed.ok()) << line;
          if (parsed.ok()) {
            EXPECT_EQ(parsed.value().logical_ticks, 3U) << line;
          }
        }
        Capture capture;
        capture.decisions = decisions.str();
        capture.snapshots = checkpoint_files(dir.path());
        return capture;
      },
      /*clock_moves=*/true, /*snapshot_holds_journal=*/true);
}

TEST(ObserverMatrix, StreamingTimeline) {
  expect_observer_independent(
      [](const obs::Observer& observer, unsigned mask) {
        const TempDir dir{"observer_matrix_timeline_" + std::to_string(mask)};
        state::CheckpointStore store{dir.path(), 3};
        sim::StreamingConfig config;
        config.epoch_s = 600.0;
        config.obs = observer;
        config.checkpoint.every_epochs = 2;
        config.checkpoint.store = &store;
        sim::TraceStream broker{test_scenario().broker_trace()};
        sim::TraceStream background{test_scenario().background_trace()};
        const sim::StreamingResult result =
            sim::StreamingTimeline{test_scenario(), config}.run(broker, background);
        Capture capture;
        capture.decisions = sim::epoch_reports_jsonl(result.timeline);
        capture.snapshots = checkpoint_files(dir.path());
        return capture;
      },
      /*clock_moves=*/false, /*snapshot_holds_journal=*/true);
}

}  // namespace
}  // namespace vdx
