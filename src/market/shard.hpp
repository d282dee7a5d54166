// Sharded multi-process exchange: one marketplace, N region shards
// (DESIGN.md §14; ROADMAP "sharded multi-process exchange").
//
// Topology. The marketplace is partitioned by city across N worker shards
// (farthest-point region seeding, the federation idiom). Each worker owns
// its slice of the demand — either explicit broker groups or a live session
// ledger — plus its own journal, metrics, and per-shard CheckpointStore.
// A coordinator drives every settlement round on the shared logical clock:
//
//   collect per-shard candidate groups  ->  merge into the canonical global
//   demand vector  ->  settle globally on an internal VdxExchange  ->
//   broadcast each shard's slice of the allocation.
//
// Byte-identity by construction. The partition is lossless (groups travel
// with their global ids; the merge restores the exact original vector), and
// settlement runs on the same VdxExchange machinery a monolithic deployment
// uses — so the settlement RoundReports, placements, journal, and metrics
// exports are byte-identical to the monolith at ANY shard count. The
// differential suite under tests/shard/ pins this at N in {1, 2, 4, 7}.
//
// Chaos isolation. Shard links run through their own proto::FaultInjector
// (separate seed and link streams from the settlement transport's CDN
// chaos). The coordinator retries a corrupted/dropped exchange until an
// intact one lands (workers are idempotent per round), so link chaos costs
// retries — never settlement bytes. Faults are injected at the coordinator
// on both legs, which keeps the in-process and process backends on the
// identical fault sequence. Control-plane frames (hello, state transfer,
// checkpoints, journal export) bypass injection: chaos drills target the
// data path, and checkpoint cadence must not perturb the fault streams.
//
// Crash tolerance. Workers checkpoint into per-shard stores on command; a
// worker that dies mid-run (real SIGKILL under the process backend) is
// respawned and restored by the coordinator without losing settlement
// bytes. A killed coordinator rebuilds from its own store with
// resume_from_stores(). The embedded save_state()/restore_state() path
// additionally bundles every worker's state into one snapshot so the
// serving daemon's checkpoint/resume works unchanged at --shards N.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "market/exchange.hpp"
#include "net/shard_channel.hpp"
#include "proto/shard_wire.hpp"
#include "resilience/breaker.hpp"
#include "resilience/supervisor.hpp"
#include "state/snapshot.hpp"
#include "state/store.hpp"

namespace vdx::market {

enum class ShardBackend : std::uint8_t {
  /// Workers are in-process handlers (deterministic default; batch calls
  /// can fan out across a ThreadPool).
  kInproc = 0,
  /// Workers are fork()ed processes on socketpairs (vdxd --shard style).
  kProcess = 1,
};

[[nodiscard]] std::string_view to_string(ShardBackend backend) noexcept;
[[nodiscard]] std::optional<ShardBackend> shard_backend_from(
    std::string_view name) noexcept;

/// City -> shard partition: farthest-point seeds (market::pick_region_seeds)
/// with nearest-seed assignment, so shards are geographically coherent and
/// the partition is a pure function of (world, shard_count).
struct ShardPlan {
  std::size_t shard_count = 1;
  /// Owning shard per city id.
  std::vector<std::uint32_t> shard_of_city;
  /// Cities per shard.
  std::vector<std::size_t> city_counts;

  /// Clamps `shards` to [1, city count]. Throws std::invalid_argument on an
  /// empty world (via pick_region_seeds).
  [[nodiscard]] static ShardPlan build(const geo::World& world, std::size_t shards);

  [[nodiscard]] std::uint32_t shard_of(geo::CityId city) const {
    return shard_of_city.at(city.value());
  }
  /// Stable fingerprint of the partition; restore paths refuse state saved
  /// under a different plan.
  [[nodiscard]] std::uint64_t hash() const noexcept;
};

/// Incremental (city, bitrate)-aggregated session book. Workers keep one per
/// shard; the monolithic reference path keeps one global — and because every
/// city lives in exactly one shard, concatenating the per-shard group lists
/// in (city, bitrate) order reproduces the global ledger's groups exactly.
/// That equality is what makes the session-fed sharded exchange
/// byte-identical to a monolith fed the same deltas.
///
/// The id index is a hash map, so a batch costs O(batch), not
/// O(batch · log population); nothing observable walks it in hash order
/// (groups() walks the ordered counts, sessions() sorts by id).
class SessionLedger {
 public:
  /// Validates the whole batch, then applies it — a rejected batch mutates
  /// nothing. Re-adding a live session with identical (city, bitrate) is a
  /// no-op and removing an unknown id is a no-op (both make retried
  /// deliveries idempotent); re-adding with different data is
  /// kInvalidArgument.
  [[nodiscard]] core::Status apply(std::span<const proto::ShardSessionAdd> adds,
                                   std::span<const std::uint32_t> removes);

  /// Active sessions aggregated into broker groups, ordered by
  /// (city, bitrate) ascending with dense ids.
  [[nodiscard]] std::vector<broker::ClientGroup> groups() const;

  [[nodiscard]] std::size_t size() const noexcept { return sessions_.size(); }
  void clear() noexcept;

  /// Serialized session set in ascending id order (save/restore
  /// round-trips exactly).
  [[nodiscard]] std::vector<proto::ShardSessionAdd> sessions() const;

 private:
  using Sessions = std::unordered_map<std::uint32_t, std::pair<std::uint32_t, double>>;

  /// id -> (city, bitrate).
  Sessions sessions_;
  /// (city, bitrate) -> active count. Counts are exact sums of 1.0.
  std::map<std::pair<std::uint32_t, double>, double> counts_;
};

/// One worker shard: a self-contained frame server over the shard codec.
/// It is constructed knowing only its shard id — everything else (topology,
/// cluster->CDN table, checkpoint store) arrives in the kHello frame, so a
/// fork()ed process worker needs no Scenario and no shared memory.
///
/// Contract for every mutating frame: decode and validate the COMPLETE
/// payload first, then commit — a rejected frame (kError response) never
/// partially applies state. Handlers are idempotent per settlement round,
/// which is what lets the coordinator retry through link chaos.
class ShardWorker {
 public:
  explicit ShardWorker(std::uint32_t shard);

  /// Handles one decoded frame. Never throws on wire-derived input.
  [[nodiscard]] proto::ShardFrame handle(const proto::ShardFrame& request);

  /// Byte-level entry: decode -> handle -> encode. Malformed bytes come
  /// back as an encoded kError(kCorruptFrame) frame. Sets *shutdown when
  /// the request was an acknowledged kShutdown.
  [[nodiscard]] std::vector<std::uint8_t> handle_bytes(
      std::span<const std::uint8_t> bytes, bool* shutdown = nullptr);

  /// Process-backend child loop: serve frames on `fd` until EOF or
  /// kShutdown. Returns the child's exit code.
  [[nodiscard]] static int serve_fd(std::uint32_t shard, int fd);

  [[nodiscard]] std::uint32_t shard() const noexcept { return shard_; }
  [[nodiscard]] bool configured() const noexcept { return configured_; }
  [[nodiscard]] std::uint64_t rounds_applied() const noexcept { return rounds_applied_; }
  [[nodiscard]] const obs::RunJournal& journal() const noexcept { return journal_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Checkpointable worker state (demand slice / session ledger, journal
  /// window, deterministic shard.* counters, round bookkeeping) in a
  /// state::Snapshot envelope. Volatile transport counters (frames seen,
  /// errors returned) are deliberately excluded: they depend on link chaos,
  /// and restored state must match the uninterrupted run's deterministic
  /// surfaces.
  [[nodiscard]] std::vector<std::uint8_t> save_state() const;
  [[nodiscard]] core::Status restore_state(std::span<const std::uint8_t> bytes);

 private:
  [[nodiscard]] proto::ShardFrame ack(const proto::ShardFrame& request,
                                      std::uint64_t value) const;
  [[nodiscard]] proto::ShardFrame fail(const proto::ShardFrame& request,
                                       core::Errc code, std::string message);

  [[nodiscard]] proto::ShardFrame on_hello(const proto::ShardFrame& request);
  [[nodiscard]] proto::ShardFrame on_set_demand(const proto::ShardFrame& request);
  [[nodiscard]] proto::ShardFrame on_session_delta(const proto::ShardFrame& request);
  [[nodiscard]] proto::ShardFrame on_collect(const proto::ShardFrame& request);
  [[nodiscard]] proto::ShardFrame on_allocation(const proto::ShardFrame& request);
  [[nodiscard]] proto::ShardFrame on_checkpoint(const proto::ShardFrame& request);
  [[nodiscard]] proto::ShardFrame on_resume_from_store(const proto::ShardFrame& request);

  void refresh_gauges();

  static constexpr std::uint64_t kNoRound = UINT64_MAX;

  std::uint32_t shard_;
  bool configured_ = false;
  proto::ShardHello context_;
  proto::ShardDemandMode mode_ = proto::ShardDemandMode::kNone;
  std::vector<proto::ShardGroup> demand_;
  SessionLedger ledger_;

  std::uint64_t rounds_applied_ = 0;
  std::uint64_t last_allocation_round_ = kNoRound;
  std::uint64_t last_collect_logged_round_ = kNoRound;

  obs::MetricsRegistry metrics_;
  obs::RunJournal journal_;
  std::optional<state::CheckpointStore> store_;

  struct Counters {
    obs::Counter frames, errors;                     // volatile (not saved)
    obs::Counter rounds, groups_announced, placements, awarded_mbps;
    obs::Gauge demand_mbps, sessions_active;
  } counters_;
};

struct ShardedConfig {
  std::size_t shards = 2;
  ShardBackend backend = ShardBackend::kInproc;
  /// Settlement-layer configuration (CDN chaos, strategies, overload policy,
  /// observer). The observer's journal/metrics see exactly what a monolith's
  /// would — coordinator bookkeeping lands in the separate shard registry.
  ExchangeConfig exchange;
  /// Chaos on the coordinator<->worker links (independent injector; its
  /// seed defaults differ from the CDN transport's so the streams never
  /// alias).
  proto::FaultProfile link_faults;
  /// Per-link retry budget before a round fails with kTimeout.
  std::size_t max_link_retries = 64;
  /// >1 enables ThreadPool fan-out for in-process batch calls on the
  /// fault-free path (0 = hardware). With link faults configured the
  /// coordinator always walks shards serially — the injector streams are
  /// ordered state.
  std::size_t collect_threads = 1;
  /// Root for per-shard stores: <dir>/coordinator plus <dir>/shard-<s>.
  /// Empty disables store-backed recovery (embedded snapshots still work).
  std::filesystem::path checkpoint_dir;
  std::size_t checkpoint_every_rounds = 0;
  std::size_t checkpoint_keep = 3;
  std::size_t worker_journal_capacity = 4096;
  /// Restart budget + deterministic backoff for worker respawns, on the
  /// settlement round clock. The default policy (unbounded, immediate) is
  /// exactly the pre-supervisor behavior.
  resilience::RestartPolicy worker_restart;
  /// Per shard-link circuit breaker (demand mode only). Disabled by default
  /// (failure_threshold 0): every existing call site keeps its fail-closed
  /// semantics. When enabled, a tripped shard is quarantined — settled from
  /// its cached slice (byte-identical: in demand mode the coordinator cache
  /// is authoritative and workers only echo it) instead of burning the link
  /// retry budget every round — until a half-open probe re-pushes its slice.
  resilience::BreakerConfig link_breaker;
};

/// The coordinator. See the file comment for the topology and invariants.
class ShardedExchange final : public ExchangeFrontend {
 public:
  ShardedExchange(const sim::Scenario& scenario, ShardedConfig config = {});
  ~ShardedExchange() override;
  ShardedExchange(const ShardedExchange&) = delete;
  ShardedExchange& operator=(const ShardedExchange&) = delete;

  /// One settlement round: collect -> merge -> settle -> broadcast. Throws
  /// std::runtime_error when the topology is unrecoverable (try_run_round
  /// surfaces the typed error instead).
  RoundReport run_round() override;
  [[nodiscard]] core::Result<RoundReport> try_run_round();
  std::vector<RoundReport> run(std::size_t rounds);

  /// Replaces the global demand: partitions `groups` by city and pushes one
  /// slice per shard. Ids must be dense (== index), as everywhere else.
  void set_active_load(std::span<const broker::ClientGroup> groups,
                       std::span<const double> background_loads) override;

  /// Session-fed mode: routes adds/removes to their owning shards' ledgers.
  /// A remove follows its same-batch add to the owning shard (adds apply
  /// before removes within one batch, the SessionLedger contract). Mutually
  /// exclusive with set_active_load on one exchange (logic_error).
  ///
  /// The per-shard sends are not atomic as a set: on failure some shards may
  /// have applied their slice. The batch stays OUTSTANDING — run_round,
  /// checkpointing, and any DIFFERENT delta fail with kNotReady until the
  /// identical batch is retried to completion (idempotent on the shards that
  /// already applied it).
  [[nodiscard]] core::Status push_session_delta(
      std::span<const proto::ShardSessionAdd> adds,
      std::span<const std::uint32_t> removes);

  void set_demand_budget(double budget_mbps) override;
  [[nodiscard]] double demand_budget() const override;
  [[nodiscard]] std::size_t rounds_completed() const override;
  [[nodiscard]] core::Result<proto::DeliveryOutcome> deliver(
      std::uint32_t session_id, geo::CityId city, double bitrate_mbps) override;
  [[nodiscard]] const obs::MetricsRegistry& metrics() const override;
  /// The settlement exchange's clock: the coordinator runs the only
  /// protocol rounds.
  [[nodiscard]] std::uint64_t& logical_clock() noexcept override {
    return settlement_->logical_clock();
  }

  void set_failed(cdn::CdnId cdn, bool failed);
  void set_fraudulent(cdn::CdnId cdn, bool fraudulent);

  /// Embedded snapshot: coordinator core + settlement exchange + every
  /// worker's state in one envelope (the daemon checkpoint path).
  /// try_save_state returns the typed error when a worker's state is
  /// unavailable (dead and unrecoverable); save_state throws on it.
  [[nodiscard]] core::Result<std::vector<std::uint8_t>> try_save_state()
      const override;
  [[nodiscard]] std::vector<std::uint8_t> save_state() const override;
  [[nodiscard]] core::Status restore_state(
      std::span<const std::uint8_t> bytes) override;

  /// Store-backed checkpoint: coordinator snapshot into <dir>/coordinator
  /// plus a kCheckpoint command to every worker's own store. Requires
  /// checkpoint_dir.
  [[nodiscard]] core::Status checkpoint_now();
  /// Coordinator-driven resume on a freshly built exchange: restores the
  /// coordinator from its store, then commands every worker to reload from
  /// its per-shard store and verifies the rounds line up.
  [[nodiscard]] core::Status resume_from_stores();

  /// Crash drills: hard-kills a worker (SIGKILL under the process backend).
  /// The next round detects the dead shard and recovers it automatically —
  /// from its per-shard store when one is configured, by re-pushing the
  /// cached demand slice otherwise.
  void kill_worker(std::size_t shard);
  [[nodiscard]] bool worker_alive(std::size_t shard) const noexcept;

  /// Merged view of every worker's journal window on the shared clock
  /// (obs::merge_journal_slices — seqs reassigned, strictly monotone).
  [[nodiscard]] core::Result<std::vector<obs::Event>> merged_worker_journal() const;

  [[nodiscard]] const ShardPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const VdxExchange& settlement() const noexcept { return *settlement_; }
  [[nodiscard]] const sim::Scenario& scenario() const noexcept { return scenario_; }
  /// Coordinator-side exchange.shard.* registry (kept separate so the
  /// settlement metrics export stays byte-identical to the monolith's).
  [[nodiscard]] const obs::MetricsRegistry& shard_metrics() const noexcept {
    return shard_metrics_;
  }
  [[nodiscard]] proto::FaultCounters link_fault_counters() const noexcept;
  [[nodiscard]] std::size_t worker_restarts() const noexcept {
    return worker_restarts_;
  }

  /// Shard links whose breaker is currently open (ExchangeFrontend hook for
  /// the daemon's brownout signals). Always 0 with the breaker disabled.
  [[nodiscard]] std::size_t open_breakers() const override;
  /// True while `shard` settles from its cached slice (breaker open, or a
  /// fresh slice push has not landed since the last failure).
  [[nodiscard]] bool shard_quarantined(std::size_t shard) const noexcept;
  /// Rounds in which at least one shard settled from its cached slice.
  [[nodiscard]] std::size_t stale_rounds() const noexcept { return stale_rounds_; }
  [[nodiscard]] const resilience::Supervisor& worker_supervisor() const noexcept {
    return supervisor_;
  }

 private:
  using FrameResult = core::Result<proto::ShardFrame>;

  [[nodiscard]] proto::ShardHello hello_for(std::size_t shard) const;
  [[nodiscard]] core::Status send_hello(std::size_t shard) const;

  /// Control-plane exchange: no fault injection; transparently respawns a
  /// dead worker (when recover is true) before failing.
  [[nodiscard]] FrameResult direct_call(std::size_t shard,
                                        const proto::ShardFrame& request,
                                        bool recover) const;
  /// Data-plane exchange: both legs through the link injector, retried
  /// until an intact response lands or the retry budget dies.
  [[nodiscard]] FrameResult chaotic_call(std::size_t shard,
                                         const proto::ShardFrame& request) const;
  [[nodiscard]] FrameResult data_call(std::size_t shard,
                                      const proto::ShardFrame& request) const;
  /// Fault-free batch fan-out (transport broadcast); chaos falls back to
  /// ordered serial chaotic_call.
  [[nodiscard]] core::Result<std::vector<proto::ShardFrame>> data_broadcast(
      const std::vector<proto::ShardFrame>& requests) const;

  /// Respawn + restore; on failure the worker is re-killed so it cannot
  /// linger half-initialized and absorb later deltas into an empty ledger.
  /// The supervisor can deny the respawn outright (budget spent / backoff
  /// running), which also fails typed (kUnavailable).
  [[nodiscard]] core::Status recover_worker(std::size_t shard) const;
  [[nodiscard]] core::Status try_recover_worker(std::size_t shard) const;

  [[nodiscard]] bool breaker_active() const noexcept {
    return !link_breakers_.empty() && mode_ == proto::ShardDemandMode::kDemand;
  }
  /// Observer for resilience bookkeeping: shard-side registry (never the
  /// settlement metrics, whose export must stay byte-identical to the
  /// monolith's) plus the settlement journal, tracer and clock for typed transitions.
  [[nodiscard]] obs::Observer resilience_obs() const noexcept;
  /// Partitions a dense global demand vector into per-shard ShardGroup
  /// slices (index = global id). Throws std::invalid_argument on non-dense
  /// ids or unknown cities.
  [[nodiscard]] std::vector<std::vector<proto::ShardGroup>> slice_demand(
      std::span<const broker::ClientGroup> groups) const;
  /// Sends each shard its slice as kSetDemand and expects acks. With the
  /// link breaker enabled a quarantined/failed shard is flagged for resync
  /// instead of failing the push.
  [[nodiscard]] core::Status push_demand_slices() const;
  [[nodiscard]] core::Status push_slice_to(std::size_t shard) const;
  /// Half-open probes: re-push the current slice to flagged shards whose
  /// breaker admits traffic again.
  void resync_quarantined(std::uint64_t round) const;
  [[nodiscard]] core::Status ensure_fed();
  [[nodiscard]] core::Result<std::vector<broker::ClientGroup>> collect_and_merge(
      std::uint64_t round);
  /// One live collect round-trip to `shard`, fully validated (demand mode).
  [[nodiscard]] core::Result<std::vector<proto::ShardGroup>> collect_live(
      std::size_t shard, const proto::ShardFrame& request,
      std::uint64_t round) const;
  /// Demand-mode merge: sorts by global id and checks the dense bijection.
  [[nodiscard]] core::Result<std::vector<broker::ClientGroup>> merge_demand_groups(
      std::vector<proto::ShardGroup> all) const;
  /// Slices the settlement's placements by owning shard and broadcasts
  /// kAllocation (every shard gets a frame — empty slices close the round).
  [[nodiscard]] core::Status broadcast_allocation(std::uint64_t round);

  struct CoordinatorCore;
  /// Canonical fingerprint of one (adds, removes) batch — pins the verbatim
  /// retry of a delta that failed mid-push.
  [[nodiscard]] static std::uint64_t delta_hash(
      std::span<const proto::ShardSessionAdd> adds,
      std::span<const std::uint32_t> removes);
  [[nodiscard]] std::vector<std::uint8_t> encode_coordinator_core() const;
  [[nodiscard]] std::vector<std::uint8_t> encode_slices() const;
  [[nodiscard]] core::Status restore_from_snapshot(const state::SnapshotView& view,
                                                   bool embedded_workers);

  const sim::Scenario& scenario_;
  ShardedConfig config_;
  ShardPlan plan_;
  std::unique_ptr<VdxExchange> settlement_;
  /// Declared before transport_: the in-process transport borrows the pool.
  std::unique_ptr<core::ThreadPool> pool_;
  std::unique_ptr<net::ShardTransport> transport_;
  /// Null when link_faults has no fault (perfect links).
  std::unique_ptr<proto::FaultInjector> link_injector_;

  std::vector<double> background_loads_;
  proto::ShardDemandMode mode_ = proto::ShardDemandMode::kNone;
  bool fed_ = false;
  /// The coordinator's demand changed since it was last pushed into the
  /// settlement exchange. Crucial for byte-identity under admission control:
  /// the monolith's post-shed demand PERSISTS in the broker agent between
  /// rounds, so re-pushing an unchanged merged demand every round would
  /// reset that and diverge — the settlement only sees demand on change.
  bool demand_dirty_ = false;
  /// Last pushed demand slice per shard (storeless worker recovery, and the
  /// coordinator checkpoint payload).
  std::vector<std::vector<proto::ShardGroup>> last_slices_;
  /// Session-mode routing: id -> owning shard. Serialized in id order.
  std::unordered_map<std::uint32_t, std::uint32_t> session_shard_;
  /// Live sessions per shard, i.e. session_shard_ counted by owner. Kept at
  /// every routing commit (recounted on restore) so the per-round fail-closed
  /// check costs O(shards), not O(population). Exact sums of 1.0.
  std::vector<double> shard_clients_;
  /// A push_session_delta failed mid-broadcast: some shards applied their
  /// slice, routing was not committed. Settlement and checkpoints refuse to
  /// run, and only a verbatim retry (pinned by the batch hash) may follow.
  bool delta_pending_ = false;
  std::uint64_t pending_delta_hash_ = 0;

  std::optional<state::CheckpointStore> coordinator_store_;
  std::vector<std::filesystem::path> worker_store_dirs_;

  /// Gates worker respawns (restart budget + deterministic backoff on the
  /// settlement round clock).
  mutable resilience::Supervisor supervisor_;
  /// One breaker per shard link; empty when the breaker is disabled.
  mutable std::vector<resilience::CircuitBreaker> link_breakers_;
  /// Shard must accept a fresh slice push before its live collect output is
  /// trusted again (set when a push was skipped or failed under the
  /// breaker; cleared by the next successful push).
  mutable std::vector<char> needs_resync_;
  mutable std::size_t stale_rounds_ = 0;

  mutable std::size_t worker_restarts_ = 0;
  mutable obs::MetricsRegistry shard_metrics_;
  struct Counters {
    obs::Counter rounds, frames, retries, rejects, restarts, checkpoints;
    obs::Counter stale_collects, skipped_pushes;
    obs::Gauge shards, merged_groups;
  };
  mutable Counters counters_;
};

}  // namespace vdx::market
