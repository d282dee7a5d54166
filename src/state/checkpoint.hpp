// Timeline checkpoint: everything a StreamingTimeline run needs to resume
// bit-exactly after its process died (DESIGN.md §10).
//
// The captured state is deliberately *derived-free*: stream positions are
// emitted-session counts (the chunked trace generator regenerates any
// position as a pure function of (seed, block)), active populations are the
// minimal per-session tuples the engine's ActiveSet keeps, and every other
// field is the exact cross-epoch state of the engine loop — churn tracker,
// background placement, result accumulators, and the run journal's ring +
// sequence counter. Doubles round-trip as IEEE-754 bit patterns, so a
// resumed run replays the identical arithmetic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/result.hpp"
#include "obs/journal.hpp"

namespace vdx::state {

/// Identity of the run a checkpoint belongs to. Resuming validates this
/// against the freshly built run; a mismatch (different seed, horizon,
/// design, or scenario knobs) is rejected before any state is restored.
struct RunFingerprint {
  std::uint64_t seed = 0;
  std::uint8_t design = 0;
  std::uint64_t broker_sessions = 0;
  std::uint64_t background_sessions = 0;
  double duration_s = 0.0;
  double epoch_s = 0.0;
  /// Caller-supplied hash over any further config that shapes the run
  /// (vdxsim folds its scenario flags in here).
  std::uint64_t config_hash = 0;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

/// One session of a stream's active population (what the engine's ActiveSet
/// needs to rebuild its id map, departure heap, and group-count map).
struct ActiveSession {
  std::uint32_t id = 0;
  std::uint32_t city = 0;
  double bitrate_mbps = 0.0;
  double end_s = 0.0;

  friend bool operator==(const ActiveSession&, const ActiveSession&) = default;
};

/// Position of one session stream: sessions consumed into the engine (the
/// stream re-seeks here on resume) plus the still-active population.
struct StreamCursor {
  std::uint64_t consumed = 0;
  std::vector<ActiveSession> active;  // id-ascending
};

/// detail::ChurnTracker state: previous epoch's assignment and the weighted
/// running mean.
struct ChurnState {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> previous;  // id-ascending
  double sum = 0.0;
  double weight = 0.0;
};

/// obs::RunJournal state: retained ring window plus the counters that make
/// seq survive resume (strict monotonicity across the crash).
struct JournalState {
  std::vector<obs::Event> events;  // oldest first, seq-ascending
  std::uint64_t total = 0;
  std::uint32_t round = 0;
};

struct TimelineCheckpoint {
  RunFingerprint fingerprint;
  /// First epoch the resumed run executes (the checkpoint was taken after
  /// epoch next_epoch - 1 completed).
  std::uint64_t next_epoch = 0;
  StreamCursor broker;
  StreamCursor background;
  ChurnState churn;
  std::vector<double> background_loads;
  bool background_stale = true;
  /// StreamingResult accumulators, restored so the resumed run's final
  /// report covers the whole horizon.
  std::uint64_t peak_active_sessions = 0;
  std::uint64_t decision_rounds = 0;
  std::uint64_t background_recomputes = 0;
  /// Sessions shed by admission control so far (overload-graceful runs).
  std::uint64_t shed_sessions = 0;
  /// Logical clock of the run. The timeline runs no transport round, so its
  /// clock stays 0; the word keeps the snapshot layout.
  std::uint64_t logical_clock = 0;
  JournalState journal;
};

/// Everything a serving daemon (serve::ServeDaemon) needs to resume
/// bit-exactly: feed position + active population, the exchange's opaque
/// save_state() bytes (reputation, strategies, RNG positions, round
/// counter, logical clock), the daemon's own accumulators, and the journal
/// window. Uses its own section ids, so a daemon snapshot and a timeline
/// snapshot reject each other's decoder with a missing-section error.
struct DaemonCheckpoint {
  /// `design` is serve::kDaemonDesign for daemon snapshots; broker_sessions
  /// is the feed horizon (session count), epoch_s the round period.
  RunFingerprint fingerprint;
  /// First round the resumed daemon executes.
  std::uint64_t next_round = 0;
  /// Arrival feed position: sessions consumed plus the still-active set.
  StreamCursor feed;
  /// VdxExchange::save_state() bytes, restored wholesale.
  std::vector<std::uint8_t> exchange_state;
  /// ServeReport accumulators, restored so the resumed run's final report
  /// covers the whole serve.
  std::uint64_t decision_rounds = 0;
  std::uint64_t skipped_rounds = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t peak_active_sessions = 0;
  double shed_mbps_total = 0.0;
  double shed_clients_total = 0.0;
  std::uint64_t shed_rounds = 0;
  /// The exchange's logical clock at the checkpoint (equal to the clock in
  /// exchange_state, which resume restores; kept so the layout stays).
  std::uint64_t logical_clock = 0;
  JournalState journal;
};

/// Serializes to the vdx::state snapshot envelope (magic, version, per-
/// section checksums — see snapshot.hpp).
[[nodiscard]] std::vector<std::uint8_t> encode(const TimelineCheckpoint& checkpoint);
[[nodiscard]] std::vector<std::uint8_t> encode(const DaemonCheckpoint& checkpoint);

/// Parses + validates a snapshot produced by encode(). Typed failures:
/// Errc::kCorruptSnapshot (truncation/mutation/checksum), kVersionMismatch
/// (format version), kInvalidArgument (valid envelope, but not a timeline
/// checkpoint or internally inconsistent).
[[nodiscard]] core::Result<TimelineCheckpoint> decode_timeline(
    std::span<const std::uint8_t> bytes);

/// Daemon counterpart of decode_timeline(); a timeline snapshot fails with
/// kCorruptSnapshot ("missing ... section"), never mis-decodes.
[[nodiscard]] core::Result<DaemonCheckpoint> decode_daemon(
    std::span<const std::uint8_t> bytes);

}  // namespace vdx::state
