#include "market/shard.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "market/federation.hpp"
#include "proto/wire.hpp"
#include "sim/designs.hpp"
#include "sim/scenario.hpp"

namespace vdx::market {
namespace {

using core::Errc;
using core::Result;
using core::Status;
using proto::ShardDemandMode;
using proto::ShardFrame;
using proto::ShardFrameType;

// Worker snapshot sections (its own envelope, ids disjoint from the
// monolith exchange's 10-14 purely for greppability).
constexpr std::uint32_t kWorkerCoreSection = 20;
constexpr std::uint32_t kWorkerJournalSection = 21;
constexpr std::uint32_t kWorkerCountersSection = 22;
// Coordinator snapshot sections.
constexpr std::uint32_t kCoordCoreSection = 30;
constexpr std::uint32_t kCoordSettlementSection = 31;
constexpr std::uint32_t kCoordSlicesSection = 32;
constexpr std::uint32_t kCoordWorkersSection = 33;

[[nodiscard]] Status invalid(std::string message) {
  return Status::failure(Errc::kInvalidArgument, std::move(message));
}

[[nodiscard]] bool finite_nonneg(double v) noexcept {
  return std::isfinite(v) && v >= 0.0;
}

/// Makes room for `extra` more entries without ever shrinking the table.
/// unordered_map::reserve rehashes to the requested size even when that is
/// below the current bucket count, which would rehash a whole book on every
/// steady-state churn batch.
template <typename Map>
void reserve_more(Map& map, std::size_t extra) {
  const std::size_t want = map.size() + extra;
  if (static_cast<double>(want) >
      static_cast<double>(map.bucket_count()) * map.max_load_factor()) {
    map.reserve(want);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardBackend
// ---------------------------------------------------------------------------

std::string_view to_string(ShardBackend backend) noexcept {
  switch (backend) {
    case ShardBackend::kInproc: return "inproc";
    case ShardBackend::kProcess: return "process";
  }
  return "inproc";
}

std::optional<ShardBackend> shard_backend_from(std::string_view name) noexcept {
  if (name == "inproc") return ShardBackend::kInproc;
  if (name == "process") return ShardBackend::kProcess;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// ShardPlan
// ---------------------------------------------------------------------------

ShardPlan ShardPlan::build(const geo::World& world, std::size_t shards) {
  ShardPlan plan;
  const auto cities = world.cities();
  plan.shard_count = std::clamp<std::size_t>(shards, 1, std::max<std::size_t>(
                                                           cities.size(), 1));
  const auto seeds = pick_region_seeds(world, plan.shard_count);
  plan.shard_count = seeds.size();
  plan.shard_of_city.resize(cities.size(), 0);
  plan.city_counts.assign(plan.shard_count, 0);
  for (const geo::City& city : cities) {
    std::uint32_t best = 0;
    double best_km = world.distance_km(city.id, seeds[0]);
    for (std::size_t s = 1; s < seeds.size(); ++s) {
      const double km = world.distance_km(city.id, seeds[s]);
      if (km < best_km) {  // strict: the lower-index seed wins ties
        best_km = km;
        best = static_cast<std::uint32_t>(s);
      }
    }
    plan.shard_of_city[city.id.value()] = best;
    ++plan.city_counts[best];
  }
  return plan;
}

std::uint64_t ShardPlan::hash() const noexcept {
  proto::ByteWriter w;
  w.write_u64(static_cast<std::uint64_t>(shard_count));
  for (const std::uint32_t s : shard_of_city) w.write_u32(s);
  return state::fnv1a(w.data());
}

// ---------------------------------------------------------------------------
// SessionLedger
// ---------------------------------------------------------------------------

core::Status SessionLedger::apply(std::span<const proto::ShardSessionAdd> adds,
                                  std::span<const std::uint32_t> removes) {
  // Validate-then-commit through an undo log: each new id is inserted as it
  // validates, and a rejected batch erases exactly those ids again, so it
  // mutates nothing. (Within a batch, adds are applied before removes.)
  std::vector<Sessions::value_type*> inserted;
  inserted.reserve(adds.size());
  const auto rollback = [&] {
    for (const Sessions::value_type* entry : inserted) {
      const std::uint32_t id = entry->first;  // a key that outlives its node
      sessions_.erase(id);
    }
  };
  const auto reject = [&](std::string message) {
    rollback();
    return invalid(std::move(message));
  };
  try {
    reserve_more(sessions_, adds.size());
    for (const proto::ShardSessionAdd& add : adds) {
      if (!std::isfinite(add.bitrate_mbps) || add.bitrate_mbps <= 0.0) {
        return reject("session ledger: bitrate must be finite and > 0");
      }
      const std::pair<std::uint32_t, double> data{add.city, add.bitrate_mbps};
      const auto [it, fresh] = sessions_.try_emplace(add.id, data);
      if (fresh) {
        inserted.push_back(&*it);
        continue;
      }
      if (it->second == data) continue;  // idempotent re-add
      const bool same_batch =
          std::any_of(inserted.begin(), inserted.end(),
                      [&](const Sessions::value_type* e) { return e->first == add.id; });
      return reject("session ledger: session " + std::to_string(add.id) +
                    (same_batch ? " added twice with different city/bitrate"
                                : " re-added with different city/bitrate"));
    }
  } catch (...) {
    rollback();
    throw;
  }
  // Commit.
  for (const Sessions::value_type* entry : inserted) counts_[entry->second] += 1.0;
  for (const std::uint32_t id : removes) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) continue;  // idempotent re-remove
    const auto cit = counts_.find(it->second);
    if (cit != counts_.end()) {
      cit->second -= 1.0;
      if (cit->second <= 0.5) counts_.erase(cit);
    }
    sessions_.erase(it);
  }
  return core::ok_status();
}

std::vector<broker::ClientGroup> SessionLedger::groups() const {
  std::vector<broker::ClientGroup> out;
  out.reserve(counts_.size());
  for (const auto& [key, count] : counts_) {
    broker::ClientGroup group;
    group.id = broker::ShareId{static_cast<std::uint32_t>(out.size())};
    group.city = geo::CityId{key.first};
    group.isp = 0;
    group.bitrate_mbps = key.second;
    group.client_count = count;
    out.push_back(group);
  }
  return out;
}

void SessionLedger::clear() noexcept {
  sessions_.clear();
  counts_.clear();
}

std::vector<proto::ShardSessionAdd> SessionLedger::sessions() const {
  std::vector<proto::ShardSessionAdd> out;
  out.reserve(sessions_.size());
  for (const auto& [id, data] : sessions_) {
    out.push_back(proto::ShardSessionAdd{id, data.first, data.second});
  }
  // Id order, never hash order: these bytes go into worker snapshots.
  std::sort(out.begin(), out.end(),
            [](const proto::ShardSessionAdd& a, const proto::ShardSessionAdd& b) {
              return a.id < b.id;
            });
  return out;
}

// ---------------------------------------------------------------------------
// ShardWorker
// ---------------------------------------------------------------------------

ShardWorker::ShardWorker(std::uint32_t shard) : shard_(shard), journal_(4096) {
  counters_.frames = metrics_.counter("shard.frames");
  counters_.errors = metrics_.counter("shard.errors");
  counters_.rounds = metrics_.counter("shard.rounds");
  counters_.groups_announced = metrics_.counter("shard.groups_announced");
  counters_.placements = metrics_.counter("shard.placements");
  counters_.awarded_mbps = metrics_.counter("shard.awarded_mbps");
  counters_.demand_mbps = metrics_.gauge("shard.demand_mbps");
  counters_.sessions_active = metrics_.gauge("shard.sessions_active");
}

proto::ShardFrame ShardWorker::ack(const proto::ShardFrame& request,
                                   std::uint64_t value) const {
  ShardFrame out;
  out.type = ShardFrameType::kAck;
  out.shard = shard_;
  out.round = request.round;
  out.payload = proto::encode_shard_ack(value);
  return out;
}

proto::ShardFrame ShardWorker::fail(const proto::ShardFrame& request,
                                    core::Errc code, std::string message) {
  counters_.errors.add();
  ShardFrame out;
  out.type = ShardFrameType::kError;
  out.shard = shard_;
  out.round = request.round;
  out.payload = proto::encode_shard_error(code, message);
  return out;
}

void ShardWorker::refresh_gauges() {
  double demand = 0.0;
  if (mode_ == ShardDemandMode::kDemand) {
    for (const proto::ShardGroup& g : demand_) demand += g.group.demand_mbps();
  } else if (mode_ == ShardDemandMode::kSessions) {
    for (const broker::ClientGroup& g : ledger_.groups()) demand += g.demand_mbps();
  }
  counters_.demand_mbps.set(demand);
  counters_.sessions_active.set(static_cast<double>(ledger_.size()));
}

proto::ShardFrame ShardWorker::on_hello(const proto::ShardFrame& request) {
  auto decoded = proto::decode_shard_hello(request.payload);
  if (!decoded.ok()) {
    return fail(request, decoded.error().code, decoded.error().message);
  }
  const proto::ShardHello& hello = decoded.value();
  if (hello.shard != shard_) {
    return fail(request, Errc::kInvalidArgument,
                "hello addressed to shard " + std::to_string(hello.shard));
  }
  if (configured_) {
    if (hello == context_) return ack(request, 0);  // idempotent re-hello
    return fail(request, Errc::kInvalidArgument,
                "worker already configured with a different topology");
  }
  context_ = hello;
  journal_ = obs::RunJournal{static_cast<std::size_t>(
      std::max<std::uint64_t>(hello.journal_capacity, 1))};
  if (!hello.checkpoint_dir.empty()) {
    store_.emplace(std::filesystem::path{hello.checkpoint_dir},
                   std::max<std::size_t>(hello.checkpoint_keep, 1));
  }
  configured_ = true;
  return ack(request, 0);
}

proto::ShardFrame ShardWorker::on_set_demand(const proto::ShardFrame& request) {
  auto decoded = proto::decode_shard_groups(request.payload);
  if (!decoded.ok()) {
    return fail(request, decoded.error().code, decoded.error().message);
  }
  if (ledger_.size() > 0) {
    return fail(request, Errc::kInvalidArgument,
                "worker is session-fed; explicit demand slices are exclusive");
  }
  for (const proto::ShardGroup& g : decoded.value()) {
    if (g.global_id == proto::kDerivedGroupId) {
      return fail(request, Errc::kInvalidArgument,
                  "demand slice group without a global id");
    }
    if (g.group.city.value() >= context_.city_count) {
      return fail(request, Errc::kInvalidArgument,
                  "demand slice references unknown city " +
                      std::to_string(g.group.city.value()));
    }
    if (!std::isfinite(g.group.bitrate_mbps) || g.group.bitrate_mbps <= 0.0 ||
        !finite_nonneg(g.group.client_count)) {
      return fail(request, Errc::kInvalidArgument,
                  "demand slice group with non-finite bitrate/clients");
    }
  }
  demand_ = std::move(decoded).value();  // replace: trivially idempotent
  mode_ = ShardDemandMode::kDemand;
  refresh_gauges();
  return ack(request, static_cast<std::uint64_t>(demand_.size()));
}

proto::ShardFrame ShardWorker::on_session_delta(const proto::ShardFrame& request) {
  auto decoded = proto::decode_session_delta(request.payload);
  if (!decoded.ok()) {
    return fail(request, decoded.error().code, decoded.error().message);
  }
  if (mode_ == ShardDemandMode::kDemand) {
    return fail(request, Errc::kInvalidArgument,
                "worker holds an explicit demand slice; session deltas are exclusive");
  }
  for (const proto::ShardSessionAdd& add : decoded.value().adds) {
    if (add.city >= context_.city_count) {
      return fail(request, Errc::kInvalidArgument,
                  "session references unknown city " + std::to_string(add.city));
    }
  }
  if (auto status = ledger_.apply(decoded.value().adds, decoded.value().removes);
      !status.ok()) {
    return fail(request, status.error().code, status.error().message);
  }
  mode_ = ShardDemandMode::kSessions;
  refresh_gauges();
  return ack(request, static_cast<std::uint64_t>(ledger_.size()));
}

proto::ShardFrame ShardWorker::on_collect(const proto::ShardFrame& request) {
  proto::ShardCandidates candidates;
  candidates.mode = mode_;
  if (mode_ == ShardDemandMode::kDemand) {
    candidates.groups = demand_;
  } else if (mode_ == ShardDemandMode::kSessions) {
    for (const broker::ClientGroup& g : ledger_.groups()) {
      candidates.groups.push_back(proto::ShardGroup{proto::kDerivedGroupId, g});
    }
  }
  // Round-guarded bookkeeping: a chaos retry of the same collect must not
  // double-record (the journal/counters are part of the deterministic
  // surface the equivalence suite byte-compares).
  if (last_collect_logged_round_ == kNoRound ||
      request.round > last_collect_logged_round_) {
    journal_.begin_round(static_cast<std::uint32_t>(request.round));
    journal_.record(obs::EventKind::kRoundStart, shard_,
                    static_cast<double>(candidates.groups.size()), request.round);
    counters_.rounds.add();
    counters_.groups_announced.add(static_cast<double>(candidates.groups.size()));
    last_collect_logged_round_ = request.round;
  }
  ShardFrame out;
  out.type = ShardFrameType::kBidCandidates;
  out.shard = shard_;
  out.round = request.round;
  out.payload = proto::encode_candidates(candidates);
  return out;
}

proto::ShardFrame ShardWorker::on_allocation(const proto::ShardFrame& request) {
  auto decoded = proto::decode_allocation(request.payload);
  if (!decoded.ok()) {
    return fail(request, decoded.error().code, decoded.error().message);
  }
  // Idempotent per round: a chaos retry of an already-applied allocation is
  // re-acked without touching state.
  if (last_allocation_round_ != kNoRound && request.round <= last_allocation_round_) {
    return ack(request, request.round);
  }
  const auto cluster_count =
      static_cast<std::uint32_t>(context_.cdn_of_cluster.size());
  for (const proto::ShardPlacement& p : decoded.value()) {
    if (p.cluster >= cluster_count) {
      return fail(request, Errc::kInvalidArgument,
                  "allocation references unknown cluster " + std::to_string(p.cluster));
    }
    if (!finite_nonneg(p.clients) || !std::isfinite(p.bitrate_mbps)) {
      return fail(request, Errc::kInvalidArgument,
                  "allocation with non-finite clients/bitrate");
    }
  }
  // Validated: commit (never before this point — a rejected allocation must
  // not partially apply).
  journal_.begin_round(static_cast<std::uint32_t>(request.round));
  double awarded = 0.0;
  for (const proto::ShardPlacement& p : decoded.value()) {
    journal_.record(obs::EventKind::kBid, context_.cdn_of_cluster[p.cluster],
                    p.clients, request.round);
    awarded += p.clients * p.bitrate_mbps;
  }
  journal_.record(obs::EventKind::kRoundEnd, shard_, awarded, request.round);
  counters_.placements.add(static_cast<double>(decoded.value().size()));
  counters_.awarded_mbps.add(awarded);
  rounds_applied_ = request.round + 1;
  last_allocation_round_ = request.round;
  return ack(request, request.round);
}

proto::ShardFrame ShardWorker::on_checkpoint(const proto::ShardFrame& request) {
  if (!store_.has_value()) {
    return fail(request, Errc::kInvalidArgument,
                "worker has no checkpoint store configured");
  }
  const auto bytes = save_state();
  if (auto status = store_->write(request.round, bytes); !status.ok()) {
    return fail(request, status.error().code, status.error().message);
  }
  return ack(request, request.round);
}

proto::ShardFrame ShardWorker::on_resume_from_store(const proto::ShardFrame& request) {
  if (!store_.has_value()) {
    return fail(request, Errc::kInvalidArgument,
                "worker has no checkpoint store configured");
  }
  auto loaded = store_->load_latest([this](std::span<const std::uint8_t> bytes) {
    // Probe on a sibling so a corrupt newest checkpoint falls back to the
    // next-oldest instead of wedging this worker half-restored.
    ShardWorker probe{shard_};
    probe.configured_ = true;
    probe.context_ = context_;
    probe.journal_ = obs::RunJournal{journal_.capacity()};
    return probe.restore_state(bytes);
  });
  if (!loaded.ok()) {
    return fail(request, loaded.error().code, loaded.error().message);
  }
  if (auto status = restore_state(loaded.value().bytes); !status.ok()) {
    return fail(request, status.error().code, status.error().message);
  }
  return ack(request, rounds_applied_);
}

proto::ShardFrame ShardWorker::handle(const proto::ShardFrame& request) {
  counters_.frames.add();
  if (request.type == ShardFrameType::kHello) return on_hello(request);
  if (!configured_) {
    return fail(request, Errc::kNotReady, "worker awaits hello");
  }
  if (request.shard != shard_) {
    return fail(request, Errc::kInvalidArgument,
                "frame addressed to shard " + std::to_string(request.shard));
  }
  switch (request.type) {
    case ShardFrameType::kSetDemand: return on_set_demand(request);
    case ShardFrameType::kSessionDelta: return on_session_delta(request);
    case ShardFrameType::kCollect: return on_collect(request);
    case ShardFrameType::kAllocation: return on_allocation(request);
    case ShardFrameType::kStateRequest: {
      ShardFrame out;
      out.type = ShardFrameType::kStateResponse;
      out.shard = shard_;
      out.round = request.round;
      out.payload = save_state();
      return out;
    }
    case ShardFrameType::kRestoreState: {
      if (auto status = restore_state(request.payload); !status.ok()) {
        return fail(request, status.error().code, status.error().message);
      }
      return ack(request, rounds_applied_);
    }
    case ShardFrameType::kCheckpoint: return on_checkpoint(request);
    case ShardFrameType::kResumeFromStore: return on_resume_from_store(request);
    case ShardFrameType::kJournalRequest: {
      proto::ShardJournalSlice slice;
      slice.total_recorded = journal_.total_recorded();
      slice.round = journal_.current_round();
      slice.events = journal_.events();
      ShardFrame out;
      out.type = ShardFrameType::kJournalSlice;
      out.shard = shard_;
      out.round = request.round;
      out.payload = proto::encode_journal_slice(slice);
      return out;
    }
    case ShardFrameType::kShutdown: return ack(request, rounds_applied_);
    default:
      return fail(request, Errc::kInvalidArgument, "unexpected frame type");
  }
}

std::vector<std::uint8_t> ShardWorker::handle_bytes(
    std::span<const std::uint8_t> bytes, bool* shutdown) {
  auto decoded = proto::try_decode_shard_frame(bytes);
  if (!decoded.ok()) {
    counters_.frames.add();
    counters_.errors.add();
    ShardFrame out;
    out.type = ShardFrameType::kError;
    out.shard = shard_;
    out.payload =
        proto::encode_shard_error(decoded.error().code, decoded.error().message);
    return proto::encode_shard_frame(out);
  }
  const ShardFrame response = handle(decoded.value());
  if (shutdown != nullptr && decoded.value().type == ShardFrameType::kShutdown &&
      response.type == ShardFrameType::kAck) {
    *shutdown = true;
  }
  return proto::encode_shard_frame(response);
}

int ShardWorker::serve_fd(std::uint32_t shard, int fd) {
  ShardWorker worker{shard};
  for (;;) {
    auto request = net::read_frame_fd(fd);
    if (!request.ok()) {
      // EOF (coordinator gone) is a clean exit; a framing-level length lie
      // leaves the stream unsynchronized, so bail out.
      return request.error().code == Errc::kUnavailable ? 0 : 1;
    }
    bool shutdown = false;
    const auto response = worker.handle_bytes(request.value(), &shutdown);
    if (auto status = net::write_frame_fd(fd, response); !status.ok()) return 1;
    if (shutdown) return 0;
  }
}

std::vector<std::uint8_t> ShardWorker::save_state() const {
  state::SnapshotWriter writer;
  {
    proto::ByteWriter w;
    w.write_u32(shard_);
    w.write_u32(context_.shard_count);
    w.write_u32(context_.city_count);
    w.write_u64(context_.plan_hash);
    w.write_u64(rounds_applied_);
    w.write_u64(last_allocation_round_);
    w.write_u64(last_collect_logged_round_);
    w.write_u8(static_cast<std::uint8_t>(mode_));
    const auto demand_bytes = proto::encode_shard_groups(demand_);
    w.write_u32(static_cast<std::uint32_t>(demand_bytes.size()));
    w.write_bytes(demand_bytes);
    const auto sessions = ledger_.sessions();
    w.write_u32(static_cast<std::uint32_t>(sessions.size()));
    for (const proto::ShardSessionAdd& s : sessions) {
      w.write_u32(s.id);
      w.write_u32(s.city);
      w.write_f64(s.bitrate_mbps);
    }
    writer.add_section(kWorkerCoreSection, w.take());
  }
  {
    proto::ShardJournalSlice slice;
    slice.total_recorded = journal_.total_recorded();
    slice.round = journal_.current_round();
    slice.events = journal_.events();
    writer.add_section(kWorkerJournalSection, proto::encode_journal_slice(slice));
  }
  {
    // Deterministic counters only: shard.frames/shard.errors depend on link
    // chaos and retry luck, so a restored worker must NOT inherit them — the
    // deterministic surfaces are what the kill-and-resume drill compares.
    proto::ByteWriter w;
    const std::pair<const char*, double> saved[] = {
        {"shard.rounds", counters_.rounds.value()},
        {"shard.groups_announced", counters_.groups_announced.value()},
        {"shard.placements", counters_.placements.value()},
        {"shard.awarded_mbps", counters_.awarded_mbps.value()},
    };
    w.write_u32(static_cast<std::uint32_t>(std::size(saved)));
    for (const auto& [name, value] : saved) {
      w.write_string(name);
      w.write_f64(value);
    }
    writer.add_section(kWorkerCountersSection, w.take());
  }
  return writer.finish();
}

core::Status ShardWorker::restore_state(std::span<const std::uint8_t> bytes) {
  if (!configured_) {
    return Status::failure(Errc::kNotReady, "worker awaits hello before restore");
  }
  auto parsed = state::SnapshotView::parse(bytes);
  if (!parsed.ok()) return Status{parsed.error()};
  const state::SnapshotView& view = parsed.value();
  const state::Section* core_section = view.find(kWorkerCoreSection);
  const state::Section* journal_section = view.find(kWorkerJournalSection);
  const state::Section* counters_section = view.find(kWorkerCountersSection);
  if (core_section == nullptr || journal_section == nullptr ||
      counters_section == nullptr) {
    return Status::failure(Errc::kCorruptSnapshot, "worker snapshot: missing section");
  }

  // Decode EVERYTHING into locals before touching any member: a corrupt
  // snapshot must leave the worker exactly as it was.
  std::uint64_t rounds_applied = 0;
  std::uint64_t last_allocation = 0;
  std::uint64_t last_collect = 0;
  ShardDemandMode mode = ShardDemandMode::kNone;
  std::vector<proto::ShardGroup> demand;
  std::vector<proto::ShardSessionAdd> sessions;
  try {
    proto::ByteReader r{core_section->bytes};
    const std::uint32_t shard = r.read_u32();
    const std::uint32_t shard_count = r.read_u32();
    const std::uint32_t city_count = r.read_u32();
    const std::uint64_t plan_hash = r.read_u64();
    if (shard != shard_ || shard_count != context_.shard_count ||
        city_count != context_.city_count || plan_hash != context_.plan_hash) {
      return invalid("worker snapshot: taken under a different shard topology");
    }
    rounds_applied = r.read_u64();
    last_allocation = r.read_u64();
    last_collect = r.read_u64();
    const std::uint8_t mode_raw = r.read_u8();
    if (mode_raw > static_cast<std::uint8_t>(ShardDemandMode::kSessions)) {
      return Status::failure(Errc::kCorruptSnapshot, "worker snapshot: bad mode");
    }
    mode = static_cast<ShardDemandMode>(mode_raw);
    const std::uint32_t demand_len = r.read_u32();
    auto decoded = proto::decode_shard_groups(r.read_bytes(demand_len));
    if (!decoded.ok()) return Status{decoded.error()};
    demand = std::move(decoded).value();
    const std::uint32_t session_count = r.read_u32();
    if (session_count > r.remaining() / 16) {
      return Status::failure(Errc::kCorruptSnapshot,
                             "worker snapshot: session count lie");
    }
    sessions.reserve(session_count);
    for (std::uint32_t i = 0; i < session_count; ++i) {
      proto::ShardSessionAdd s;
      s.id = r.read_u32();
      s.city = r.read_u32();
      s.bitrate_mbps = r.read_f64();
      sessions.push_back(s);
    }
    if (!r.exhausted()) {
      return Status::failure(Errc::kCorruptSnapshot,
                             "worker snapshot: trailing core bytes");
    }
  } catch (const proto::WireError& e) {
    return Status::failure(Errc::kCorruptSnapshot,
                           std::string{"worker snapshot: "} + e.what());
  }

  // Validate the sessions on a scratch ledger in the decode phase: a
  // checksum-valid snapshot can still carry an unappliable session set
  // (non-finite/<=0 bitrate, conflicting duplicate ids), and finding that
  // out after the commit started would leave the worker half-mutated.
  SessionLedger ledger;
  if (!sessions.empty()) {
    if (auto status = ledger.apply(sessions, {}); !status.ok()) return status;
  }

  auto journal_slice = proto::decode_journal_slice(journal_section->bytes);
  if (!journal_slice.ok()) return Status{journal_slice.error()};

  std::vector<std::pair<std::string, double>> counter_values;
  try {
    proto::ByteReader r{counters_section->bytes};
    const std::uint32_t count = r.read_u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string name = r.read_string();
      const double value = r.read_f64();
      counter_values.emplace_back(std::move(name), value);
    }
    if (!r.exhausted()) {
      return Status::failure(Errc::kCorruptSnapshot,
                             "worker snapshot: trailing counter bytes");
    }
  } catch (const proto::WireError& e) {
    return Status::failure(Errc::kCorruptSnapshot,
                           std::string{"worker snapshot: "} + e.what());
  }

  // Rebuild the journal on a scratch instance so a restore() rejection
  // (window inconsistent with total) leaves the live journal untouched.
  obs::RunJournal journal{static_cast<std::size_t>(
      std::max<std::uint64_t>(context_.journal_capacity, 1))};
  if (auto status = journal.restore(journal_slice.value().events,
                                    journal_slice.value().total_recorded,
                                    journal_slice.value().round);
      !status.ok()) {
    return status;
  }

  // Commit.
  rounds_applied_ = rounds_applied;
  last_allocation_round_ = last_allocation;
  last_collect_logged_round_ = last_collect;
  mode_ = mode;
  demand_ = std::move(demand);
  ledger_ = std::move(ledger);
  journal_ = std::move(journal);
  const std::pair<const char*, obs::Counter*> handles[] = {
      {"shard.rounds", &counters_.rounds},
      {"shard.groups_announced", &counters_.groups_announced},
      {"shard.placements", &counters_.placements},
      {"shard.awarded_mbps", &counters_.awarded_mbps},
  };
  for (const auto& [name, value] : counter_values) {
    for (const auto& [known, handle] : handles) {
      // Delta-add: counters have no set(), and restore may land on a worker
      // that already accumulated (idempotent re-restore).
      if (name == known) handle->add(value - handle->value());
    }
  }
  refresh_gauges();
  return core::ok_status();
}

// ---------------------------------------------------------------------------
// ShardedExchange
// ---------------------------------------------------------------------------

ShardedExchange::ShardedExchange(const sim::Scenario& scenario, ShardedConfig config)
    : scenario_(scenario), config_(std::move(config)) {
  plan_ = ShardPlan::build(scenario_.world(), config_.shards);
  config_.shards = plan_.shard_count;
  settlement_ = std::make_unique<VdxExchange>(scenario_, config_.exchange);
  background_loads_ = sim::place_background(scenario_);
  last_slices_.resize(plan_.shard_count);
  shard_clients_.assign(plan_.shard_count, 0.0);
  if (config_.link_faults.any()) {
    link_injector_ = std::make_unique<proto::FaultInjector>(config_.link_faults);
  }
  if (!config_.checkpoint_dir.empty()) {
    coordinator_store_.emplace(config_.checkpoint_dir / "coordinator",
                               std::max<std::size_t>(config_.checkpoint_keep, 1));
    worker_store_dirs_.reserve(plan_.shard_count);
    for (std::size_t s = 0; s < plan_.shard_count; ++s) {
      worker_store_dirs_.push_back(config_.checkpoint_dir /
                                   ("shard-" + std::to_string(s)));
    }
  }
  if (config_.backend == ShardBackend::kProcess) {
    // The WorkerMain runs post-fork: it must capture nothing and touch no
    // coordinator state (the child shares nothing but the socket).
    transport_ = std::make_unique<net::ProcessShardTransport>(
        plan_.shard_count, [](std::size_t shard, int fd) {
          return ShardWorker::serve_fd(static_cast<std::uint32_t>(shard), fd);
        });
  } else {
    if (config_.collect_threads != 1 && link_injector_ == nullptr) {
      pool_ = std::make_unique<core::ThreadPool>(config_.collect_threads);
    }
    transport_ = std::make_unique<net::InprocShardTransport>(
        plan_.shard_count,
        [](std::size_t shard) {
          auto worker =
              std::make_shared<ShardWorker>(static_cast<std::uint32_t>(shard));
          return [worker](std::span<const std::uint8_t> bytes) {
            return worker->handle_bytes(bytes);
          };
        },
        pool_.get());
  }

  counters_.rounds = shard_metrics_.counter("exchange.shard.rounds");
  counters_.frames = shard_metrics_.counter("exchange.shard.frames");
  counters_.retries = shard_metrics_.counter("exchange.shard.retries");
  counters_.rejects = shard_metrics_.counter("exchange.shard.rejects");
  counters_.restarts = shard_metrics_.counter("exchange.shard.restarts");
  counters_.checkpoints = shard_metrics_.counter("exchange.shard.checkpoints");
  counters_.stale_collects = shard_metrics_.counter("exchange.shard.stale_collects");
  counters_.skipped_pushes = shard_metrics_.counter("exchange.shard.skipped_pushes");
  counters_.shards = shard_metrics_.gauge("exchange.shard.shards");
  counters_.merged_groups = shard_metrics_.gauge("exchange.shard.merged_groups");
  counters_.shards.set(static_cast<double>(plan_.shard_count));

  supervisor_ = resilience::Supervisor{config_.worker_restart, resilience_obs()};
  needs_resync_.assign(plan_.shard_count, 0);
  if (config_.link_breaker.enabled()) {
    link_breakers_.reserve(plan_.shard_count);
    for (std::size_t s = 0; s < plan_.shard_count; ++s) {
      link_breakers_.emplace_back(config_.link_breaker, resilience_obs(),
                                  static_cast<std::uint32_t>(s));
    }
  }

  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    if (auto status = send_hello(s); !status.ok()) {
      throw std::runtime_error{"ShardedExchange: hello to shard " +
                               std::to_string(s) + " failed: " +
                               status.error().message};
    }
  }
}

ShardedExchange::~ShardedExchange() = default;

obs::Observer ShardedExchange::resilience_obs() const noexcept {
  obs::Observer obs;
  obs.metrics = &shard_metrics_;
  obs.tracer = config_.exchange.obs.tracer;
  obs.journal = config_.exchange.obs.journal;
  obs.clock = &settlement_->logical_clock();
  return obs;
}

std::size_t ShardedExchange::open_breakers() const {
  std::size_t open = 0;
  for (const resilience::CircuitBreaker& breaker : link_breakers_) {
    if (breaker.open()) ++open;
  }
  return open;
}

bool ShardedExchange::shard_quarantined(std::size_t shard) const noexcept {
  if (link_breakers_.empty() || shard >= plan_.shard_count) return false;
  return link_breakers_[shard].open() || needs_resync_[shard] != 0;
}

proto::ShardHello ShardedExchange::hello_for(std::size_t shard) const {
  proto::ShardHello hello;
  hello.shard = static_cast<std::uint32_t>(shard);
  hello.shard_count = static_cast<std::uint32_t>(plan_.shard_count);
  hello.city_count = static_cast<std::uint32_t>(scenario_.world().cities().size());
  hello.plan_hash = plan_.hash();
  const auto clusters = scenario_.catalog().clusters();
  hello.cdn_of_cluster.reserve(clusters.size());
  for (const cdn::Cluster& cluster : clusters) {
    hello.cdn_of_cluster.push_back(cluster.cdn.value());
  }
  hello.journal_capacity = config_.worker_journal_capacity;
  hello.checkpoint_dir = worker_store_dirs_.empty()
                             ? std::string{}
                             : worker_store_dirs_[shard].string();
  hello.checkpoint_keep = static_cast<std::uint32_t>(
      std::max<std::size_t>(config_.checkpoint_keep, 1));
  return hello;
}

core::Status ShardedExchange::send_hello(std::size_t shard) const {
  ShardFrame frame;
  frame.type = ShardFrameType::kHello;
  frame.shard = static_cast<std::uint32_t>(shard);
  frame.payload = proto::encode_shard_hello(hello_for(shard));
  auto response = direct_call(shard, frame, /*recover=*/false);
  if (!response.ok()) return Status{response.error()};
  if (response.value().type != ShardFrameType::kAck) {
    return Status::failure(Errc::kCorruptFrame, "hello: unexpected response type");
  }
  return core::ok_status();
}

ShardedExchange::FrameResult ShardedExchange::direct_call(
    std::size_t shard, const proto::ShardFrame& request, bool recover) const {
  const auto bytes = proto::encode_shard_frame(request);
  counters_.frames.add();
  auto raw = transport_->roundtrip(shard, bytes);
  if (!raw.ok() && raw.error().code == Errc::kUnavailable && recover) {
    if (auto status = recover_worker(shard); !status.ok()) {
      return FrameResult{status.error()};
    }
    raw = transport_->roundtrip(shard, bytes);
  }
  if (!raw.ok()) return FrameResult{raw.error()};
  auto decoded = proto::try_decode_shard_frame(raw.value());
  if (!decoded.ok()) return FrameResult{decoded.error()};
  if (decoded.value().type == ShardFrameType::kError) {
    auto err = proto::decode_shard_error(decoded.value().payload);
    if (!err.ok()) return FrameResult{err.error()};
    return FrameResult::failure(
        err.value().code, "shard " + std::to_string(shard) + ": " +
                              err.value().message);
  }
  return decoded;
}

ShardedExchange::FrameResult ShardedExchange::chaotic_call(
    std::size_t shard, const proto::ShardFrame& request) const {
  const auto request_bytes = proto::encode_shard_frame(request);
  // Link streams: shard s transmits on link s, receives on link N + s, so
  // the two legs draw from independent deterministic fault sequences.
  const std::size_t tx_link = shard;
  const std::size_t rx_link = plan_.shard_count + shard;
  for (std::size_t attempt = 0; attempt <= config_.max_link_retries; ++attempt) {
    if (attempt > 0) counters_.retries.add();
    auto tx_copies = link_injector_->apply(tx_link, request_bytes);
    if (tx_copies.empty()) continue;  // dropped on the wire
    counters_.frames.add(static_cast<double>(tx_copies.size()));
    // Deliver EVERY copy the injector emitted: a duplicated frame really
    // reaches the worker twice, exercising per-round idempotency end to end.
    // The coordinator acts on the response to the LAST copy delivered;
    // earlier copies' responses are stale and discarded unread, so the rx
    // fault stream still advances exactly once per attempt.
    core::Result<std::vector<std::uint8_t>> raw =
        transport_->roundtrip(shard, tx_copies.front().bytes);
    for (std::size_t c = 1; c < tx_copies.size() && raw.ok(); ++c) {
      raw = transport_->roundtrip(shard, tx_copies[c].bytes);
    }
    if (!raw.ok()) {
      if (raw.error().code == Errc::kUnavailable) {
        if (auto status = recover_worker(shard); !status.ok()) {
          return FrameResult{status.error()};
        }
        continue;
      }
      return FrameResult{raw.error()};
    }
    auto rx_copies = link_injector_->apply(rx_link, raw.value());
    if (rx_copies.empty()) continue;  // response dropped
    // A duplicated response doesn't re-execute anything — the receiving end
    // simply consumes the last copy delivered.
    auto decoded = proto::try_decode_shard_frame(rx_copies.back().bytes);
    if (!decoded.ok()) {
      counters_.rejects.add();  // response mutated in flight
      continue;
    }
    if (decoded.value().type == ShardFrameType::kError) {
      auto err = proto::decode_shard_error(decoded.value().payload);
      if (!err.ok() || err.value().code == Errc::kCorruptFrame) {
        counters_.rejects.add();  // our request arrived mutated: retry intact
        continue;
      }
      return FrameResult::failure(
          err.value().code, "shard " + std::to_string(shard) + ": " +
                                err.value().message);
    }
    return decoded;
  }
  return FrameResult::failure(
      Errc::kTimeout, "shard " + std::to_string(shard) +
                          ": link retry budget exhausted under chaos");
}

ShardedExchange::FrameResult ShardedExchange::data_call(
    std::size_t shard, const proto::ShardFrame& request) const {
  return link_injector_ != nullptr ? chaotic_call(shard, request)
                                   : direct_call(shard, request, /*recover=*/true);
}

core::Result<std::vector<proto::ShardFrame>> ShardedExchange::data_broadcast(
    const std::vector<proto::ShardFrame>& requests) const {
  using R = core::Result<std::vector<proto::ShardFrame>>;
  std::vector<proto::ShardFrame> out;
  out.reserve(requests.size());
  if (link_injector_ != nullptr) {
    // Chaos keeps the coordinator serial and in shard order: the injector's
    // per-link RNG streams are ordered state, and determinism wins over
    // overlap here.
    for (std::size_t s = 0; s < requests.size(); ++s) {
      auto response = chaotic_call(s, requests[s]);
      if (!response.ok()) return R{response.error()};
      out.push_back(std::move(response).value());
    }
    return out;
  }
  std::vector<std::vector<std::uint8_t>> encoded;
  encoded.reserve(requests.size());
  for (const ShardFrame& frame : requests) {
    encoded.push_back(proto::encode_shard_frame(frame));
  }
  counters_.frames.add(static_cast<double>(requests.size()));
  auto raw = transport_->broadcast(encoded);
  for (std::size_t s = 0; s < raw.size(); ++s) {
    if (!raw[s].ok() && raw[s].error().code == Errc::kUnavailable) {
      if (auto status = recover_worker(s); !status.ok()) {
        return R{status.error()};
      }
      raw[s] = transport_->roundtrip(s, encoded[s]);
    }
    if (!raw[s].ok()) return R{raw[s].error()};
    auto decoded = proto::try_decode_shard_frame(raw[s].value());
    if (!decoded.ok()) return R{decoded.error()};
    if (decoded.value().type == ShardFrameType::kError) {
      auto err = proto::decode_shard_error(decoded.value().payload);
      if (!err.ok()) return R{err.error()};
      return R::failure(err.value().code, "shard " + std::to_string(s) + ": " +
                                              err.value().message);
    }
    out.push_back(std::move(decoded).value());
  }
  return out;
}

core::Status ShardedExchange::recover_worker(std::size_t shard) const {
  auto status = try_recover_worker(shard);
  if (!status.ok()) {
    // A worker that failed recovery must not linger half-initialized: a
    // respawned-but-empty worker would happily accept the next session
    // delta against an empty ledger and silently lose every session it held
    // before. Keep it dead so every subsequent call fails typed instead.
    transport_->kill(shard);
  }
  return status;
}

core::Status ShardedExchange::try_recover_worker(std::size_t shard) const {
  // The supervisor owns the restart budget: a denied respawn fails typed so
  // the caller (breaker-aware paths quarantine; legacy paths fail closed)
  // sees kUnavailable instead of a free respawn loop. The default policy is
  // unbounded and immediate, matching the pre-supervisor behavior.
  switch (supervisor_.on_failure(static_cast<std::uint32_t>(shard),
                                 settlement_->rounds_completed())) {
    case resilience::RestartDecision::kRestart:
      break;
    case resilience::RestartDecision::kBackoff:
      return Status::failure(
          Errc::kUnavailable,
          "shard " + std::to_string(shard) + ": restart backoff until round " +
              std::to_string(supervisor_.retry_at(static_cast<std::uint32_t>(shard))));
    case resilience::RestartDecision::kGiveUp:
      return Status::failure(Errc::kUnavailable,
                             "shard " + std::to_string(shard) +
                                 ": restart budget exhausted for this window");
  }
  if (auto status = transport_->respawn(shard); !status.ok()) return status;
  ++worker_restarts_;
  counters_.restarts.add();
  if (auto status = send_hello(shard); !status.ok()) return status;

  bool restored = false;
  if (!worker_store_dirs_.empty()) {
    ShardFrame resume;
    resume.type = ShardFrameType::kResumeFromStore;
    resume.shard = static_cast<std::uint32_t>(shard);
    auto response = direct_call(shard, resume, /*recover=*/false);
    if (response.ok() && response.value().type == ShardFrameType::kAck) {
      auto rounds = proto::decode_shard_ack(response.value().payload);
      if (!rounds.ok()) return Status{rounds.error()};
      if (mode_ == ShardDemandMode::kSessions &&
          rounds.value() != settlement_->rounds_completed()) {
        return Status::failure(
            Errc::kNotReady,
            "shard " + std::to_string(shard) + ": checkpoint is " +
                std::to_string(rounds.value()) + " rounds but the marketplace is at " +
                std::to_string(settlement_->rounds_completed()) +
                " — session state cannot be replayed");
      }
      restored = true;
    } else if (mode_ == ShardDemandMode::kSessions) {
      return response.ok()
                 ? Status::failure(Errc::kUnavailable,
                                   "shard " + std::to_string(shard) +
                                       ": session-fed worker lost its checkpoint")
                 : Status{response.error()};
    }
  } else if (mode_ == ShardDemandMode::kSessions) {
    return Status::failure(Errc::kUnavailable,
                           "shard " + std::to_string(shard) +
                               ": session-fed worker died without a checkpoint "
                               "store (configure checkpoint_dir)");
  }

  if (mode_ == ShardDemandMode::kDemand) {
    // The cached slice is authoritative and replace-semantics make the push
    // idempotent, so re-push even over a store-restored worker: a stale
    // checkpoint then costs journal history, never settlement bytes.
    (void)restored;
    ShardFrame push;
    push.type = ShardFrameType::kSetDemand;
    push.shard = static_cast<std::uint32_t>(shard);
    push.payload = proto::encode_shard_groups(last_slices_[shard]);
    auto response = direct_call(shard, push, /*recover=*/false);
    if (!response.ok()) return Status{response.error()};
  }
  supervisor_.on_success(static_cast<std::uint32_t>(shard));
  return core::ok_status();
}

std::vector<std::vector<proto::ShardGroup>> ShardedExchange::slice_demand(
    std::span<const broker::ClientGroup> groups) const {
  std::vector<std::vector<proto::ShardGroup>> slices(plan_.shard_count);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const broker::ClientGroup& group = groups[i];
    if (group.id.value() != i) {
      throw std::invalid_argument{
          "ShardedExchange: demand group ids must be dense (== index)"};
    }
    if (group.city.value() >= plan_.shard_of_city.size()) {
      throw std::invalid_argument{"ShardedExchange: demand references unknown city"};
    }
    slices[plan_.shard_of(group.city)].push_back(
        proto::ShardGroup{static_cast<std::uint32_t>(i), group});
  }
  return slices;
}

core::Status ShardedExchange::push_slice_to(std::size_t shard) const {
  ShardFrame frame;
  frame.type = ShardFrameType::kSetDemand;
  frame.shard = static_cast<std::uint32_t>(shard);
  frame.payload = proto::encode_shard_groups(last_slices_[shard]);
  auto response = data_call(shard, frame);
  if (!response.ok()) return Status{response.error()};
  if (response.value().type != ShardFrameType::kAck) {
    return Status::failure(Errc::kCorruptFrame,
                           "set_demand: unexpected response type");
  }
  return core::ok_status();
}

core::Status ShardedExchange::push_demand_slices() const {
  const bool breakers = !link_breakers_.empty();
  const std::uint64_t now = settlement_->rounds_completed();
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    if (breakers && !link_breakers_[s].allow(now)) {
      // Quarantined: leave the shard alone instead of burning the link
      // retry budget. It settles from the coordinator's cached slice (the
      // authoritative copy in demand mode) until a half-open probe lands a
      // fresh push.
      needs_resync_[s] = 1;
      counters_.skipped_pushes.add();
      continue;
    }
    auto pushed = push_slice_to(s);
    if (pushed.ok()) {
      if (breakers) {
        link_breakers_[s].on_success(now);
        needs_resync_[s] = 0;
      }
      continue;
    }
    if (!breakers) return pushed;
    link_breakers_[s].on_failure(now);
    needs_resync_[s] = 1;
  }
  return core::ok_status();
}

/// Half-open probes for flagged shards: a successful re-push of the current
/// slice is the only thing that clears needs_resync_, because only a push
/// proves the worker's demand matches the coordinator cache again.
void ShardedExchange::resync_quarantined(std::uint64_t round) const {
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    if (needs_resync_[s] == 0) continue;
    if (!link_breakers_[s].allow(round)) continue;
    auto pushed = push_slice_to(s);
    if (pushed.ok()) {
      link_breakers_[s].on_success(round);
      needs_resync_[s] = 0;
    } else {
      link_breakers_[s].on_failure(round);
    }
  }
}

void ShardedExchange::set_active_load(std::span<const broker::ClientGroup> groups,
                                      std::span<const double> background_loads) {
  if (background_loads.size() != scenario_.catalog().clusters().size()) {
    throw std::invalid_argument{
        "ShardedExchange::set_active_load: loads arity mismatch"};
  }
  if (mode_ == ShardDemandMode::kSessions) {
    throw std::logic_error{
        "ShardedExchange: exchange is session-fed; set_active_load is exclusive"};
  }
  auto slices = slice_demand(groups);
  last_slices_ = std::move(slices);
  background_loads_.assign(background_loads.begin(), background_loads.end());
  mode_ = ShardDemandMode::kDemand;
  fed_ = true;
  demand_dirty_ = true;
  if (auto status = push_demand_slices(); !status.ok()) {
    throw std::runtime_error{"ShardedExchange::set_active_load: " +
                             status.error().message};
  }
}

std::uint64_t ShardedExchange::delta_hash(
    std::span<const proto::ShardSessionAdd> adds,
    std::span<const std::uint32_t> removes) {
  proto::ByteWriter w;
  w.write_u32(static_cast<std::uint32_t>(adds.size()));
  for (const proto::ShardSessionAdd& add : adds) {
    w.write_u32(add.id);
    w.write_u32(add.city);
    w.write_f64(add.bitrate_mbps);
  }
  w.write_u32(static_cast<std::uint32_t>(removes.size()));
  for (const std::uint32_t id : removes) w.write_u32(id);
  return state::fnv1a(w.data());
}

core::Status ShardedExchange::push_session_delta(
    std::span<const proto::ShardSessionAdd> adds,
    std::span<const std::uint32_t> removes) {
  if (mode_ == ShardDemandMode::kDemand) {
    return invalid(
        "ShardedExchange: exchange holds explicit demand; session deltas are "
        "exclusive");
  }
  const std::uint64_t batch_hash = delta_hash(adds, removes);
  if (delta_pending_ && batch_hash != pending_delta_hash_) {
    return Status::failure(
        Errc::kNotReady,
        "push_session_delta: a previous delta failed mid-push and may be "
        "applied on some shards; retry the identical batch first");
  }
  std::vector<proto::ShardSessionDelta> deltas(plan_.shard_count);
  // Same-batch ids are remembered so a remove in the SAME batch follows its
  // add to the owning shard (SessionLedger::apply applies adds before removes
  // within one batch); routing it via session_shard_ — committed batches only
  // — would skip the remove and leak a phantom session into the worker ledger.
  std::unordered_map<std::uint32_t, std::uint32_t> batch_shard;
  batch_shard.reserve(adds.size());
  for (const proto::ShardSessionAdd& add : adds) {
    if (add.city >= plan_.shard_of_city.size()) {
      return invalid("push_session_delta: unknown city " + std::to_string(add.city));
    }
    const std::uint32_t shard = plan_.shard_of_city[add.city];
    if (const auto [it, inserted] = batch_shard.emplace(add.id, shard);
        !inserted && it->second != shard) {
      // A conflicting duplicate on ONE shard is rejected by its ledger, but
      // copies routed to different shards would each be accepted — refuse
      // here, where both are visible, exactly like the global ledger would.
      return invalid("push_session_delta: session " + std::to_string(add.id) +
                     " added twice with cities on different shards");
    }
    if (const auto owner = session_shard_.find(add.id);
        owner != session_shard_.end() && owner->second != shard) {
      // A re-add whose new city routes to a different shard would be accepted
      // there as a brand-new session while the old shard keeps its copy. The
      // global ledger rejects a re-add with different data — mirror that here,
      // where both owners are visible.
      return invalid("push_session_delta: session " + std::to_string(add.id) +
                     " re-added with a city on a different shard");
    }
    deltas[shard].adds.push_back(add);
  }
  for (const std::uint32_t id : removes) {
    if (const auto bit = batch_shard.find(id); bit != batch_shard.end()) {
      deltas[bit->second].removes.push_back(id);
      continue;
    }
    const auto it = session_shard_.find(id);
    if (it == session_shard_.end()) continue;  // idempotent re-remove
    deltas[it->second].removes.push_back(id);
  }
  // The per-shard sends are NOT atomic as a set: a failure at shard k leaves
  // shards < k applied. Mark the batch outstanding before the first send —
  // settlement refuses to run and only a verbatim retry (idempotent on the
  // already-applied shards) may follow until the whole batch lands.
  delta_pending_ = true;
  pending_delta_hash_ = batch_hash;
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    if (deltas[s].adds.empty() && deltas[s].removes.empty()) continue;
    ShardFrame frame;
    frame.type = ShardFrameType::kSessionDelta;
    frame.shard = static_cast<std::uint32_t>(s);
    frame.payload = proto::encode_session_delta(deltas[s]);
    auto response = data_call(s, frame);
    if (!response.ok()) return Status{response.error()};
  }
  delta_pending_ = false;
  // Commit routing only after every shard accepted its delta. Adds first,
  // then removes — the same order the workers applied them in. A re-added id
  // already routes to this shard (checked above), so only new ids count.
  reserve_more(session_shard_, adds.size());
  for (const proto::ShardSessionAdd& add : adds) {
    const std::uint32_t shard = plan_.shard_of_city[add.city];
    if (session_shard_.try_emplace(add.id, shard).second) shard_clients_[shard] += 1.0;
  }
  for (const std::uint32_t id : removes) {
    const auto it = session_shard_.find(id);
    if (it == session_shard_.end()) continue;
    shard_clients_[it->second] -= 1.0;
    session_shard_.erase(it);
  }
  mode_ = ShardDemandMode::kSessions;
  fed_ = true;
  demand_dirty_ = true;
  return core::ok_status();
}

core::Status ShardedExchange::ensure_fed() {
  if (fed_) return core::ok_status();
  // Default demand, exactly like the monolith: the scenario's broker groups
  // against the placed background load.
  last_slices_ = slice_demand(scenario_.broker_groups());
  mode_ = ShardDemandMode::kDemand;
  fed_ = true;
  demand_dirty_ = true;
  return push_demand_slices();
}

core::Result<std::vector<broker::ClientGroup>> ShardedExchange::collect_and_merge(
    std::uint64_t round) {
  using R = core::Result<std::vector<broker::ClientGroup>>;
  std::vector<ShardFrame> requests(plan_.shard_count);
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    requests[s].type = ShardFrameType::kCollect;
    requests[s].shard = static_cast<std::uint32_t>(s);
    requests[s].round = round;
  }

  if (breaker_active()) {
    // Demand mode under the breaker: a quarantined shard's groups are
    // synthesized from the coordinator's cached slice — byte-identical to
    // a live answer, because workers only echo the slice the coordinator
    // pushed. Live shards that fail here trip their breaker and fall back
    // to the cache in the same round, so collect cannot fail.
    std::vector<proto::ShardGroup> all;
    bool any_stale = false;
    for (std::size_t s = 0; s < plan_.shard_count; ++s) {
      bool stale = needs_resync_[s] != 0;
      if (!stale && !link_breakers_[s].allow(round)) stale = true;
      if (!stale) {
        auto live = collect_live(s, requests[s], round);
        if (live.ok()) {
          link_breakers_[s].on_success(round);
          for (proto::ShardGroup& g : live.value()) all.push_back(std::move(g));
          continue;
        }
        link_breakers_[s].on_failure(round);
        needs_resync_[s] = 1;
      }
      counters_.stale_collects.add();
      any_stale = true;
      resilience_obs().record(obs::EventKind::kStaleBid,
                              static_cast<std::uint32_t>(s),
                              static_cast<double>(last_slices_[s].size()));
      for (const proto::ShardGroup& g : last_slices_[s]) all.push_back(g);
    }
    if (any_stale) ++stale_rounds_;
    return merge_demand_groups(std::move(all));
  }

  auto responses = data_broadcast(requests);
  if (!responses.ok()) return R{responses.error()};

  // Shards the routing table says hold live sessions MUST answer in session
  // mode with exactly as many clients as the table routed to them. A worker
  // that lost its ledger (respawned after a failed recovery) reports kNone;
  // one restored from a stale checkpoint reports kSessions with the wrong
  // population. Merging either slice would silently settle without those
  // sessions, so the round fails closed instead. Every session contributes
  // exactly 1.0 to its group's client_count, so the sums are exact doubles.
  std::vector<proto::ShardGroup> all;
  for (std::size_t s = 0; s < responses.value().size(); ++s) {
    const double expected_clients =
        mode_ == ShardDemandMode::kSessions ? shard_clients_[s] : 0.0;
    const ShardFrame& frame = responses.value()[s];
    if (frame.type != ShardFrameType::kBidCandidates || frame.round != round) {
      return R::failure(Errc::kCorruptFrame,
                        "collect: unexpected response from shard " +
                            std::to_string(s));
    }
    auto candidates = proto::decode_candidates(frame.payload);
    if (!candidates.ok()) return R{candidates.error()};
    if (expected_clients > 0.0 &&
        candidates.value().mode != ShardDemandMode::kSessions) {
      return R::failure(Errc::kUnavailable,
                        "collect: shard " + std::to_string(s) +
                            " lost its session ledger (reported mode " +
                            std::to_string(static_cast<int>(candidates.value().mode)) +
                            ")");
    }
    if (mode_ == ShardDemandMode::kSessions &&
        candidates.value().mode == ShardDemandMode::kSessions) {
      double held = 0.0;
      for (const proto::ShardGroup& g : candidates.value().groups) {
        held += g.group.client_count;
      }
      if (held != expected_clients) {
        return R::failure(
            Errc::kUnavailable,
            "collect: shard " + std::to_string(s) + " holds " +
                std::to_string(held) + " session clients but routing expects " +
                std::to_string(expected_clients));
      }
    }
    for (proto::ShardGroup& g : candidates.value().groups) {
      all.push_back(std::move(g));
    }
  }

  std::vector<broker::ClientGroup> merged;
  merged.reserve(all.size());
  if (mode_ == ShardDemandMode::kSessions) {
    // Derived groups: cities are disjoint across shards, so ordering the
    // concatenation by (city, bitrate) with dense ids reproduces exactly
    // what one global SessionLedger would emit.
    std::stable_sort(all.begin(), all.end(),
                     [](const proto::ShardGroup& a, const proto::ShardGroup& b) {
                       if (a.group.city.value() != b.group.city.value()) {
                         return a.group.city.value() < b.group.city.value();
                       }
                       return a.group.bitrate_mbps < b.group.bitrate_mbps;
                     });
    for (std::size_t i = 0; i < all.size(); ++i) {
      broker::ClientGroup group = all[i].group;
      group.id = broker::ShareId{static_cast<std::uint32_t>(i)};
      merged.push_back(group);
    }
  } else {
    return merge_demand_groups(std::move(all));
  }
  counters_.merged_groups.set(static_cast<double>(merged.size()));
  return merged;
}

core::Result<std::vector<broker::ClientGroup>> ShardedExchange::merge_demand_groups(
    std::vector<proto::ShardGroup> all) const {
  using R = core::Result<std::vector<broker::ClientGroup>>;
  // Explicit slices: global ids restore the original vector losslessly —
  // the merge must be a bijection onto 0..n-1 or a worker lied.
  std::sort(all.begin(), all.end(),
            [](const proto::ShardGroup& a, const proto::ShardGroup& b) {
              return a.global_id < b.global_id;
            });
  std::vector<broker::ClientGroup> merged;
  merged.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].global_id != i || all[i].group.id.value() != i) {
      return R::failure(Errc::kCorruptFrame,
                        "collect: merged demand ids are not dense — shard "
                        "slices overlap or lost groups");
    }
    merged.push_back(all[i].group);
  }
  counters_.merged_groups.set(static_cast<double>(merged.size()));
  return merged;
}

core::Result<std::vector<proto::ShardGroup>> ShardedExchange::collect_live(
    std::size_t shard, const proto::ShardFrame& request, std::uint64_t round) const {
  using R = core::Result<std::vector<proto::ShardGroup>>;
  auto response = data_call(shard, request);
  if (!response.ok()) return R{response.error()};
  const ShardFrame& frame = response.value();
  if (frame.type != ShardFrameType::kBidCandidates || frame.round != round) {
    return R::failure(Errc::kCorruptFrame,
                      "collect: unexpected response from shard " +
                          std::to_string(shard));
  }
  auto candidates = proto::decode_candidates(frame.payload);
  if (!candidates.ok()) return R{candidates.error()};
  if (candidates.value().mode != ShardDemandMode::kDemand) {
    return R::failure(Errc::kUnavailable,
                      "collect: shard " + std::to_string(shard) +
                          " answered in the wrong demand mode");
  }
  return std::move(candidates.value().groups);
}

core::Status ShardedExchange::broadcast_allocation(std::uint64_t round) {
  const auto placements = settlement_->placements();
  const auto demand = settlement_->active_demand();
  std::vector<std::vector<proto::ShardPlacement>> slices(plan_.shard_count);
  for (const sim::Placement& p : placements) {
    const broker::ClientGroup& group = demand[p.group];
    proto::ShardPlacement out;
    out.global_group = static_cast<std::uint32_t>(p.group);
    out.cluster = p.cluster.value();
    out.clients = p.clients;
    out.price = p.price;
    out.score = p.score;
    out.bitrate_mbps = group.bitrate_mbps;
    slices[plan_.shard_of(group.city)].push_back(out);
  }
  std::vector<ShardFrame> requests(plan_.shard_count);
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    requests[s].type = ShardFrameType::kAllocation;
    requests[s].shard = static_cast<std::uint32_t>(s);
    requests[s].round = round;
    requests[s].payload = proto::encode_allocation(slices[s]);
  }

  if (breaker_active()) {
    // A quarantined shard misses its allocation slice (it re-syncs later);
    // a live shard that fails here trips its breaker. Either way the round
    // closes — allocation fan-out is worker-side bookkeeping, settlement
    // bytes are already committed.
    for (std::size_t s = 0; s < plan_.shard_count; ++s) {
      if (needs_resync_[s] != 0 || link_breakers_[s].open()) continue;
      auto response = data_call(s, requests[s]);
      bool acked = false;
      if (response.ok() && response.value().type == ShardFrameType::kAck) {
        auto value = proto::decode_shard_ack(response.value().payload);
        acked = value.ok() && value.value() == round;
      }
      if (acked) {
        link_breakers_[s].on_success(round);
      } else {
        link_breakers_[s].on_failure(round);
        needs_resync_[s] = 1;
      }
    }
    return core::ok_status();
  }

  auto responses = data_broadcast(requests);
  if (!responses.ok()) return Status{responses.error()};
  for (std::size_t s = 0; s < responses.value().size(); ++s) {
    const ShardFrame& frame = responses.value()[s];
    if (frame.type != ShardFrameType::kAck) {
      return Status::failure(Errc::kCorruptFrame,
                             "allocation: unexpected response type from shard " +
                                 std::to_string(s));
    }
    auto acked = proto::decode_shard_ack(frame.payload);
    if (!acked.ok()) return Status{acked.error()};
    if (acked.value() != round) {
      return Status::failure(Errc::kCorruptFrame,
                             "allocation: shard " + std::to_string(s) +
                                 " acked round " + std::to_string(acked.value()) +
                                 " instead of " + std::to_string(round));
    }
  }
  return core::ok_status();
}

core::Result<RoundReport> ShardedExchange::try_run_round() {
  using R = core::Result<RoundReport>;
  if (delta_pending_) {
    return R::failure(Errc::kNotReady,
                      "run_round: an uncommitted session delta is outstanding; "
                      "retry push_session_delta with the identical batch");
  }
  if (auto status = ensure_fed(); !status.ok()) return R{status.error()};
  const std::uint64_t round = settlement_->rounds_completed();

  // Half-open probes first: a quarantined shard that accepts a fresh slice
  // push rejoins the live collect below in the same round.
  if (breaker_active()) resync_quarantined(round);

  auto merged = collect_and_merge(round);
  if (!merged.ok()) return R{merged.error()};
  if (demand_dirty_) {
    settlement_->set_active_load(merged.value(), background_loads_);
    demand_dirty_ = false;
  }

  RoundReport report = settlement_->run_round();

  if (auto status = broadcast_allocation(round); !status.ok()) {
    return R{status.error()};
  }
  counters_.rounds.add();

  if (config_.checkpoint_every_rounds > 0 && coordinator_store_.has_value() &&
      (round + 1) % config_.checkpoint_every_rounds == 0) {
    if (auto status = checkpoint_now(); !status.ok()) return R{status.error()};
  }
  return report;
}

RoundReport ShardedExchange::run_round() {
  auto report = try_run_round();
  if (!report.ok()) {
    throw std::runtime_error{"ShardedExchange::run_round: " +
                             report.error().message};
  }
  return std::move(report).value();
}

std::vector<RoundReport> ShardedExchange::run(std::size_t rounds) {
  std::vector<RoundReport> reports;
  reports.reserve(rounds);
  for (std::size_t i = 0; i < rounds; ++i) reports.push_back(run_round());
  return reports;
}

void ShardedExchange::set_demand_budget(double budget_mbps) {
  settlement_->set_demand_budget(budget_mbps);
}

double ShardedExchange::demand_budget() const {
  return settlement_->demand_budget();
}

std::size_t ShardedExchange::rounds_completed() const {
  return settlement_->rounds_completed();
}

core::Result<proto::DeliveryOutcome> ShardedExchange::deliver(
    std::uint32_t session_id, geo::CityId city, double bitrate_mbps) {
  return settlement_->deliver(session_id, city, bitrate_mbps);
}

const obs::MetricsRegistry& ShardedExchange::metrics() const {
  return settlement_->metrics();
}

void ShardedExchange::set_failed(cdn::CdnId cdn, bool failed) {
  settlement_->set_failed(cdn, failed);
}

void ShardedExchange::set_fraudulent(cdn::CdnId cdn, bool fraudulent) {
  settlement_->set_fraudulent(cdn, fraudulent);
}

void ShardedExchange::kill_worker(std::size_t shard) {
  transport_->kill(shard);
}

bool ShardedExchange::worker_alive(std::size_t shard) const noexcept {
  return transport_->alive(shard);
}

proto::FaultCounters ShardedExchange::link_fault_counters() const noexcept {
  return link_injector_ != nullptr ? link_injector_->counters()
                                   : proto::FaultCounters{};
}

core::Result<std::vector<obs::Event>> ShardedExchange::merged_worker_journal()
    const {
  using R = core::Result<std::vector<obs::Event>>;
  std::vector<obs::JournalSlice> slices;
  slices.reserve(plan_.shard_count);
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    ShardFrame frame;
    frame.type = ShardFrameType::kJournalRequest;
    frame.shard = static_cast<std::uint32_t>(s);
    auto response = direct_call(s, frame, /*recover=*/true);
    if (!response.ok()) return R{response.error()};
    if (response.value().type != ShardFrameType::kJournalSlice) {
      return R::failure(Errc::kCorruptFrame,
                        "journal request: unexpected response type");
    }
    auto slice = proto::decode_journal_slice(response.value().payload);
    if (!slice.ok()) return R{slice.error()};
    slices.push_back(obs::JournalSlice{static_cast<std::uint32_t>(s),
                                       slice.value().total_recorded,
                                       std::move(slice.value().events)});
  }
  return obs::merge_journal_slices(slices);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> ShardedExchange::encode_coordinator_core() const {
  proto::ByteWriter w;
  w.write_u64(static_cast<std::uint64_t>(settlement_->rounds_completed()));
  w.write_u32(static_cast<std::uint32_t>(plan_.shard_count));
  w.write_u64(plan_.hash());
  w.write_u8(static_cast<std::uint8_t>(mode_));
  w.write_u8(fed_ ? 1 : 0);
  w.write_u8(demand_dirty_ ? 1 : 0);
  w.write_u32(static_cast<std::uint32_t>(background_loads_.size()));
  for (const double load : background_loads_) w.write_f64(load);
  // unordered_map: serialize in sorted order so the bytes are deterministic.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> routing{
      session_shard_.begin(), session_shard_.end()};
  std::sort(routing.begin(), routing.end());
  w.write_u32(static_cast<std::uint32_t>(routing.size()));
  for (const auto& [id, shard] : routing) {
    w.write_u32(id);
    w.write_u32(shard);
  }
  return w.take();
}

std::vector<std::uint8_t> ShardedExchange::encode_slices() const {
  proto::ByteWriter w;
  w.write_u32(static_cast<std::uint32_t>(last_slices_.size()));
  for (const auto& slice : last_slices_) {
    const auto bytes = proto::encode_shard_groups(slice);
    w.write_u32(static_cast<std::uint32_t>(bytes.size()));
    w.write_bytes(bytes);
  }
  return w.take();
}

struct ShardedExchange::CoordinatorCore {
  std::uint64_t rounds = 0;
  ShardDemandMode mode = ShardDemandMode::kNone;
  bool fed = false;
  bool dirty = false;
  std::vector<double> background_loads;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> session_shard;
};

core::Status ShardedExchange::restore_from_snapshot(const state::SnapshotView& view,
                                                    bool embedded_workers) {
  const state::Section* core_section = view.find(kCoordCoreSection);
  const state::Section* settlement_section = view.find(kCoordSettlementSection);
  const state::Section* slices_section = view.find(kCoordSlicesSection);
  const state::Section* workers_section = view.find(kCoordWorkersSection);
  if (core_section == nullptr || settlement_section == nullptr ||
      slices_section == nullptr ||
      (embedded_workers && workers_section == nullptr)) {
    return Status::failure(Errc::kCorruptSnapshot,
                           "coordinator snapshot: missing section");
  }

  // Decode everything into locals before mutating anything.
  CoordinatorCore core;
  try {
    proto::ByteReader r{core_section->bytes};
    core.rounds = r.read_u64();
    const std::uint32_t shard_count = r.read_u32();
    const std::uint64_t plan_hash = r.read_u64();
    if (shard_count != plan_.shard_count || plan_hash != plan_.hash()) {
      return invalid("coordinator snapshot: taken under a different shard plan");
    }
    const std::uint8_t mode_raw = r.read_u8();
    if (mode_raw > static_cast<std::uint8_t>(ShardDemandMode::kSessions)) {
      return Status::failure(Errc::kCorruptSnapshot,
                             "coordinator snapshot: bad mode");
    }
    core.mode = static_cast<ShardDemandMode>(mode_raw);
    core.fed = r.read_u8() != 0;
    core.dirty = r.read_u8() != 0;
    const std::uint32_t load_count = r.read_u32();
    if (load_count != scenario_.catalog().clusters().size()) {
      return invalid("coordinator snapshot: cluster arity mismatch");
    }
    core.background_loads.reserve(load_count);
    for (std::uint32_t i = 0; i < load_count; ++i) {
      core.background_loads.push_back(r.read_f64());
    }
    const std::uint32_t routing_count = r.read_u32();
    if (routing_count > r.remaining() / 8) {
      return Status::failure(Errc::kCorruptSnapshot,
                             "coordinator snapshot: routing count lie");
    }
    core.session_shard.reserve(routing_count);
    for (std::uint32_t i = 0; i < routing_count; ++i) {
      const std::uint32_t id = r.read_u32();
      const std::uint32_t shard = r.read_u32();
      if (shard >= plan_.shard_count) {
        return Status::failure(Errc::kCorruptSnapshot,
                               "coordinator snapshot: routing to unknown shard");
      }
      core.session_shard.emplace_back(id, shard);
    }
    if (!r.exhausted()) {
      return Status::failure(Errc::kCorruptSnapshot,
                             "coordinator snapshot: trailing core bytes");
    }
  } catch (const proto::WireError& e) {
    return Status::failure(Errc::kCorruptSnapshot,
                           std::string{"coordinator snapshot: "} + e.what());
  }

  std::vector<std::vector<proto::ShardGroup>> slices;
  try {
    proto::ByteReader r{slices_section->bytes};
    const std::uint32_t count = r.read_u32();
    if (count != plan_.shard_count) {
      return invalid("coordinator snapshot: slice arity mismatch");
    }
    slices.resize(count);
    for (std::uint32_t s = 0; s < count; ++s) {
      const std::uint32_t len = r.read_u32();
      auto decoded = proto::decode_shard_groups(r.read_bytes(len));
      if (!decoded.ok()) return Status{decoded.error()};
      slices[s] = std::move(decoded).value();
    }
    if (!r.exhausted()) {
      return Status::failure(Errc::kCorruptSnapshot,
                             "coordinator snapshot: trailing slice bytes");
    }
  } catch (const proto::WireError& e) {
    return Status::failure(Errc::kCorruptSnapshot,
                           std::string{"coordinator snapshot: "} + e.what());
  }

  std::vector<std::vector<std::uint8_t>> worker_states;
  if (embedded_workers) {
    try {
      proto::ByteReader r{workers_section->bytes};
      const std::uint32_t count = r.read_u32();
      if (count != plan_.shard_count) {
        return invalid("coordinator snapshot: worker state arity mismatch");
      }
      worker_states.reserve(count);
      for (std::uint32_t s = 0; s < count; ++s) {
        const std::uint32_t len = r.read_u32();
        const auto bytes = r.read_bytes(len);
        worker_states.emplace_back(bytes.begin(), bytes.end());
      }
      if (!r.exhausted()) {
        return Status::failure(Errc::kCorruptSnapshot,
                               "coordinator snapshot: trailing worker bytes");
      }
    } catch (const proto::WireError& e) {
      return Status::failure(Errc::kCorruptSnapshot,
                             std::string{"coordinator snapshot: "} + e.what());
    }
  }

  // The settlement exchange restores atomically (its own contract); commit
  // the coordinator state only after it succeeded.
  if (auto status = settlement_->restore_state(settlement_section->bytes);
      !status.ok()) {
    return status;
  }
  mode_ = core.mode;
  fed_ = core.fed;
  demand_dirty_ = core.dirty;
  // The snapshot captured a consistent routing/worker pair, so any delta
  // that was outstanding at save time is moot after restore.
  delta_pending_ = false;
  pending_delta_hash_ = 0;
  background_loads_ = std::move(core.background_loads);
  session_shard_.clear();
  session_shard_.reserve(core.session_shard.size());
  for (const auto& [id, shard] : core.session_shard) session_shard_[id] = shard;
  // Recount from the final table: a crafted snapshot may list an id twice,
  // and the last entry wins.
  shard_clients_.assign(plan_.shard_count, 0.0);
  for (const auto& [id, shard] : session_shard_) shard_clients_[shard] += 1.0;
  last_slices_ = std::move(slices);

  if (embedded_workers) {
    for (std::size_t s = 0; s < worker_states.size(); ++s) {
      ShardFrame frame;
      frame.type = ShardFrameType::kRestoreState;
      frame.shard = static_cast<std::uint32_t>(s);
      frame.payload = std::move(worker_states[s]);
      auto response = direct_call(s, frame, /*recover=*/true);
      if (!response.ok()) return Status{response.error()};
    }
  }
  return core::ok_status();
}

core::Result<std::vector<std::uint8_t>> ShardedExchange::try_save_state() const {
  using R = core::Result<std::vector<std::uint8_t>>;
  if (delta_pending_) {
    // Routing and worker ledgers disagree mid-push; a snapshot taken now
    // would restore into that inconsistency.
    return R::failure(Errc::kNotReady,
                      "save_state: an uncommitted session delta is outstanding");
  }
  state::SnapshotWriter writer;
  writer.add_section(kCoordCoreSection, encode_coordinator_core());
  writer.add_section(kCoordSettlementSection, settlement_->save_state());
  writer.add_section(kCoordSlicesSection, encode_slices());
  {
    proto::ByteWriter w;
    w.write_u32(static_cast<std::uint32_t>(plan_.shard_count));
    for (std::size_t s = 0; s < plan_.shard_count; ++s) {
      ShardFrame frame;
      frame.type = ShardFrameType::kStateRequest;
      frame.shard = static_cast<std::uint32_t>(s);
      auto response = direct_call(s, frame, /*recover=*/true);
      if (!response.ok()) {
        return R::failure(response.error().code,
                          "save_state: shard " + std::to_string(s) +
                              " state unavailable: " + response.error().message);
      }
      if (response.value().type != ShardFrameType::kStateResponse) {
        return R::failure(Errc::kCorruptFrame,
                          "save_state: shard " + std::to_string(s) +
                              " returned an unexpected frame type");
      }
      w.write_u32(static_cast<std::uint32_t>(response.value().payload.size()));
      w.write_bytes(response.value().payload);
    }
    writer.add_section(kCoordWorkersSection, w.take());
  }
  return writer.finish();
}

std::vector<std::uint8_t> ShardedExchange::save_state() const {
  auto state = try_save_state();
  if (!state.ok()) {
    throw std::runtime_error{"ShardedExchange::save_state: " +
                             state.error().message};
  }
  return std::move(state).value();
}

core::Status ShardedExchange::restore_state(std::span<const std::uint8_t> bytes) {
  auto parsed = state::SnapshotView::parse(bytes);
  if (!parsed.ok()) return Status{parsed.error()};
  return restore_from_snapshot(parsed.value(), /*embedded_workers=*/true);
}

core::Status ShardedExchange::checkpoint_now() {
  if (!coordinator_store_.has_value()) {
    return invalid("ShardedExchange::checkpoint_now: no checkpoint_dir configured");
  }
  if (delta_pending_) {
    return Status::failure(
        Errc::kNotReady,
        "checkpoint_now: an uncommitted session delta is outstanding");
  }
  const std::uint64_t epoch = settlement_->rounds_completed();
  state::SnapshotWriter writer;
  writer.add_section(kCoordCoreSection, encode_coordinator_core());
  writer.add_section(kCoordSettlementSection, settlement_->save_state());
  writer.add_section(kCoordSlicesSection, encode_slices());
  if (auto status = coordinator_store_->write(epoch, writer.finish());
      !status.ok()) {
    return status;
  }
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    ShardFrame frame;
    frame.type = ShardFrameType::kCheckpoint;
    frame.shard = static_cast<std::uint32_t>(s);
    frame.round = epoch;
    auto response = direct_call(s, frame, /*recover=*/true);
    if (!response.ok()) return Status{response.error()};
    if (response.value().type != ShardFrameType::kAck) {
      return Status::failure(Errc::kCorruptFrame,
                             "checkpoint: unexpected response type");
    }
  }
  counters_.checkpoints.add();
  return core::ok_status();
}

core::Status ShardedExchange::resume_from_stores() {
  if (!coordinator_store_.has_value()) {
    return invalid(
        "ShardedExchange::resume_from_stores: no checkpoint_dir configured");
  }
  auto loaded =
      coordinator_store_->load_latest([](std::span<const std::uint8_t> bytes) {
        auto parsed = state::SnapshotView::parse(bytes);
        return parsed.ok() ? core::ok_status() : Status{parsed.error()};
      });
  if (!loaded.ok()) return Status{loaded.error()};
  auto parsed = state::SnapshotView::parse(loaded.value().bytes);
  if (!parsed.ok()) return Status{parsed.error()};
  if (auto status =
          restore_from_snapshot(parsed.value(), /*embedded_workers=*/false);
      !status.ok()) {
    return status;
  }
  // Workers reload from their own per-shard stores.
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    ShardFrame frame;
    frame.type = ShardFrameType::kResumeFromStore;
    frame.shard = static_cast<std::uint32_t>(s);
    auto response = direct_call(s, frame, /*recover=*/true);
    if (!response.ok()) return Status{response.error()};
    auto rounds = proto::decode_shard_ack(response.value().payload);
    if (!rounds.ok()) return Status{rounds.error()};
    if (mode_ == ShardDemandMode::kSessions &&
        rounds.value() != settlement_->rounds_completed()) {
      return Status::failure(Errc::kNotReady,
                             "resume: shard " + std::to_string(s) +
                                 " checkpoint lags the coordinator");
    }
  }
  if (mode_ == ShardDemandMode::kDemand) {
    // The coordinator's cached slices are authoritative over whatever age of
    // checkpoint each worker found.
    if (auto status = push_demand_slices(); !status.ok()) return status;
  }
  return core::ok_status();
}

}  // namespace vdx::market
