#include "proto/engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

namespace vdx::proto {

namespace {

/// Encode, count, decode — the in-memory stand-in for a network hop.
template <typename T>
T transmit(const T& message, std::size_t& bytes) {
  const std::vector<std::uint8_t> frame = encode(Message{message});
  bytes += frame.size();
  const Message decoded = decode(frame);
  return std::get<T>(decoded);
}

/// The fault-free hop: every message goes through transmit(), and each
/// protocol step costs one logical tick, even a step that sends nothing.
struct PerfectHop {
  RoundStats& stats;
  std::uint64_t& clock;

  template <typename T>
  std::optional<T> send(const T& message, std::size_t /*link*/) {
    return transmit(message, stats.bytes_on_wire);
  }
  void end_step() { ++clock; }
};

/// The chaos hop over FaultInjector links. A step lasts until its latest
/// arrival (the deadline on a timeout, 0 when nothing was sent); its ticks
/// land in ChaosStats::ticks_elapsed and the `proto.step_ticks` histogram.
struct ChaosHop {
  FaultInjector& injector;
  const DeadlineConfig& config;
  const obs::Observer& obs;
  RoundStats& stats;
  std::uint64_t& clock;
  obs::Histogram step_hist;
  std::size_t step_ticks = 0;  // completion time of the current step

  /// One message over link `link`: send, and on presumed loss retry with
  /// exponential backoff until delivery, deadline expiry, or budget
  /// exhaustion. Mutated frames are rejected by try_decode (checksum) and
  /// treated as lost. Returns the decoded message if a copy arrived within
  /// the step deadline. Retries, timeouts, and decode rejects are narrated
  /// into the journal (subject = link) as they happen.
  template <typename T>
  std::optional<T> send(const T& message, std::size_t link) {
    const std::vector<std::uint8_t> frame = encode(Message{message});
    ++stats.chaos.messages;

    std::size_t send_tick = 0;
    std::size_t backoff = std::max<std::size_t>(1, config.retry_backoff_ticks);
    for (std::size_t attempt = 0; attempt <= config.max_retries; ++attempt) {
      if (attempt > 0) {
        ++stats.chaos.retries;
        obs.record(obs::EventKind::kRetry, static_cast<std::uint32_t>(link),
                   static_cast<double>(attempt));
      }
      const FaultCounters before = injector.counters();
      const std::vector<FaultedFrame> copies = injector.apply(link, frame);
      const FaultCounters& after = injector.counters();
      stats.chaos.frames_dropped += after.dropped - before.dropped;
      stats.chaos.frames_duplicated += after.duplicated - before.duplicated;

      for (const FaultedFrame& copy : copies) {
        stats.bytes_on_wire += copy.bytes.size();
        const core::Result<Message> decoded = try_decode(copy.bytes);
        if (!decoded.ok() || !std::holds_alternative<T>(decoded.value())) {
          ++stats.chaos.decode_rejects;
          obs.record(obs::EventKind::kDecodeReject, static_cast<std::uint32_t>(link));
          continue;
        }
        const std::size_t arrival = send_tick + 1 + copy.delay_ticks;
        if (arrival > config.step_deadline_ticks) continue;  // late copies discarded
        step_ticks = std::max(step_ticks, arrival);
        return std::get<T>(decoded.value());
      }
      send_tick += backoff;
      backoff *= 2;
      if (send_tick > config.step_deadline_ticks) break;  // no budget left to resend
    }
    ++stats.chaos.timeouts;
    obs.record(obs::EventKind::kTimeout, static_cast<std::uint32_t>(link),
               static_cast<double>(config.step_deadline_ticks));
    step_ticks = std::max(step_ticks, config.step_deadline_ticks);
    return std::nullopt;
  }

  void end_step() {
    clock += step_ticks;
    stats.chaos.ticks_elapsed += step_ticks;
    step_hist.observe(static_cast<double>(step_ticks));
    step_ticks = 0;
  }
};

/// Folds one round's wire accounting into the `proto.*` metrics, once per
/// round so hot transport loops never touch the registry.
void record_round_metrics(const obs::Observer& obs, const RoundStats& stats) {
  if (obs.metrics == nullptr) return;
  obs::MetricsRegistry& m = *obs.metrics;
  m.counter("proto.shares_sent").add(static_cast<double>(stats.shares_sent));
  m.counter("proto.bids_received").add(static_cast<double>(stats.bids_received));
  m.counter("proto.accepts_sent").add(static_cast<double>(stats.accepts_sent));
  m.counter("proto.bytes_on_wire").add(static_cast<double>(stats.bytes_on_wire));
  m.counter("proto.messages").add(static_cast<double>(stats.chaos.messages));
  m.counter("proto.retries").add(static_cast<double>(stats.chaos.retries));
  m.counter("proto.timeouts").add(static_cast<double>(stats.chaos.timeouts));
  m.counter("proto.decode_rejects")
      .add(static_cast<double>(stats.chaos.decode_rejects));
  m.counter("proto.frames_dropped").add(static_cast<double>(stats.chaos.frames_dropped));
  m.counter("proto.frames_duplicated")
      .add(static_cast<double>(stats.chaos.frames_duplicated));
}

/// Share -> Matching/Announce -> Optimize -> Accept over either hop. A
/// message the hop loses is simply absent from what its receiver sees.
template <typename Hop>
void run_round(BrokerParticipant& broker, std::span<CdnParticipant* const> cdns,
               bool share_client_data, const obs::Observer& obs, RoundStats& stats,
               Hop& hop) {
  for (CdnParticipant* cdn : cdns) {
    if (cdn == nullptr) throw std::invalid_argument{"null CdnParticipant"};
  }
  const auto round_span = obs.span("decision.round");
  // Step 1 (Estimate) is participant-local; mark it so every trace names all
  // 7 protocol steps.
  obs.instant("decision.estimate");

  // Steps 2-3: Gather + Share. Each CDN receives whichever shares survive
  // its link within the step deadline.
  std::vector<ShareMessage> shares;
  {
    const auto span = obs.span("decision.gather");
    shares = broker.gather();
  }
  {
    const auto span = obs.span("decision.share");
    for (std::size_t i = 0; i < cdns.size(); ++i) {
      std::vector<ShareMessage> delivered;
      if (share_client_data) {
        delivered.reserve(shares.size());
        for (const ShareMessage& share : shares) {
          ++stats.shares_sent;
          if (auto got = hop.send(share, i)) delivered.push_back(*got);
        }
      }
      cdns[i]->handle_share(delivered);
    }
    hop.end_step();
  }

  // Steps 4-5: Matching (bid computation) + Announce (bid transmission).
  // Lost bids are simply absent from the auction; the broker may backfill
  // them with stale cached bids.
  std::vector<std::pair<std::size_t, BidMessage>> raw_bids;
  {
    const auto span = obs.span("decision.matching");
    for (std::size_t i = 0; i < cdns.size(); ++i) {
      for (BidMessage& bid : cdns[i]->announce()) raw_bids.emplace_back(i, bid);
    }
  }
  std::vector<BidMessage> all_bids;
  {
    const auto span = obs.span("decision.announce");
    all_bids.reserve(raw_bids.size());
    for (const auto& [link, bid] : raw_bids) {
      if (auto got = hop.send(bid, link)) {
        all_bids.push_back(*got);
        ++stats.bids_received;
      }
    }
    hop.end_step();
  }

  // Step 6: Optimize (broker-local, no transport).
  std::vector<AcceptMessage> accepts;
  {
    const auto span = obs.span("decision.optimize");
    accepts = broker.optimize(all_bids);
  }

  // Step 7: Accept — CDNs hear about whichever outcomes reach them; a CDN
  // that misses an Accept just doesn't update its strategy for that bid.
  {
    const auto span = obs.span("decision.accept");
    for (std::size_t i = 0; i < cdns.size(); ++i) {
      std::vector<AcceptMessage> delivered;
      delivered.reserve(accepts.size());
      for (const AcceptMessage& accept : accepts) {
        ++stats.accepts_sent;
        if (auto got = hop.send(accept, i)) delivered.push_back(*got);
      }
      cdns[i]->handle_accept(delivered);
    }
    hop.end_step();
  }
}

}  // namespace

RoundStats run_decision_round(BrokerParticipant& broker,
                              std::span<CdnParticipant* const> cdns,
                              const DecisionEngineConfig& config, std::uint64_t* clock) {
  std::uint64_t local_clock = 0;
  std::uint64_t& now = clock != nullptr ? *clock : local_clock;
  obs::Observer obs = config.obs;
  obs.clock = &now;
  RoundStats stats;
  if (config.faults != nullptr && config.faults->profile().any()) {
    ChaosHop hop{*config.faults, config.deadlines, obs, stats, now,
                 obs.metrics != nullptr ? obs.metrics->histogram("proto.step_ticks")
                                        : obs::Histogram{}};
    run_round(broker, cdns, config.share_client_data, obs, stats, hop);
  } else {
    PerfectHop hop{stats, now};
    run_round(broker, cdns, config.share_client_data, obs, stats, hop);
  }
  record_round_metrics(obs, stats);
  return stats;
}

DeliveryOutcome run_delivery(const QueryMessage& query, DeliveryDirectory& directory,
                             ClusterFrontend& frontend, const obs::Observer& observer,
                             std::uint64_t* clock) {
  std::uint64_t local_clock = 0;
  std::uint64_t& now = clock != nullptr ? *clock : local_clock;
  obs::Observer obs = observer;
  obs.clock = &now;
  const auto round_span = obs.span("delivery.round");

  DeliveryOutcome outcome;
  QueryMessage sent_query;
  {
    const auto span = obs.span("delivery.query");
    sent_query = transmit(query, outcome.bytes_on_wire);
    ++now;
  }
  {
    const auto span = obs.span("delivery.resolve");
    outcome.result = transmit(directory.resolve(sent_query), outcome.bytes_on_wire);
    ++now;
  }

  const auto attempt = [&](const ResultMessage& result) {
    const auto span = obs.span("delivery.request");
    RequestMessage request;
    request.session_id = result.session_id;
    request.cluster_id = result.cluster_id;
    request.content_id = 0;
    const RequestMessage sent_request = transmit(request, outcome.bytes_on_wire);
    DeliveryMessage delivery = transmit(frontend.serve(sent_request),
                                        outcome.bytes_on_wire);
    ++now;
    return delivery;
  };

  outcome.delivery = attempt(outcome.result);
  if (outcome.delivery.delivered_mbps <= 0.0) {
    // Mid-stream failure: the chosen cluster is dark. Ask the directory for
    // an alternative home and replay the request there (§6.3 failover).
    const auto span = obs.span("delivery.failover");
    const std::uint32_t dark = outcome.result.cluster_id;
    const ResultMessage alternative = transmit(
        directory.resolve_excluding(sent_query, dark), outcome.bytes_on_wire);
    if (alternative.cluster_id != dark && alternative.cluster_id != UINT32_MAX) {
      outcome.result = alternative;
      outcome.delivery = attempt(alternative);
      outcome.rehomed = true;
      outcome.failed_cluster = dark;
      obs.record(obs::EventKind::kFailover, dark, outcome.delivery.delivered_mbps);
    }
  }

  if (obs.metrics != nullptr) {
    obs::MetricsRegistry& m = *obs.metrics;
    m.counter("delivery.sessions").add();
    m.counter("delivery.bytes_on_wire").add(static_cast<double>(outcome.bytes_on_wire));
    if (outcome.rehomed) m.counter("delivery.failovers").add();
  }
  return outcome;
}

}  // namespace vdx::proto
