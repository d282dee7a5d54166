// Identity proof for the fault-free hop. A hop that delivers a copy of each
// message and counts encoded_size() bytes is exact only if (a)
// encoded_size(m) == encode(m).size() and (b) decode(encode(m)) is bit-equal
// to m, for every value a field can hold, NaN payloads and signed zeros
// included. These tests check both per message, on a special-value sweep
// plus a seeded corpus, and per engine by recording what every participant
// sends and receives: each receiver must see bit-equal messages, and the
// engine must count exactly the bytes that the reference hop below (encode,
// count, decode) counts over every hop of the round.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <variant>
#include <vector>

#include "core/rng.hpp"
#include "proto/engine.hpp"
#include "proto/messages.hpp"

namespace vdx::proto {
namespace {

/// The reference hop: encode, count, decode.
template <typename T>
T transmit(const T& message, std::size_t& bytes) {
  const std::vector<std::uint8_t> frame = encode(Message{message});
  bytes += frame.size();
  const Message decoded = decode(frame);
  return std::get<T>(decoded);
}

// ---- Bit-exact comparison (NaN != NaN under ==, and -0.0 == +0.0) ----------

std::uint64_t bits(std::uint32_t value) { return value; }
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

template <typename... F>
std::vector<std::uint64_t> pack(F... values) {
  return {bits(values)...};
}

std::vector<std::uint64_t> fields(const ShareMessage& m) {
  return pack(m.share_id, m.location, m.isp, m.content_id, m.data_size_mbps,
              m.client_count);
}
std::vector<std::uint64_t> fields(const BidMessage& m) {
  return pack(m.cluster_id, m.share_id, m.performance_estimate, m.capacity_mbps, m.price,
              m.cdn_id);
}
std::vector<std::uint64_t> fields(const AcceptMessage& m) {
  return pack(m.cluster_id, m.share_id, m.performance_estimate, m.capacity_mbps, m.price,
              m.cdn_id, m.awarded_mbps);
}
std::vector<std::uint64_t> fields(const QueryMessage& m) {
  return pack(m.session_id, m.location, m.bitrate_mbps);
}
std::vector<std::uint64_t> fields(const ResultMessage& m) {
  return pack(m.session_id, m.cdn_id, m.cluster_id);
}
std::vector<std::uint64_t> fields(const RequestMessage& m) {
  return pack(m.session_id, m.cluster_id, m.content_id);
}
std::vector<std::uint64_t> fields(const DeliveryMessage& m) {
  return pack(m.session_id, m.cluster_id, m.delivered_mbps);
}
std::vector<std::uint64_t> fields(const Message& m) {
  std::vector<std::uint64_t> out{m.index()};
  const std::vector<std::uint64_t> body =
      std::visit([](const auto& x) { return fields(x); }, m);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

template <typename T>
void expect_bit_equal(const std::vector<T>& got, const std::vector<T>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(fields(got[i]), fields(want[i])) << what << " #" << i;
  }
}

// ---- Seeded values that stress the codec -----------------------------------

double any_double(core::Rng& rng) {
  constexpr std::array<std::uint64_t, 10> kSpecialBits{
      0x7ff8000000000000ULL,  // quiet NaN
      0xfff8000000000000ULL,  // negative quiet NaN
      0x7ff0000000000001ULL,  // signalling NaN, lowest payload
      0x7ff8dead0000beefULL,  // quiet NaN with a payload
      0x8000000000000000ULL,  // -0.0
      0x0000000000000001ULL,  // smallest denormal
      0x800fffffffffffffULL,  // largest negative denormal
      0x7ff0000000000000ULL,  // +inf
      0xfff0000000000000ULL,  // -inf
      0x7fefffffffffffffULL,  // max finite
  };
  switch (rng.below(4)) {
    case 0:
      return std::bit_cast<double>(kSpecialBits[rng.below(kSpecialBits.size())]);
    case 1:
      return std::bit_cast<double>(rng());  // any bit pattern at all
    case 2:
      return 0.0;
    default:
      return rng.uniform(-1e4, 1e4);
  }
}

std::uint32_t any_u32(core::Rng& rng) {
  switch (rng.below(4)) {
    case 0:
      return UINT32_MAX;
    case 1:
      return 0;
    case 2:
      return static_cast<std::uint32_t>(rng());
    default:
      return static_cast<std::uint32_t>(rng.below(64));
  }
}

ShareMessage any_share(core::Rng& r) {
  return {any_u32(r), any_u32(r), any_u32(r), any_u32(r), any_double(r), any_u32(r)};
}
BidMessage any_bid(core::Rng& r) {
  return {any_u32(r), any_u32(r), any_double(r), any_double(r), any_double(r), any_u32(r)};
}
AcceptMessage any_accept(core::Rng& r) {
  return {any_u32(r),    any_u32(r), any_double(r), any_double(r),
          any_double(r), any_u32(r), any_double(r)};
}

Message any_message(core::Rng& r, std::size_t kind) {
  switch (kind % 7) {
    case 0:
      return any_share(r);
    case 1:
      return any_bid(r);
    case 2:
      return any_accept(r);
    case 3:
      return QueryMessage{any_u32(r), any_u32(r), any_double(r)};
    case 4:
      return ResultMessage{any_u32(r), any_u32(r), any_u32(r)};
    case 5:
      return RequestMessage{any_u32(r), any_u32(r), any_u32(r)};
    default:
      return DeliveryMessage{any_u32(r), any_u32(r), any_double(r)};
  }
}

// ---- Per message -----------------------------------------------------------

TEST(TransmitIdentity, SeededCorpusRoundTripsBitForBitAtEncodedSize) {
  // A deterministic sweep first: each special double in each double slot of
  // every type, next to all-ones ids. Then 140K seeded messages.
  std::vector<Message> corpus;
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::bit_cast<double>(0x7ff0000000000001ULL), 0.0, -0.0,
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    corpus.insert(corpus.end(),
                  {ShareMessage{UINT32_MAX, UINT32_MAX, UINT32_MAX, UINT32_MAX, v,
                                UINT32_MAX},
                   BidMessage{UINT32_MAX, 0, v, v, v, UINT32_MAX},
                   AcceptMessage{UINT32_MAX, 0, v, v, v, UINT32_MAX, v},
                   QueryMessage{UINT32_MAX, UINT32_MAX, v},
                   ResultMessage{UINT32_MAX, UINT32_MAX, UINT32_MAX},
                   RequestMessage{UINT32_MAX, UINT32_MAX, UINT32_MAX},
                   DeliveryMessage{UINT32_MAX, UINT32_MAX, v}});
  }
  core::Rng rng{0x1D3471};
  for (int i = 0; i < 140'000; ++i) corpus.push_back(any_message(rng, rng.below(7)));

  std::array<std::size_t, 7> per_type{};
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Message& m = corpus[i];
    ++per_type[m.index()];
    const std::vector<std::uint8_t> frame = encode(m);
    ASSERT_EQ(encoded_size(m), frame.size()) << "message #" << i;
    ASSERT_EQ(fields(decode(frame)), fields(m)) << "message #" << i;
  }
  for (const std::size_t count : per_type) EXPECT_GT(count, 19'000u);
}

// ---- Per engine: recording participants ------------------------------------

class RecordingCdn final : public CdnParticipant {
 public:
  RecordingCdn(std::uint32_t id, std::uint64_t seed) : id_(id), rng_(seed) {}

  void handle_share(std::span<const ShareMessage> shares) override {
    shares_seen.assign(shares.begin(), shares.end());
  }

  std::vector<BidMessage> announce() override {
    bids_sent.clear();
    for (const ShareMessage& share : shares_seen) {
      if (rng_.chance(0.3)) continue;
      BidMessage bid = any_bid(rng_);
      bid.share_id = share.share_id;
      bid.cdn_id = id_;
      bids_sent.push_back(bid);
    }
    // Bids can name shares this CDN never saw (e.g. under a no-share design).
    if (rng_.chance(0.5)) bids_sent.push_back(any_bid(rng_));
    return bids_sent;
  }

  void handle_accept(std::span<const AcceptMessage> accepts) override {
    accepts_seen.assign(accepts.begin(), accepts.end());
  }

  std::vector<ShareMessage> shares_seen;
  std::vector<BidMessage> bids_sent;
  std::vector<AcceptMessage> accepts_seen;

 private:
  std::uint32_t id_;
  core::Rng rng_;
};

class RecordingBroker final : public BrokerParticipant {
 public:
  explicit RecordingBroker(std::uint64_t seed) : rng_(seed) {}

  std::vector<ShareMessage> gather() override {
    shares_sent.clear();
    const std::size_t n = rng_.below(40);
    for (std::size_t i = 0; i < n; ++i) shares_sent.push_back(any_share(rng_));
    return shares_sent;
  }

  std::vector<AcceptMessage> optimize(std::span<const BidMessage> bids) override {
    bids_seen.assign(bids.begin(), bids.end());
    accepts_sent.clear();
    for (const BidMessage& bid : bids) {
      accepts_sent.push_back(AcceptMessage{bid.cluster_id, bid.share_id,
                                           bid.performance_estimate, bid.capacity_mbps,
                                           bid.price, bid.cdn_id, any_double(rng_)});
    }
    // Degraded-round substitutes: the feed may cover more than what arrived.
    if (rng_.chance(0.5)) accepts_sent.push_back(any_accept(rng_));
    return accepts_sent;
  }

  std::vector<ShareMessage> shares_sent;
  std::vector<BidMessage> bids_seen;
  std::vector<AcceptMessage> accepts_sent;

 private:
  core::Rng rng_;
};

/// Each message through the reference hop, bytes summed into `bytes`.
template <typename T>
std::vector<T> reference_hops(const std::vector<T>& sent, std::size_t& bytes) {
  std::vector<T> out;
  for (const T& m : sent) out.push_back(transmit(m, bytes));
  return out;
}

void check_seeded_rounds(bool share_client_data) {
  core::Rng seeds{share_client_data ? 0xDEC1u : 0xDEC2u};
  for (int round = 0; round < 60; ++round) {
    RecordingBroker broker{seeds()};
    std::deque<RecordingCdn> cdns;  // participants stay put as they are added
    const std::size_t n = 1 + seeds.below(8);
    for (std::size_t i = 0; i < n; ++i) {
      cdns.emplace_back(static_cast<std::uint32_t>(i), seeds());
    }
    std::vector<CdnParticipant*> participants;
    for (RecordingCdn& cdn : cdns) participants.push_back(&cdn);

    DecisionEngineConfig config;
    config.share_client_data = share_client_data;
    const RoundStats stats = run_decision_round(broker, participants, config);

    // What the reference hop delivers, and the bytes it counts, hop by hop.
    std::size_t bytes = 0;
    std::size_t shares = 0;
    std::size_t accepts = 0;
    std::vector<BidMessage> all_bids;
    for (RecordingCdn& cdn : cdns) {
      const std::vector<ShareMessage> want =
          share_client_data ? reference_hops(broker.shares_sent, bytes)
                            : std::vector<ShareMessage>{};
      shares += want.size();
      expect_bit_equal(cdn.shares_seen, want, "share");
    }
    for (RecordingCdn& cdn : cdns) {
      const std::vector<BidMessage> hopped = reference_hops(cdn.bids_sent, bytes);
      all_bids.insert(all_bids.end(), hopped.begin(), hopped.end());
    }
    expect_bit_equal(broker.bids_seen, all_bids, "bid");
    for (RecordingCdn& cdn : cdns) {
      const std::vector<AcceptMessage> want = reference_hops(broker.accepts_sent, bytes);
      accepts += want.size();
      expect_bit_equal(cdn.accepts_seen, want, "accept");
    }

    EXPECT_EQ(stats.bytes_on_wire, bytes) << "round " << round;
    EXPECT_EQ(stats.shares_sent, shares);
    EXPECT_EQ(stats.bids_received, all_bids.size());
    EXPECT_EQ(stats.accepts_sent, accepts);
    EXPECT_EQ(stats.chaos.messages, 0u);
  }
}

TEST(TransmitIdentity, DecisionRoundsDeliverBitEqualMessagesAndCountEveryFrame) {
  check_seeded_rounds(true);
}

TEST(TransmitIdentity, DecisionRoundsWithoutSharesCountOnlyBidsAndAccepts) {
  check_seeded_rounds(false);
}

/// Directory that records every query it is asked and every result it sends.
class RecordingDirectory final : public DeliveryDirectory {
 public:
  explicit RecordingDirectory(std::uint64_t seed) : rng_(seed) {}

  ResultMessage resolve(const QueryMessage& query) override {
    queries_seen.push_back(query);
    results_sent.push_back(ResultMessage{query.session_id, any_u32(rng_), 42});
    return results_sent.back();
  }
  ResultMessage resolve_excluding(const QueryMessage& query,
                                  std::uint32_t dark_cluster) override {
    queries_seen.push_back(query);
    const std::uint32_t alternative = alternative_exists ? dark_cluster + 1 : UINT32_MAX;
    results_sent.push_back(ResultMessage{query.session_id, any_u32(rng_), alternative});
    return results_sent.back();
  }

  bool alternative_exists = true;
  std::vector<QueryMessage> queries_seen;
  std::vector<ResultMessage> results_sent;

 private:
  core::Rng rng_;
};

/// Frontend that records every request; cluster 42 is dark when `dark` is
/// set (delivers -0.0, which still counts as nothing delivered).
class RecordingFrontend final : public ClusterFrontend {
 public:
  explicit RecordingFrontend(std::uint64_t seed) : rng_(seed) {}

  DeliveryMessage serve(const RequestMessage& request) override {
    requests_seen.push_back(request);
    double mbps = any_double(rng_);
    if (dark && request.cluster_id == 42) {
      mbps = -0.0;
    } else if (!(mbps > 0.0)) {
      mbps = std::bit_cast<double>(0x0000000000000001ULL);  // denormal, still > 0
    }
    deliveries_sent.push_back(DeliveryMessage{request.session_id, request.cluster_id, mbps});
    return deliveries_sent.back();
  }

  bool dark = false;
  std::vector<RequestMessage> requests_seen;
  std::vector<DeliveryMessage> deliveries_sent;

 private:
  core::Rng rng_;
};

void check_seeded_deliveries(bool dark, bool alternative_exists) {
  core::Rng seeds{0xDE11u + (dark ? 1u : 0u) + (alternative_exists ? 2u : 0u)};
  for (int session = 0; session < 200; ++session) {
    RecordingDirectory directory{seeds()};
    directory.alternative_exists = alternative_exists;
    RecordingFrontend frontend{seeds()};
    frontend.dark = dark;
    const QueryMessage query{any_u32(seeds), any_u32(seeds), any_double(seeds)};
    const DeliveryOutcome outcome = run_delivery(query, directory, frontend);

    // Replay every hop through the reference: the query once, then each
    // result the directory sent, each request the frontend saw and each
    // delivery it sent.
    std::size_t bytes = 0;
    const QueryMessage sent_query = transmit(query, bytes);
    for (const QueryMessage& seen : directory.queries_seen) {
      ASSERT_EQ(fields(seen), fields(sent_query));
    }
    const std::vector<ResultMessage> results = reference_hops(directory.results_sent, bytes);
    std::vector<RequestMessage> requests;
    for (std::size_t i = 0; i < frontend.requests_seen.size(); ++i) {
      // Request i goes to the primary result, then (after a failover) to the
      // alternative, which is the last result sent.
      const ResultMessage& to = i == 0 ? results.front() : results.back();
      requests.push_back(RequestMessage{to.session_id, to.cluster_id, 0});
    }
    expect_bit_equal(frontend.requests_seen, reference_hops(requests, bytes), "request");
    const std::vector<DeliveryMessage> deliveries =
        reference_hops(frontend.deliveries_sent, bytes);

    EXPECT_EQ(outcome.bytes_on_wire, bytes) << "session " << session;
    EXPECT_EQ(fields(outcome.delivery), fields(deliveries.back()));
    EXPECT_EQ(outcome.rehomed, dark && alternative_exists);
    EXPECT_EQ(directory.results_sent.size(), dark ? 2u : 1u);
    EXPECT_EQ(frontend.requests_seen.size(), dark && alternative_exists ? 2u : 1u);
    const ResultMessage& final_result =
        outcome.rehomed ? results.back() : results.front();
    EXPECT_EQ(fields(outcome.result), fields(final_result));
  }
}

TEST(TransmitIdentity, DeliveryDeliversBitEqualMessagesAndCountsEveryFrame) {
  check_seeded_deliveries(/*dark=*/false, /*alternative_exists=*/true);
}

TEST(TransmitIdentity, DeliveryFailoverCountsTheReResolutionAndReplay) {
  check_seeded_deliveries(/*dark=*/true, /*alternative_exists=*/true);
}

TEST(TransmitIdentity, DeliveryFailoverWithoutAlternativeCountsTheReResolution) {
  check_seeded_deliveries(/*dark=*/true, /*alternative_exists=*/false);
}

}  // namespace
}  // namespace vdx::proto
