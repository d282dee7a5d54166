// VDX protocol messages (paper §6.1) and their envelope encoding.
//
// Decision Protocol:
//   Share  = [share_id, location, isp, content_id, data_size, client_count]
//   Bid    = [cluster_id, share_id, performance_estimate, capacity, price]
//   Accept = same fields as Bid, plus the traffic actually awarded (the
//            Accept step tells *all* CDNs which bids won and by how much so
//            they can adapt future bids).
// Delivery Protocol:
//   Query / Result / Request / Delivery.
//
// Envelope: [u32 payload_length][u8 type][u16 version][payload][u32 fnv1a].
// The trailing FNV-1a checksum covers header + payload, so any bit flip a
// faulty link introduces is detected and the frame rejected — a requirement
// for running the exchange over the chaos transport (proto/fault.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "core/result.hpp"
#include "proto/wire.hpp"

namespace vdx::proto {

inline constexpr std::uint16_t kProtocolVersion = 2;

enum class MessageType : std::uint8_t {
  kShare = 1,
  kBid = 2,
  kAccept = 3,
  kQuery = 4,
  kResult = 5,
  kRequest = 6,
  kDelivery = 7,
};

struct ShareMessage {
  std::uint32_t share_id = 0;
  std::uint32_t location = 0;  // city id
  std::uint32_t isp = 0;       // AS number, 0 = aggregated
  std::uint32_t content_id = 0;
  double data_size_mbps = 0.0;  // per-client bitrate
  std::uint32_t client_count = 0;

  friend bool operator==(const ShareMessage&, const ShareMessage&) = default;
};

struct BidMessage {
  std::uint32_t cluster_id = 0;  // opaque between broker and CDN
  std::uint32_t share_id = 0;
  double performance_estimate = 0.0;  // score, lower better
  double capacity_mbps = 0.0;
  double price = 0.0;  // $/unit
  std::uint32_t cdn_id = 0;

  friend bool operator==(const BidMessage&, const BidMessage&) = default;
};

struct AcceptMessage {
  std::uint32_t cluster_id = 0;
  std::uint32_t share_id = 0;
  double performance_estimate = 0.0;
  double capacity_mbps = 0.0;
  double price = 0.0;
  std::uint32_t cdn_id = 0;
  double awarded_mbps = 0.0;  // 0 => the bid lost

  friend bool operator==(const AcceptMessage&, const AcceptMessage&) = default;
};

struct QueryMessage {
  std::uint32_t session_id = 0;
  std::uint32_t location = 0;
  double bitrate_mbps = 0.0;

  friend bool operator==(const QueryMessage&, const QueryMessage&) = default;
};

struct ResultMessage {
  std::uint32_t session_id = 0;
  std::uint32_t cdn_id = 0;
  std::uint32_t cluster_id = 0;

  friend bool operator==(const ResultMessage&, const ResultMessage&) = default;
};

struct RequestMessage {
  std::uint32_t session_id = 0;
  std::uint32_t cluster_id = 0;
  std::uint32_t content_id = 0;

  friend bool operator==(const RequestMessage&, const RequestMessage&) = default;
};

struct DeliveryMessage {
  std::uint32_t session_id = 0;
  std::uint32_t cluster_id = 0;
  double delivered_mbps = 0.0;

  friend bool operator==(const DeliveryMessage&, const DeliveryMessage&) = default;
};

using Message = std::variant<ShareMessage, BidMessage, AcceptMessage, QueryMessage,
                             ResultMessage, RequestMessage, DeliveryMessage>;

[[nodiscard]] MessageType type_of(const Message& message) noexcept;

/// Encodes a message with its envelope.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& message);

/// Size of encode(message), a constant per type: every field is fixed-width.
[[nodiscard]] std::size_t encoded_size(const Message& message) noexcept;

/// Decodes one enveloped message; throws WireError on malformed input.
/// `consumed` (optional) receives the total envelope size, enabling framed
/// streams of back-to-back messages.
[[nodiscard]] Message decode(std::span<const std::uint8_t> data,
                             std::size_t* consumed = nullptr);

/// Non-throwing decode for hostile input (the chaos transport's receive
/// path): truncated, bit-corrupted, mis-typed, or mis-versioned frames come
/// back as Errc::kCorruptFrame instead of an exception. Every payload is
/// fixed-size, so the frame is fully validated (including the checksum)
/// before any field is read.
[[nodiscard]] core::Result<Message> try_decode(std::span<const std::uint8_t> data,
                                               std::size_t* consumed = nullptr);

/// Decodes a back-to-back stream of enveloped messages.
[[nodiscard]] std::vector<Message> decode_stream(std::span<const std::uint8_t> data);

}  // namespace vdx::proto
