// Differential proof for the hash-indexed SessionLedger (DESIGN.md §14).
// The ledger's id index is an unordered_map with an undo log for rejected
// batches. None of that may change an observable: the std::map ledger it
// replaced lives below as the reference, verbatim. Both ledgers take the
// same seeded batches and, after every batch, must agree on the status
// (code and message), size(), groups() bit for bit, and sessions() in id
// order.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "market/shard.hpp"

namespace vdx::market {
namespace {

/// The std::map SessionLedger before the hash index.
class ReferenceLedger {
 public:
  core::Status apply(std::span<const proto::ShardSessionAdd> adds,
                     std::span<const std::uint32_t> removes) {
    // Validate the whole batch first: a rejected batch must mutate nothing.
    // (Within a batch, adds are applied before removes.)
    std::map<std::uint32_t, std::pair<std::uint32_t, double>> batch;
    for (const proto::ShardSessionAdd& add : adds) {
      if (!std::isfinite(add.bitrate_mbps) || add.bitrate_mbps <= 0.0) {
        return invalid("session ledger: bitrate must be finite and > 0");
      }
      const std::pair<std::uint32_t, double> data{add.city, add.bitrate_mbps};
      if (const auto it = sessions_.find(add.id); it != sessions_.end()) {
        if (it->second != data) {
          return invalid("session ledger: session " + std::to_string(add.id) +
                         " re-added with different city/bitrate");
        }
        continue;  // idempotent re-add
      }
      if (const auto it = batch.find(add.id); it != batch.end()) {
        if (it->second != data) {
          return invalid("session ledger: session " + std::to_string(add.id) +
                         " added twice with different city/bitrate");
        }
        continue;
      }
      batch.emplace(add.id, data);
    }
    // Commit.
    for (const auto& [id, data] : batch) {
      sessions_.emplace(id, data);
      counts_[data] += 1.0;
    }
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

  std::vector<broker::ClientGroup> groups() const {
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

  std::size_t size() const noexcept { return sessions_.size(); }

  void clear() noexcept {
    sessions_.clear();
    counts_.clear();
  }

  std::vector<proto::ShardSessionAdd> sessions() const {
    std::vector<proto::ShardSessionAdd> out;
    out.reserve(sessions_.size());
    for (const auto& [id, data] : sessions_) {
      out.push_back(proto::ShardSessionAdd{id, data.first, data.second});
    }
    return out;
  }

 private:
  static core::Status invalid(std::string message) {
    return core::Status::failure(core::Errc::kInvalidArgument, std::move(message));
  }

  std::map<std::uint32_t, std::pair<std::uint32_t, double>> sessions_;
  std::map<std::pair<std::uint32_t, double>, double> counts_;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Accepted bitrates: ladder rungs, one the kbps store would round
/// (1.23456), the smallest denormal and the largest finite double.
constexpr double kGoodRates[] = {1.2, 3.6, 1.23456, 0.5,
                                 std::numeric_limits<double>::denorm_min(),
                                 std::numeric_limits<double>::max()};
/// Rejected bitrates.
const double kBadRates[] = {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf,
                            0.0, -0.0, -1.2};

constexpr std::uint32_t kCities = 6;
/// Small id space, so re-adds, conflicts and same-batch duplicates are
/// common; edge ids ride along.
constexpr std::uint32_t kIdSpace = 400;

class BatchGen {
 public:
  explicit BatchGen(std::uint64_t seed) : rng_(seed) {}

  std::uint32_t fresh_id() {
    const std::uint64_t pick = rng_.below(100);
    if (pick == 0) return UINT32_MAX;
    if (pick == 1) return UINT32_MAX - 1;
    if (pick == 2) return static_cast<std::uint32_t>(rng_());
    return static_cast<std::uint32_t>(rng_.below(kIdSpace));
  }

  proto::ShardSessionAdd fresh_add() {
    proto::ShardSessionAdd add;
    add.id = fresh_id();
    add.city = static_cast<std::uint32_t>(rng_.below(kCities));
    add.bitrate_mbps = kGoodRates[rng_.below(std::size(kGoodRates))];
    return add;
  }

  /// Same id, different data (city or bitrate).
  proto::ShardSessionAdd conflicting(proto::ShardSessionAdd add) {
    if (rng_.chance(0.5)) {
      add.city = (add.city + 1) % kCities;
    } else {
      add.bitrate_mbps = add.bitrate_mbps == kGoodRates[0] ? kGoodRates[1] : kGoodRates[0];
    }
    return add;
  }

  void next(const std::vector<proto::ShardSessionAdd>& live,
            std::vector<proto::ShardSessionAdd>& adds,
            std::vector<std::uint32_t>& removes) {
    adds.clear();
    removes.clear();
    if (rng_.below(500) == 0) {
      large(adds, removes);
      return;
    }
    const std::size_t add_count = rng_.below(16);
    for (std::size_t k = 0; k < add_count; ++k) {
      const std::uint64_t kind = rng_.below(100);
      if (kind < 12 && !live.empty()) {
        adds.push_back(live[rng_.below(live.size())]);  // identical re-add
      } else if (kind < 14 && !live.empty()) {
        adds.push_back(conflicting(live[rng_.below(live.size())]));
      } else if (kind < 22 && !adds.empty()) {
        adds.push_back(adds[rng_.below(adds.size())]);  // same-batch duplicate
      } else if (kind < 24 && !adds.empty()) {
        adds.push_back(conflicting(adds[rng_.below(adds.size())]));
      } else if (kind < 26) {
        proto::ShardSessionAdd bad = fresh_add();
        bad.bitrate_mbps = kBadRates[rng_.below(std::size(kBadRates))];
        adds.push_back(bad);
      } else {
        adds.push_back(fresh_add());
      }
    }
    const std::size_t remove_count = rng_.below(16);
    for (std::size_t k = 0; k < remove_count; ++k) {
      const std::uint64_t kind = rng_.below(100);
      if (kind < 45 && !live.empty()) {
        removes.push_back(live[rng_.below(live.size())].id);
      } else if (kind < 75 && !adds.empty()) {
        removes.push_back(adds[rng_.below(adds.size())].id);  // same-batch add
      } else {
        removes.push_back(fresh_id());  // mostly unknown
      }
    }
  }

  [[nodiscard]] bool chance(double p) { return rng_.chance(p); }

 private:
  /// Thousands of wide ids, so the index grows through rehashes; half end
  /// in a conflicting duplicate, so the undo log rolls all of them back.
  /// Removes take most of a committed batch out again.
  void large(std::vector<proto::ShardSessionAdd>& adds,
             std::vector<std::uint32_t>& removes) {
    const std::size_t count = 2000 + rng_.below(2000);
    for (std::size_t k = 0; k < count; ++k) {
      proto::ShardSessionAdd add = fresh_add();
      add.id = static_cast<std::uint32_t>(rng_());
      adds.push_back(add);
    }
    if (rng_.chance(0.5)) adds.push_back(conflicting(adds[rng_.below(count)]));
    for (std::size_t k = 0; k < count; ++k) {
      removes.push_back(adds[rng_.below(count)].id);
    }
  }

  core::Rng rng_;
};

void expect_same(const ReferenceLedger& reference, const SessionLedger& ledger,
                 const std::string& at) {
  ASSERT_EQ(reference.size(), ledger.size()) << at;
  const auto want_groups = reference.groups();
  const auto got_groups = ledger.groups();
  ASSERT_EQ(want_groups.size(), got_groups.size()) << at;
  for (std::size_t i = 0; i < want_groups.size(); ++i) {
    const broker::ClientGroup& a = want_groups[i];
    const broker::ClientGroup& b = got_groups[i];
    ASSERT_EQ(a.id.value(), b.id.value()) << at << " group " << i;
    ASSERT_EQ(a.city.value(), b.city.value()) << at << " group " << i;
    ASSERT_EQ(a.isp, b.isp) << at << " group " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.bitrate_mbps),
              std::bit_cast<std::uint64_t>(b.bitrate_mbps))
        << at << " group " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.client_count),
              std::bit_cast<std::uint64_t>(b.client_count))
        << at << " group " << i;
  }
  const auto want_sessions = reference.sessions();
  const auto got_sessions = ledger.sessions();
  ASSERT_EQ(want_sessions.size(), got_sessions.size()) << at;
  for (std::size_t i = 0; i < want_sessions.size(); ++i) {
    const proto::ShardSessionAdd& a = want_sessions[i];
    const proto::ShardSessionAdd& b = got_sessions[i];
    ASSERT_EQ(a.id, b.id) << at << " session " << i;
    ASSERT_EQ(a.city, b.city) << at << " session " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.bitrate_mbps),
              std::bit_cast<std::uint64_t>(b.bitrate_mbps))
        << at << " session " << i;
  }
}

TEST(SessionLedgerDifferential, SeededBatchesMatchTheMapLedger) {
  constexpr std::uint64_t kSeeds = 4;
  constexpr std::size_t kBatchesPerSeed = 3000;
  std::size_t rejected = 0;
  std::size_t committed = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    BatchGen gen{seed};
    ReferenceLedger reference;
    SessionLedger ledger;
    std::vector<proto::ShardSessionAdd> adds;
    std::vector<std::uint32_t> removes;
    for (std::size_t b = 0; b < kBatchesPerSeed; ++b) {
      const std::string at = "seed " + std::to_string(seed) + " batch " + std::to_string(b);
      if (gen.chance(0.002)) {
        reference.clear();
        ledger.clear();
      }
      gen.next(reference.sessions(), adds, removes);
      const core::Status want = reference.apply(adds, removes);
      const core::Status got = ledger.apply(adds, removes);
      ASSERT_EQ(want.ok(), got.ok()) << at;
      if (!want.ok()) {
        ASSERT_EQ(want.error().code, got.error().code) << at;
        ASSERT_EQ(want.error().message, got.error().message) << at;
        ++rejected;
      } else {
        ++committed;
      }
      expect_same(reference, ledger, at);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Both branches must be well exercised, or the proof covers nothing.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(committed, 4000u);
}

// Each rejection branch, pinned by hand: the message names the branch, and
// the rejected batch — including the ids it had already indexed — is gone.
TEST(SessionLedgerDifferential, EveryRejectionBranchRollsBackAndMatches) {
  const std::vector<proto::ShardSessionAdd> seed = {{1, 0, 1.2}, {UINT32_MAX, 2, 3.6}};
  const std::vector<std::vector<proto::ShardSessionAdd>> batches = {
      {{7, 1, 1.2}, {8, 1, std::numeric_limits<double>::quiet_NaN()}},
      {{7, 1, 1.2}, {8, 1, -kInf}},
      {{7, 1, 1.2}, {8, 1, -0.0}},
      {{7, 1, 1.2}, {1, 1, 1.2}},                // live id, other city
      {{7, 1, 1.2}, {UINT32_MAX, 2, 3.6000001}},  // live id, other bitrate
      {{7, 1, 1.2}, {9, 1, 1.2}, {7, 1, 1.23456}},  // same batch, other data
  };
  for (std::size_t i = 0; i < batches.size(); ++i) {
    ReferenceLedger reference;
    SessionLedger ledger;
    ASSERT_TRUE(reference.apply(seed, {}).ok());
    ASSERT_TRUE(ledger.apply(seed, {}).ok());
    const std::vector<std::uint32_t> removes = {1};
    const core::Status want = reference.apply(batches[i], removes);
    const core::Status got = ledger.apply(batches[i], removes);
    ASSERT_FALSE(want.ok()) << i;
    ASSERT_FALSE(got.ok()) << i;
    EXPECT_EQ(want.error().code, got.error().code) << i;
    EXPECT_EQ(want.error().message, got.error().message) << i;
    expect_same(reference, ledger, "branch " + std::to_string(i));
    EXPECT_EQ(ledger.size(), seed.size()) << i;
  }
}

}  // namespace
}  // namespace vdx::market
