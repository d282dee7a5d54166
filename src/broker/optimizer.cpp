#include "broker/optimizer.hpp"

#include <algorithm>
#include <stdexcept>

namespace vdx::broker {

namespace {
constexpr std::uint32_t kUnmapped = UINT32_MAX;
}  // namespace

OptimizeResult optimize(std::span<const ClientGroup> groups,
                        std::span<const BidView> bids, const OptimizerConfig& config) {
  const auto span = config.obs.span("broker.optimize");

  // Share-id -> group index as a dense direct-index table (share and cluster
  // ids are dense by construction, so the tables stay small; the optimizer
  // still only assumes uniqueness and tolerates gaps via the sentinel).
  std::uint32_t max_share = 0;
  for (const ClientGroup& g : groups) max_share = std::max(max_share, g.id.value());
  std::vector<std::uint32_t> group_of_share(groups.empty() ? 0 : max_share + 1,
                                            kUnmapped);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::uint32_t& slot = group_of_share[groups[g].id.value()];
    if (slot != kUnmapped) {
      throw std::invalid_argument{"optimize: duplicate share id"};
    }
    slot = static_cast<std::uint32_t>(g);
  }

  // Cluster -> resource row, same dense-table scheme (rows are issued in
  // first-appearance order over the bid list); committed capacity is shared
  // by all bids naming the cluster (take the max commitment announced).
  std::uint32_t max_cluster = 0;
  for (const BidView& bid : bids) {
    max_cluster = std::max(max_cluster, bid.cluster.value());
  }
  std::vector<std::uint32_t> resource_of_cluster(bids.empty() ? 0 : max_cluster + 1,
                                                 kUnmapped);
  solver::AssignmentProblem problem;
  problem.group_counts.reserve(groups.size());
  for (const ClientGroup& g : groups) problem.group_counts.push_back(g.client_count);

  std::vector<std::size_t> usable_bid;  // problem option -> bids[] index
  usable_bid.reserve(bids.size());
  for (std::size_t b = 0; b < bids.size(); ++b) {
    const BidView& bid = bids[b];
    if (bid.share.value() >= group_of_share.size() ||
        group_of_share[bid.share.value()] == kUnmapped) {
      throw std::invalid_argument{"optimize: bid references unknown share"};
    }
    if (config.reputation && config.reputation->is_blacklisted(bid.cdn)) continue;

    const double penalty =
        config.reputation ? config.reputation->penalty_multiplier(bid.cdn) : 1.0;
    const ClientGroup& group = groups[group_of_share[bid.share.value()]];

    std::uint32_t& resource = resource_of_cluster[bid.cluster.value()];
    if (resource == kUnmapped) {
      resource = static_cast<std::uint32_t>(problem.capacities.size());
      problem.capacities.push_back(bid.capacity);
    } else {
      problem.capacities[resource] =
          std::max(problem.capacities[resource], bid.capacity);
    }

    solver::Option option;
    option.group = group_of_share[bid.share.value()];
    option.resource = resource;
    option.unit_demand = group.bitrate_mbps;
    option.unit_cost = penalty * (config.weights.performance * bid.score +
                                  config.weights.cost * bid.price * group.bitrate_mbps);
    problem.options.push_back(option);
    usable_bid.push_back(b);
  }

  // Unbid groups: validate() rejects a populated group with no option. When
  // the caller opted in, zero those groups' counts instead — option indices
  // are untouched, the groups simply place nobody this round.
  std::size_t unbid_groups = 0;
  if (config.allow_unbid_groups) {
    std::vector<bool> has_bid(problem.group_counts.size(), false);
    for (const solver::Option& option : problem.options) has_bid[option.group] = true;
    for (std::size_t g = 0; g < problem.group_counts.size(); ++g) {
      if (problem.group_counts[g] > 0.0 && !has_bid[g]) {
        problem.group_counts[g] = 0.0;
        ++unbid_groups;
      }
    }
  }

  problem.validate();  // throws if a populated group ended up with no bids

  solver::SolveOptions solve = config.solve;
  solve.obs = config.obs;
  const solver::Assignment assignment = solver::solve(problem, solve);

  OptimizeResult result;
  result.backend_used = config.solve.backend;
  result.objective = assignment.objective;
  result.overflow_mbps = assignment.overflow_demand;
  for (std::size_t i = 0; i < assignment.amounts.size(); ++i) {
    if (assignment.amounts[i] > 1e-9) {
      result.allocations.push_back(Allocation{usable_bid[i], assignment.amounts[i]});
    }
  }
  if (config.obs.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *config.obs.metrics;
    metrics.counter("broker.optimize.calls").add();
    metrics.counter("broker.optimize.bids").add(static_cast<double>(bids.size()));
    metrics.counter("broker.optimize.allocations")
        .add(static_cast<double>(result.allocations.size()));
    metrics.counter("broker.optimize.overflow_mbps").add(result.overflow_mbps);
    if (unbid_groups > 0) {
      metrics.counter("broker.optimize.unbid_groups")
          .add(static_cast<double>(unbid_groups));
    }
  }
  return result;
}

}  // namespace vdx::broker
