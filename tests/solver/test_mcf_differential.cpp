// Differential proof for the min-cost-flow solver. MinCostFlowGraph::solve
// runs the same successive-shortest-path algorithm as before, with a faster
// priority queue (a radix queue with a bitset of tied nodes), an active-arc
// bitmap and a two-pass relax loop. None of that may change a single
// decision. The solver it replaced lives below as the reference, verbatim in
// algorithm and arithmetic. On every seeded random instance both must agree
// bit for bit: flow, cost, reached_target and the flow on every arc, and so
// must the assignment amounts solve_assignment_mcf derives from them. Equal
// objective is not enough, since a different tie-break moves clients between
// clusters.
#include "solver/mincost_flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace vdx::solver {
namespace {

/// The successive-shortest-path solver before the early exit: Dijkstra runs
/// to exhaustion on an indexed binary heap and every reached node's
/// potential grows by its full distance.
class ExhaustiveSsp {
 public:
  using NodeId = std::uint32_t;

  NodeId add_node() {
    head_.push_back(SIZE_MAX);
    return static_cast<NodeId>(head_.size() - 1);
  }

  std::size_t add_arc(NodeId from, NodeId to, std::int64_t capacity, double cost) {
    const std::size_t index = arc_to_.size();
    arc_to_.push_back(to);
    arc_cost_.push_back(cost);
    arc_next_.push_back(head_[from]);
    head_[from] = index;
    arc_to_.push_back(from);
    arc_cost_.push_back(-cost);
    arc_next_.push_back(head_[to]);
    head_[to] = index + 1;
    initial_capacity_.push_back(capacity);
    initial_capacity_.push_back(0);
    return index;
  }

  MinCostFlowGraph::FlowResult solve(NodeId source, NodeId sink, std::int64_t target_flow) {
    build_csr();
    residual_ = csr_cap_init_;
    MinCostFlowGraph::FlowResult result;
    if (target_flow <= 0) {
      result.reached_target = true;
      return result;
    }
    std::vector<double> pot;
    if (!bellman_ford_potentials(source, pot)) {
      throw std::runtime_error{"ExhaustiveSsp: negative cycle in costs"};
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::size_t nodes = head_.size();
    while (result.flow < target_flow) {
      std::fill(dist_.begin(), dist_.end(), kInf);
      std::fill(parent_pos_.begin(), parent_pos_.end(), kNoPos);
      std::fill(heap_index_.begin(), heap_index_.end(), kNoPos);
      heap_.clear();
      dist_[source] = 0.0;
      heap_push_or_decrease(source);
      while (!heap_.empty()) {
        const NodeId u = heap_pop_min();
        const double du = dist_[u];
        const double pu = pot[u];
        for (std::uint32_t p = csr_start_[u]; p < csr_start_[u + 1]; ++p) {
          if (residual_[p] <= 0) continue;
          const NodeId to = csr_to_[p];
          const double reduced = csr_cost_[p] + pu - pot[to];
          const double candidate = du + std::max(0.0, reduced);
          if (candidate < dist_[to] - 1e-12) {
            dist_[to] = candidate;
            parent_pos_[to] = p;
            heap_push_or_decrease(to);
          }
        }
      }
      if (dist_[sink] == kInf) break;
      for (std::size_t v = 0; v < nodes; ++v) {
        if (dist_[v] < kInf) pot[v] += dist_[v];
      }
      std::int64_t push = target_flow - result.flow;
      for (NodeId v = sink; v != source;) {
        const std::uint32_t p = parent_pos_[v];
        push = std::min(push, residual_[p]);
        v = csr_to_[csr_twin_[p]];
      }
      for (NodeId v = sink; v != source;) {
        const std::uint32_t p = parent_pos_[v];
        residual_[p] -= push;
        residual_[csr_twin_[p]] += push;
        result.cost += static_cast<double>(push) * csr_cost_[p];
        v = csr_to_[csr_twin_[p]];
      }
      result.flow += push;
    }
    result.reached_target = result.flow >= target_flow;
    return result;
  }

  [[nodiscard]] std::int64_t flow_on(std::size_t arc) const {
    return residual_[pos_of_arc_[arc ^ 1]];
  }

 private:
  static constexpr std::uint32_t kNoPos = UINT32_MAX;

  void build_csr() {
    const std::size_t nodes = head_.size();
    const std::size_t arcs = arc_to_.size();
    csr_start_.assign(nodes + 1, 0);
    csr_to_.resize(arcs);
    csr_cost_.resize(arcs);
    csr_twin_.resize(arcs);
    pos_of_arc_.resize(arcs);
    csr_cap_init_.resize(arcs);
    std::uint32_t pos = 0;
    for (std::size_t u = 0; u < nodes; ++u) {
      csr_start_[u] = pos;
      for (std::size_t e = head_[u]; e != SIZE_MAX; e = arc_next_[e]) pos_of_arc_[e] = pos++;
    }
    csr_start_[nodes] = pos;
    for (std::size_t e = 0; e < arcs; ++e) {
      const std::uint32_t p = pos_of_arc_[e];
      csr_to_[p] = arc_to_[e];
      csr_cost_[p] = arc_cost_[e];
      csr_twin_[p] = pos_of_arc_[e ^ 1];
      csr_cap_init_[p] = initial_capacity_[e];
    }
    dist_.resize(nodes);
    parent_pos_.resize(nodes);
    heap_index_.resize(nodes);
  }

  bool bellman_ford_potentials(NodeId source, std::vector<double>& pot) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    pot.assign(head_.size(), kInf);
    pot[source] = 0.0;
    std::deque<NodeId> queue{source};
    std::vector<std::uint8_t> in_queue(head_.size(), 0);
    std::vector<std::uint32_t> relaxations(head_.size(), 0);
    in_queue[source] = 1;
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      in_queue[u] = 0;
      for (std::uint32_t p = csr_start_[u]; p < csr_start_[u + 1]; ++p) {
        if (residual_[p] <= 0) continue;
        const double candidate = pot[u] + csr_cost_[p];
        const NodeId to = csr_to_[p];
        if (candidate < pot[to] - 1e-12) {
          pot[to] = candidate;
          if (!in_queue[to]) {
            if (++relaxations[to] > head_.size() + 1) return false;
            in_queue[to] = 1;
            queue.push_back(to);
          }
        }
      }
    }
    for (auto& p : pot) {
      if (p == kInf) p = 0.0;
    }
    return true;
  }

  [[nodiscard]] bool heap_less(NodeId a, NodeId b) const noexcept {
    return dist_[a] < dist_[b] || (dist_[a] == dist_[b] && a < b);
  }

  void heap_sift_up(std::uint32_t hole) {
    while (hole > 0) {
      const std::uint32_t up = (hole - 1) / 2;
      if (!heap_less(heap_[hole], heap_[up])) break;
      std::swap(heap_[hole], heap_[up]);
      heap_index_[heap_[hole]] = hole;
      heap_index_[heap_[up]] = up;
      hole = up;
    }
  }

  void heap_sift_down(std::uint32_t hole) {
    const auto size = static_cast<std::uint32_t>(heap_.size());
    while (true) {
      const std::uint32_t left = 2 * hole + 1;
      if (left >= size) break;
      std::uint32_t best = left;
      const std::uint32_t right = left + 1;
      if (right < size && heap_less(heap_[right], heap_[left])) best = right;
      if (!heap_less(heap_[best], heap_[hole])) break;
      std::swap(heap_[best], heap_[hole]);
      heap_index_[heap_[hole]] = hole;
      heap_index_[heap_[best]] = best;
      hole = best;
    }
  }

  void heap_push_or_decrease(NodeId node) {
    const std::uint32_t slot = heap_index_[node];
    if (slot == kNoPos) {
      heap_.push_back(node);
      heap_index_[node] = static_cast<std::uint32_t>(heap_.size() - 1);
      heap_sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
    } else {
      heap_sift_up(slot);
    }
  }

  NodeId heap_pop_min() {
    const NodeId top = heap_[0];
    heap_index_[top] = kNoPos;
    const NodeId last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      heap_index_[last] = 0;
      heap_sift_down(0);
    }
    return top;
  }

  std::vector<std::size_t> head_;
  std::vector<NodeId> arc_to_;
  std::vector<double> arc_cost_;
  std::vector<std::size_t> arc_next_;
  std::vector<std::int64_t> initial_capacity_;
  std::vector<std::uint32_t> csr_start_;
  std::vector<NodeId> csr_to_;
  std::vector<double> csr_cost_;
  std::vector<std::uint32_t> csr_twin_;
  std::vector<std::uint32_t> pos_of_arc_;
  std::vector<std::int64_t> csr_cap_init_;
  std::vector<std::int64_t> residual_;
  std::vector<double> dist_;
  std::vector<std::uint32_t> parent_pos_;
  std::vector<std::uint32_t> heap_index_;
  std::vector<NodeId> heap_;
};

/// solve_assignment_mcf as it was, wired to the reference solver: the same
/// graph, the same scaling and the same proportional snap of group totals.
Assignment reference_assignment(const AssignmentProblem& problem, double overflow_penalty,
                                std::int64_t demand_scale = 1000) {
  problem.validate();
  std::vector<double> group_demand(problem.group_count(), -1.0);
  for (const Option& o : problem.options) {
    if (group_demand[o.group] < 0.0) group_demand[o.group] = o.unit_demand;
  }
  ExhaustiveSsp graph;
  const auto source = graph.add_node();
  const auto sink = graph.add_node();
  std::vector<ExhaustiveSsp::NodeId> group_node(problem.group_count());
  std::vector<ExhaustiveSsp::NodeId> resource_node(problem.resource_count());
  for (auto& n : group_node) n = graph.add_node();
  for (auto& n : resource_node) n = graph.add_node();
  const auto scale_demand = [&](double demand) {
    return static_cast<std::int64_t>(std::llround(demand * static_cast<double>(demand_scale)));
  };
  std::int64_t total_supply = 0;
  std::vector<std::int64_t> supply(problem.group_count(), 0);
  for (std::size_t g = 0; g < problem.group_count(); ++g) {
    if (problem.group_counts[g] <= 0.0) continue;
    const double d = group_demand[g] > 0.0 ? group_demand[g] : 1.0;
    supply[g] = scale_demand(problem.group_counts[g] * d);
    if (supply[g] <= 0) supply[g] = 1;
    graph.add_arc(source, group_node[g], supply[g], 0.0);
    total_supply += supply[g];
  }
  std::vector<std::size_t> option_arc(problem.options.size());
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    const Option& o = problem.options[i];
    const double d = o.unit_demand > 0.0 ? o.unit_demand : 1.0;
    const double cost_per_flow_unit = o.unit_cost / (d * static_cast<double>(demand_scale));
    const auto to = o.resource == kNoResource ? sink : resource_node[o.resource];
    option_arc[i] = graph.add_arc(group_node[o.group], to, supply[o.group], cost_per_flow_unit);
  }
  for (std::size_t r = 0; r < problem.resource_count(); ++r) {
    graph.add_arc(resource_node[r], sink, scale_demand(problem.capacities[r]), 0.0);
    graph.add_arc(resource_node[r], sink, total_supply,
                  overflow_penalty / static_cast<double>(demand_scale));
  }
  graph.solve(source, sink, total_supply);
  std::vector<double> amounts(problem.options.size(), 0.0);
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    const Option& o = problem.options[i];
    const double d = o.unit_demand > 0.0 ? o.unit_demand : 1.0;
    amounts[i] = static_cast<double>(graph.flow_on(option_arc[i])) /
                 (d * static_cast<double>(demand_scale));
  }
  std::vector<double> assigned(problem.group_count(), 0.0);
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    assigned[problem.options[i].group] += amounts[i];
  }
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    const std::uint32_t g = problem.options[i].group;
    if (assigned[g] > 0.0 && problem.group_counts[g] > 0.0) {
      amounts[i] *= problem.group_counts[g] / assigned[g];
    }
  }
  return evaluate(problem, std::move(amounts));
}

struct Arc {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::int64_t capacity = 0;
  double cost = 0.0;
};

struct Instance {
  std::uint32_t nodes = 0;
  std::uint32_t source = 0;
  std::uint32_t sink = 0;
  std::int64_t target = 0;
  std::vector<Arc> arcs;
};

enum class CostKind { kContinuous, kTies };

double draw_cost(core::Rng& rng, CostKind kind, double scale) {
  return kind == CostKind::kTies ? static_cast<double>(rng.range(0, 2))
                                 : rng.uniform(0.0, scale);
}

/// A broker graph in miniature: source -> groups -> clusters -> sink, with
/// some uncapacitated options straight to the sink, a capacity arc plus a
/// penalty-priced overflow arc per cluster, and cluster capacities small
/// enough that overflow is routinely needed.
Instance broker_shaped(core::Rng& rng, CostKind kind, std::int64_t max_groups = 24,
                       std::int64_t max_clusters = 8) {
  Instance inst;
  const auto groups = static_cast<std::uint32_t>(rng.range(1, max_groups));
  const auto clusters = static_cast<std::uint32_t>(rng.range(1, max_clusters));
  inst.nodes = 2 + groups + clusters;
  inst.source = 0;
  inst.sink = 1;
  std::int64_t total = 0;
  for (std::uint32_t g = 0; g < groups; ++g) {
    const std::int64_t supply = rng.range(1, 40);
    total += supply;
    inst.arcs.push_back({0, 2 + g, supply, 0.0});
    const auto options = rng.range(1, static_cast<std::int64_t>(clusters) + 1);
    for (std::int64_t k = 0; k < options; ++k) {
      const auto c = static_cast<std::uint32_t>(rng.range(0, clusters));
      // c == clusters is the uncapacitated option to the sink.
      const std::uint32_t to = c == clusters ? 1 : 2 + groups + c;
      inst.arcs.push_back({2 + g, to, supply, draw_cost(rng, kind, 5.0)});
    }
  }
  const double penalty = kind == CostKind::kTies ? 2.0 : 3.0 + rng.uniform(0.0, 4.0);
  for (std::uint32_t c = 0; c < clusters; ++c) {
    inst.arcs.push_back({2 + groups + c, 1, rng.range(0, total / 2 + 1), 0.0});
    inst.arcs.push_back({2 + groups + c, 1, total, penalty});
  }
  // Mostly the full supply, as the broker asks; sometimes less, sometimes
  // more than the cut can carry.
  const double mode = rng.uniform();
  inst.target = mode < 0.6 ? total : mode < 0.8 ? rng.range(1, total) : total + 5;
  return inst;
}

/// Broker graphs at up to 200 groups and 40 clusters: the source's and the
/// clusters' CSR blocks span several 64-arc words of the active-arc bitmap.
Instance broker_scale(core::Rng& rng) {
  return broker_shaped(rng, rng.chance(0.5) ? CostKind::kTies : CostKind::kContinuous, 200,
                       40);
}

/// Two layers of 2,500 nodes between source and sink, every cost 0 or 1:
/// thousands of nodes tie at each distance, more than one summary word of
/// the queue's tie bitset holds.
Instance wide_ties(core::Rng& rng) {
  Instance inst;
  constexpr std::uint32_t kLayer = 2500;
  inst.nodes = 2 + 2 * kLayer;
  inst.source = 0;
  inst.sink = 1;
  for (std::uint32_t i = 0; i < kLayer; ++i) {
    inst.arcs.push_back({0, 2 + i, rng.range(0, 2), 0.0});
    for (int k = 0; k < 2; ++k) {
      const auto j = static_cast<std::uint32_t>(rng.range(0, kLayer - 1));
      inst.arcs.push_back({2 + i, 2 + kLayer + j, rng.range(1, 3),
                           static_cast<double>(rng.range(0, 1))});
    }
    inst.arcs.push_back({2 + kLayer + i, 1, rng.range(0, 2), static_cast<double>(rng.range(0, 1))});
  }
  inst.target = rng.range(1, 40);
  return inst;
}

/// A random DAG (arcs only from lower to higher node ids) with integer costs
/// in [-4, 6]: Bellman-Ford seeds the potentials through negative arcs.
Instance negative_dag(core::Rng& rng) {
  Instance inst;
  inst.nodes = static_cast<std::uint32_t>(rng.range(2, 30));
  inst.source = 0;
  inst.sink = inst.nodes - 1;
  const auto arcs = rng.range(1, 4 * static_cast<std::int64_t>(inst.nodes));
  for (std::int64_t k = 0; k < arcs; ++k) {
    auto a = static_cast<std::uint32_t>(rng.range(0, inst.nodes - 1));
    auto b = static_cast<std::uint32_t>(rng.range(0, inst.nodes - 1));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    inst.arcs.push_back({a, b, rng.range(0, 12), static_cast<double>(rng.range(-4, 6))});
  }
  inst.target = rng.range(1, 60);
  return inst;
}

/// A general digraph with cycles, parallel and antiparallel arcs. Costs are
/// reduced-cost shifted (base >= 0 plus phi(from) - phi(to)), so some arcs
/// are negative yet no cycle is.
Instance general_digraph(core::Rng& rng) {
  Instance inst;
  inst.nodes = static_cast<std::uint32_t>(rng.range(2, 40));
  inst.source = static_cast<std::uint32_t>(rng.range(0, inst.nodes - 1));
  do {
    inst.sink = static_cast<std::uint32_t>(rng.range(0, inst.nodes - 1));
  } while (inst.sink == inst.source);
  std::vector<std::int64_t> phi(inst.nodes);
  const bool shifted = rng.chance(0.5);
  for (auto& p : phi) p = shifted ? rng.range(-3, 3) : 0;
  const auto arcs = rng.range(1, 5 * static_cast<std::int64_t>(inst.nodes));
  for (std::int64_t k = 0; k < arcs; ++k) {
    const auto a = static_cast<std::uint32_t>(rng.range(0, inst.nodes - 1));
    const auto b = static_cast<std::uint32_t>(rng.range(0, inst.nodes - 1));
    if (a == b) continue;
    const std::int64_t base = rng.range(0, 4);
    inst.arcs.push_back({a, b, rng.range(0, 9), static_cast<double>(base + phi[a] - phi[b])});
  }
  inst.target = rng.range(1, 80);
  return inst;
}

/// Solves `inst` with both solvers; returns "" when they agree bit for bit,
/// else what differed.
std::string differ(const Instance& inst) {
  MinCostFlowGraph fast;
  ExhaustiveSsp reference;
  for (std::uint32_t v = 0; v < inst.nodes; ++v) {
    fast.add_node();
    reference.add_node();
  }
  std::vector<MinCostFlowGraph::ArcRef> fast_arcs;
  std::vector<std::size_t> reference_arcs;
  for (const Arc& a : inst.arcs) {
    fast_arcs.push_back(fast.add_arc(a.from, a.to, a.capacity, a.cost));
    reference_arcs.push_back(reference.add_arc(a.from, a.to, a.capacity, a.cost));
  }
  const auto got = fast.solve(inst.source, inst.sink, inst.target);
  const auto want = reference.solve(inst.source, inst.sink, inst.target);
  if (got.flow != want.flow) {
    return "flow " + std::to_string(got.flow) + " vs " + std::to_string(want.flow);
  }
  if (std::bit_cast<std::uint64_t>(got.cost) != std::bit_cast<std::uint64_t>(want.cost)) {
    return "cost " + std::to_string(got.cost) + " vs " + std::to_string(want.cost);
  }
  if (got.reached_target != want.reached_target) return "reached_target";
  for (std::size_t i = 0; i < inst.arcs.size(); ++i) {
    if (fast.flow_on(fast_arcs[i]) != reference.flow_on(reference_arcs[i])) {
      return "flow on arc " + std::to_string(i);
    }
  }
  return "";
}

void expect_identical(Instance (*make)(core::Rng&), std::uint64_t seed, int count) {
  core::Rng rng{seed};
  int mismatches = 0;
  for (int i = 0; i < count; ++i) {
    const Instance inst = make(rng);
    const std::string why = differ(inst);
    if (!why.empty() && ++mismatches <= 5) {
      ADD_FAILURE() << "instance " << i << " (" << inst.nodes << " nodes, "
                    << inst.arcs.size() << " arcs): " << why;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << count << " instances";
}

TEST(McfDifferential, BrokerShapedContinuousCosts) {
  expect_identical([](core::Rng& rng) { return broker_shaped(rng, CostKind::kContinuous); },
                   0x5eed01, 3000);
}

TEST(McfDifferential, BrokerShapedTiedIntegerCosts) {
  expect_identical([](core::Rng& rng) { return broker_shaped(rng, CostKind::kTies); },
                   0x5eed02, 3000);
}

TEST(McfDifferential, BrokerScaleMultiWordBlocks) {
  expect_identical(broker_scale, 0x5eed06, 120);
}

TEST(McfDifferential, WideTiesAcrossThousandsOfNodes) {
  expect_identical(wide_ties, 0x5eed07, 6);
}

TEST(McfDifferential, DagWithNegativeArcs) { expect_identical(negative_dag, 0x5eed03, 2500); }

TEST(McfDifferential, GeneralDigraphs) { expect_identical(general_digraph, 0x5eed04, 2500); }

/// A random assignment problem: per-group bitrate shared by its options,
/// fractional or integral counts, continuous or tied costs, some
/// uncapacitated options, and capacities from starved to ample.
AssignmentProblem random_assignment(core::Rng& rng) {
  AssignmentProblem p;
  const auto groups = rng.range(1, 16);
  const auto resources = rng.range(0, 6);
  const bool ties = rng.chance(0.5);
  for (std::int64_t r = 0; r < resources; ++r) p.capacities.push_back(rng.uniform(0.0, 60.0));
  for (std::int64_t g = 0; g < groups; ++g) {
    const bool integral = rng.chance(0.5);
    p.group_counts.push_back(integral ? static_cast<double>(rng.range(0, 30))
                                      : rng.uniform(0.0, 30.0));
    const double bitrate = rng.chance(0.5) ? 1.0 : rng.uniform(0.3, 4.0);
    const auto options = rng.range(1, resources + 2);
    for (std::int64_t k = 0; k < options; ++k) {
      Option o;
      o.group = static_cast<std::uint32_t>(g);
      const auto r = rng.range(0, resources);
      o.resource = r == resources ? kNoResource : static_cast<std::uint32_t>(r);
      o.unit_cost = ties ? static_cast<double>(rng.range(0, 3)) : rng.uniform(0.0, 8.0);
      o.unit_demand = bitrate;
      p.options.push_back(o);
    }
  }
  return p;
}

TEST(McfDifferential, AssignmentAmountsBitIdentical) {
  core::Rng rng{0x5eed05};
  int mismatches = 0;
  constexpr int kProblems = 1500;
  for (int i = 0; i < kProblems; ++i) {
    const AssignmentProblem problem = random_assignment(rng);
    const double penalty = rng.chance(0.5) ? 10.0 : rng.uniform(1.0, 20.0);
    const Assignment got = solve_assignment_mcf(problem, penalty);
    const Assignment want = reference_assignment(problem, penalty);
    ASSERT_EQ(got.amounts.size(), want.amounts.size());
    bool same = true;
    for (std::size_t k = 0; k < got.amounts.size(); ++k) {
      same = same && std::bit_cast<std::uint64_t>(got.amounts[k]) ==
                         std::bit_cast<std::uint64_t>(want.amounts[k]);
    }
    if (!same && ++mismatches <= 5) ADD_FAILURE() << "assignment problem " << i;
  }
  EXPECT_EQ(mismatches, 0) << "of " << kProblems << " problems";
}

}  // namespace
}  // namespace vdx::solver
