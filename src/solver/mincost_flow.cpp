#include "solver/mincost_flow.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>

namespace vdx::solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRelaxSlack = 1e-12;  // a relaxation must gain more than this

}  // namespace

MinCostFlowGraph::NodeId MinCostFlowGraph::add_node() {
  head_.push_back(SIZE_MAX);
  return static_cast<NodeId>(head_.size() - 1);
}

MinCostFlowGraph::ArcRef MinCostFlowGraph::add_arc(NodeId from, NodeId to,
                                                   std::int64_t capacity, double cost) {
  if (from >= head_.size() || to >= head_.size()) {
    throw std::invalid_argument{"MinCostFlowGraph::add_arc: unknown node"};
  }
  if (capacity < 0) throw std::invalid_argument{"MinCostFlowGraph::add_arc: capacity < 0"};
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
  csr_arc_count_ = SIZE_MAX;  // adjacency changed; rebuild on next solve
  return ArcRef{index};
}

std::int64_t MinCostFlowGraph::flow_on(ArcRef arc) const {
  if (arc.index >= arc_to_.size()) throw std::out_of_range{"flow_on: bad arc"};
  if (csr_arc_count_ != arc_to_.size() || residual_.empty()) return 0;  // no solve yet
  // Flow on the forward arc equals the residual capacity of its twin.
  return residual_[pos_of_arc_[arc.index ^ 1]];
}

void MinCostFlowGraph::build_csr() {
  if (csr_arc_count_ == arc_to_.size()) return;
  const std::size_t nodes = head_.size();
  const std::size_t arcs = arc_to_.size();
  csr_start_.assign(nodes + 1, 0);
  csr_arcs_.resize(arcs);
  csr_twin_.resize(arcs);
  pos_of_arc_.resize(arcs);
  csr_cap_init_.resize(arcs);

  // Pass 1: lay arcs out per node by walking the newest-first chains, which
  // is the exact order the list-based relax loop visited them.
  std::uint32_t pos = 0;
  for (std::size_t u = 0; u < nodes; ++u) {
    csr_start_[u] = pos;
    for (std::size_t e = head_[u]; e != SIZE_MAX; e = arc_next_[e]) {
      pos_of_arc_[e] = pos++;
    }
  }
  csr_start_[nodes] = pos;

  // Pass 2: fill the permuted arrays (twin positions need pass 1 complete).
  for (std::size_t e = 0; e < arcs; ++e) {
    const std::uint32_t p = pos_of_arc_[e];
    csr_arcs_[p] = CsrArc{arc_cost_[e], arc_to_[e]};
    csr_twin_[p] = pos_of_arc_[e ^ 1];
    csr_cap_init_[p] = initial_capacity_[e];
  }

  dist_.resize(nodes);
  parent_pos_.resize(nodes);
  std::uint32_t degree = 0;
  for (std::size_t u = 0; u < nodes; ++u) {
    degree = std::max(degree, csr_start_[u + 1] - csr_start_[u]);
  }
  hit_pos_.resize(degree + 1);
  hit_dist_.resize(degree + 1);
  active_.resize((arcs + 63) / 64);
  csr_arc_count_ = arcs;
}

bool MinCostFlowGraph::bellman_ford_potentials(NodeId source,
                                               std::vector<double>& pot) const {
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
    const std::uint32_t begin = csr_start_[u];
    const std::uint32_t end = csr_start_[u + 1];
    for (std::uint32_t p = begin; p < end; ++p) {
      if (residual_[p] <= 0) continue;
      const double candidate = pot[u] + csr_arcs_[p].cost;
      const NodeId to = csr_arcs_[p].to;
      if (candidate < pot[to] - kRelaxSlack) {
        pot[to] = candidate;
        if (!in_queue[to]) {
          if (++relaxations[to] > head_.size() + 1) return false;  // negative cycle
          in_queue[to] = 1;
          queue.push_back(to);
        }
      }
    }
  }
  // Unreached nodes keep infinite potential; replace with 0 so reduced costs
  // stay finite (those nodes are unusable anyway).
  for (auto& p : pot) {
    if (p == kInf) p = 0.0;
  }
  return true;
}

void MinCostFlowGraph::RadixQueue::reset(std::size_t nodes) {
  last_ = 0;
  size_ = 0;
  occupied_ = 0;
  for (auto& bucket : buckets_) bucket.clear();
  tie_words_.assign((nodes + 63) / 64, 0);
  tie_summary_.assign((tie_words_.size() + 63) / 64, 0);
  key_.resize(nodes);
  bucket_.assign(nodes, kAbsent);
  slot_.resize(nodes);
}

unsigned MinCostFlowGraph::RadixQueue::bucket_of_key(std::uint64_t key) const noexcept {
  // Bucket b > 0 holds keys whose highest bit differing from last_ is b - 1.
  return key == last_ ? 0u : 64u - static_cast<unsigned>(std::countl_zero(key ^ last_));
}

void MinCostFlowGraph::RadixQueue::insert(NodeId node, unsigned bucket) {
  bucket_[node] = static_cast<std::uint8_t>(bucket);
  if (bucket == 0) {
    tie_words_[node >> 6] |= std::uint64_t{1} << (node & 63);
    tie_summary_[node >> 12] |= std::uint64_t{1} << ((node >> 6) & 63);
    ++ties_;
    return;
  }
  slot_[node] = static_cast<std::uint32_t>(buckets_[bucket].size());
  buckets_[bucket].push_back(node);
  occupied_ |= std::uint64_t{1} << (bucket - 1);
}

void MinCostFlowGraph::RadixQueue::push_or_decrease(NodeId node, double dist) {
  const auto key = std::bit_cast<std::uint64_t>(dist);
  const unsigned bucket = bucket_of_key(key);
  key_[node] = key;
  const std::uint8_t old = bucket_[node];
  if (old == bucket) return;
  if (old == kAbsent) {
    ++size_;
  } else {
    // Swap-remove from the old bucket; a lower key never leaves bucket 0.
    std::vector<NodeId>& from = buckets_[old];
    const NodeId moved = from.back();
    from[slot_[node]] = moved;
    slot_[moved] = slot_[node];
    from.pop_back();
    if (from.empty()) occupied_ &= ~(std::uint64_t{1} << (old - 1));
  }
  insert(node, bucket);
}

MinCostFlowGraph::NodeId MinCostFlowGraph::RadixQueue::pop_min() {
  if (ties_ == 0) {
    // Advance last_ to the smallest key of the first non-empty bucket and
    // spread that bucket over the lower ones.
    const unsigned bucket = 1u + static_cast<unsigned>(std::countr_zero(occupied_));
    std::vector<NodeId> spill;
    spill.swap(buckets_[bucket]);
    occupied_ &= ~(std::uint64_t{1} << (bucket - 1));
    std::uint64_t least = key_[spill.front()];
    for (const NodeId node : spill) least = std::min(least, key_[node]);
    last_ = least;
    for (const NodeId node : spill) insert(node, bucket_of_key(key_[node]));
    spill.clear();
    spill.swap(buckets_[bucket]);  // keep the capacity
  }
  // The smallest tied node id: first set bit under the first set summary bit.
  std::size_t group = 0;
  while (tie_summary_[group] == 0) ++group;
  const std::size_t word =
      group * 64 + static_cast<std::size_t>(std::countr_zero(tie_summary_[group]));
  const auto bit = static_cast<unsigned>(std::countr_zero(tie_words_[word]));
  const auto node = static_cast<NodeId>(word * 64 + bit);
  tie_words_[word] &= tie_words_[word] - 1;
  if (tie_words_[word] == 0) tie_summary_[group] &= tie_summary_[group] - 1;
  --ties_;
  bucket_[node] = kAbsent;
  --size_;
  return node;
}

void MinCostFlowGraph::set_residual(std::uint32_t pos, std::int64_t value) {
  residual_[pos] = value;
  const std::uint64_t bit = std::uint64_t{1} << (pos & 63);
  if (value > 0) {
    active_[pos >> 6] |= bit;
  } else {
    active_[pos >> 6] &= ~bit;
  }
}

void MinCostFlowGraph::relax(NodeId u, const std::vector<double>& pot) {
  const double du = dist_[u];
  const double pu = pot[u];
  const std::uint32_t begin = csr_start_[u];
  const std::uint32_t end = csr_start_[u + 1];
  if (begin == end) return;
  // Pass one scores every arc with capacity left against the distances as
  // they stand, without branching on the outcome. Pass two applies the arcs
  // that passed, in CSR order, re-testing each against the current distance:
  // an earlier arc of the block may have lowered it. An arc that failed pass
  // one would fail against any lower distance too, so the outcome is that of
  // a single pass relaxing arc by arc.
  std::uint32_t hits = 0;
  const std::uint32_t first_word = begin >> 6;
  const std::uint32_t last_word = (end - 1) >> 6;
  for (std::uint32_t word = first_word; word <= last_word; ++word) {
    std::uint64_t bits = active_[word];
    if (word == first_word) bits &= ~std::uint64_t{0} << (begin & 63);
    if (word == last_word) bits &= ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
    while (bits != 0) {
      const std::uint32_t p =
          (word << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const NodeId to = csr_arcs_[p].to;
      const double reduced = csr_arcs_[p].cost + pu - pot[to];
      const double candidate = du + std::max(0.0, reduced);
      hit_pos_[hits] = p;
      hit_dist_[hits] = candidate;
      hits += candidate < dist_[to] - kRelaxSlack ? 1u : 0u;
    }
  }
  for (std::uint32_t i = 0; i < hits; ++i) {
    const std::uint32_t p = hit_pos_[i];
    const NodeId to = csr_arcs_[p].to;
    const double candidate = hit_dist_[i];
    if (candidate < dist_[to] - kRelaxSlack) {
      dist_[to] = candidate;
      parent_pos_[to] = p;
      queue_.push_or_decrease(to, candidate);
    }
  }
}

MinCostFlowGraph::FlowResult MinCostFlowGraph::solve(NodeId source, NodeId sink,
                                                     std::int64_t target_flow) {
  if (source >= head_.size() || sink >= head_.size()) {
    throw std::invalid_argument{"MinCostFlowGraph::solve: unknown node"};
  }
  build_csr();
  // Reset residual capacities (and the active-arc bits) from any prior run.
  residual_ = csr_cap_init_;
  for (std::uint32_t p = 0; p < residual_.size(); ++p) set_residual(p, residual_[p]);

  FlowResult result;
  if (target_flow <= 0) {
    result.reached_target = true;
    return result;
  }

  std::vector<double> pot;
  if (!bellman_ford_potentials(source, pot)) {
    throw std::runtime_error{"MinCostFlowGraph: negative cycle in costs"};
  }

  const std::size_t nodes = head_.size();

  while (result.flow < target_flow) {
    // Dijkstra on reduced costs. Each reached node pops exactly once, in
    // increasing (dist, node) order, and relaxes the arcs of its CSR block
    // that have residual capacity, in block order.
    std::fill(dist_.begin(), dist_.end(), kInf);
    std::fill(parent_pos_.begin(), parent_pos_.end(), kNoPos);
    queue_.reset(nodes);
    dist_[source] = 0.0;
    queue_.push_or_decrease(source, 0.0);
    while (!queue_.empty()) relax(queue_.pop_min(), pot);
    if (dist_[sink] == kInf) break;  // no augmenting path left

    for (std::size_t v = 0; v < nodes; ++v) {
      if (dist_[v] < kInf) pot[v] += dist_[v];
    }

    // Bottleneck along the path.
    std::int64_t push = target_flow - result.flow;
    for (NodeId v = sink; v != source;) {
      const std::uint32_t p = parent_pos_[v];
      push = std::min(push, residual_[p]);
      v = csr_arcs_[csr_twin_[p]].to;
    }
    for (NodeId v = sink; v != source;) {
      const std::uint32_t p = parent_pos_[v];
      const std::uint32_t twin = csr_twin_[p];
      set_residual(p, residual_[p] - push);
      set_residual(twin, residual_[twin] + push);
      result.cost += static_cast<double>(push) * csr_arcs_[p].cost;
      v = csr_arcs_[twin].to;
    }
    result.flow += push;
  }
  result.reached_target = result.flow >= target_flow;
  return result;
}

Assignment solve_assignment_mcf(const AssignmentProblem& problem, double overflow_penalty,
                                std::int64_t demand_scale) {
  problem.validate();
  if (demand_scale <= 0) throw std::invalid_argument{"demand_scale must be > 0"};

  // Per-group uniform demand requirement (transportation structure).
  std::vector<double> group_demand(problem.group_count(), -1.0);
  for (const Option& o : problem.options) {
    const double d = o.unit_demand;
    if (group_demand[o.group] < 0.0) {
      group_demand[o.group] = d;
    } else if (std::abs(group_demand[o.group] - d) > 1e-9 * std::max(1.0, d)) {
      throw std::invalid_argument{
          "solve_assignment_mcf: options of a group must share unit_demand"};
    }
  }

  MinCostFlowGraph graph;
  const auto source = graph.add_node();
  const auto sink = graph.add_node();
  std::vector<MinCostFlowGraph::NodeId> group_node(problem.group_count());
  std::vector<MinCostFlowGraph::NodeId> resource_node(problem.resource_count());
  for (auto& n : group_node) n = graph.add_node();
  for (auto& n : resource_node) n = graph.add_node();

  const auto scale_demand = [&](double demand) {
    return static_cast<std::int64_t>(
        std::llround(demand * static_cast<double>(demand_scale)));
  };

  // Source -> group arcs carry the group's total demand.
  std::int64_t total_supply = 0;
  std::vector<std::int64_t> supply(problem.group_count(), 0);
  for (std::size_t g = 0; g < problem.group_count(); ++g) {
    if (problem.group_counts[g] <= 0.0) continue;
    const double d = group_demand[g] > 0.0 ? group_demand[g] : 1.0;
    supply[g] = scale_demand(problem.group_counts[g] * d);
    if (supply[g] <= 0) supply[g] = 1;  // keep tiny groups representable
    graph.add_arc(source, group_node[g], supply[g], 0.0);
    total_supply += supply[g];
  }

  // Option arcs: group -> resource (or straight to sink when uncapacitated).
  // Cost is per demand unit.
  std::vector<MinCostFlowGraph::ArcRef> option_arc(problem.options.size());
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    const Option& o = problem.options[i];
    const double d = o.unit_demand > 0.0 ? o.unit_demand : 1.0;
    // One client corresponds to d * demand_scale flow units; spreading the
    // per-client cost over them reproduces the objective exactly.
    const double cost_per_flow_unit =
        o.unit_cost / (d * static_cast<double>(demand_scale));
    const auto to = o.resource == kNoResource ? sink : resource_node[o.resource];
    option_arc[i] =
        graph.add_arc(group_node[o.group], to, supply[o.group], cost_per_flow_unit);
  }

  // Resource -> sink: capacity arc plus an overflow arc priced at the
  // penalty (per demand unit, i.e. penalty/demand_scale per flow unit).
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

  // Scaled-supply rounding can leave group totals a hair off the true count;
  // snap them back proportionally.
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

}  // namespace vdx::solver
