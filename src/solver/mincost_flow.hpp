// Min-cost flow by successive shortest paths with node potentials.
//
// The broker LP has pure transportation structure whenever every option of a
// group consumes the group's own bitrate — which is how the Share format
// groups clients — so min-cost flow solves the LP relaxation orders of
// magnitude faster than the tableau simplex at trace scale. The graph layer
// here is generic; assignment wiring lives in solve_assignment_mcf().
//
// Algorithm: Bellman-Ford seeds the potentials (costs may be negative). Each
// augmentation then runs Dijkstra on reduced costs over every reachable
// node, adds each reached node's distance to its potential, and pushes the
// bottleneck along the shortest source-sink path. The search is exhaustive on
// purpose: near-ties between equal-cost paths are broken by the rounding in
// the potentials, so any shortcut that changes a potential (stopping at the
// sink, warm starts) can move a client between equal-cost clusters.
//
// Determinism: a node's CSR block lists its arcs newest first, nodes pop in
// the strict total order (dist, node), and a relaxation must gain more than
// a fixed slack. Together these fix every parent choice, so the flow on every
// arc is a pure function of the arcs in insertion order. Any exact priority
// queue under that order pops the same sequence, so the queue's internals
// (a radix queue here) cannot move a tie-break.
//
// Data layout: arcs are recorded append-only as flat parallel arrays, then
// compacted into a CSR image on the first solve. An active-arc bitmap marks
// the arcs with residual capacity, so the relax loop skips saturated arcs and
// unused residual twins a word at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "solver/problem.hpp"

namespace vdx::solver {

/// Directed graph with integer capacities and real per-unit costs.
/// Supports negative costs (Bellman-Ford bootstraps the potentials).
class MinCostFlowGraph {
 public:
  using NodeId = std::uint32_t;

  struct ArcRef {
    std::size_t index = 0;
  };

  NodeId add_node();
  [[nodiscard]] std::size_t node_count() const noexcept { return head_.size(); }

  /// Adds a forward arc (and its residual twin). Capacity must be >= 0.
  ArcRef add_arc(NodeId from, NodeId to, std::int64_t capacity, double cost);

  struct FlowResult {
    std::int64_t flow = 0;
    double cost = 0.0;
    bool reached_target = false;  // pushed the full target_flow
  };

  /// Sends up to `target_flow` units from source to sink at minimum cost.
  /// Resets any flow from a previous solve.
  FlowResult solve(NodeId source, NodeId sink, std::int64_t target_flow);

  /// Flow currently on a forward arc (after solve()).
  [[nodiscard]] std::int64_t flow_on(ArcRef arc) const;

 private:
  static constexpr std::uint32_t kNoPos = UINT32_MAX;

  [[nodiscard]] bool bellman_ford_potentials(NodeId source,
                                             std::vector<double>& pot) const;
  void build_csr();
  /// Writes a residual capacity and keeps its active-arc bit in step.
  void set_residual(std::uint32_t pos, std::int64_t value);
  /// Relaxes, in CSR order, the arcs with residual capacity out of a node
  /// just popped.
  void relax(NodeId u, const std::vector<double>& pot);

  /// Exact min-priority queue on (dist, node) for Dijkstra's monotone keys:
  /// a radix heap over the bit patterns of non-negative doubles, which order
  /// like the values. Nodes tied at the current minimum distance wait in a
  /// bitset and pop lowest id first, so pops follow the strict (dist, node)
  /// order. Broker graphs settle hundreds of nodes at a handful of distinct
  /// distances, so most pops are a find-first-set.
  class RadixQueue {
   public:
    void reset(std::size_t nodes);
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    /// Inserts `node`, or lowers its key; `dist` is never below the last pop.
    void push_or_decrease(NodeId node, double dist);
    NodeId pop_min();

   private:
    static constexpr std::uint8_t kAbsent = 0xff;
    [[nodiscard]] unsigned bucket_of_key(std::uint64_t key) const noexcept;
    void insert(NodeId node, unsigned bucket);

    std::uint64_t last_ = 0;  // key of the last pop
    std::size_t size_ = 0;
    std::uint64_t occupied_ = 0;  // bit b - 1 set iff buckets_[b] is non-empty
    std::vector<NodeId> buckets_[65];  // [0] unused: ties_ holds key == last_
    // Nodes keyed exactly last_, as a two-level bitset over node ids.
    std::size_t ties_ = 0;
    std::vector<std::uint64_t> tie_words_;
    std::vector<std::uint64_t> tie_summary_;
    std::vector<std::uint64_t> key_;
    std::vector<std::uint8_t> bucket_;
    std::vector<std::uint32_t> slot_;
  };

  // Append-side arc storage (twin arcs at (2k, 2k+1)). `arc_next_` chains a
  // node's arcs newest-first — the iteration order the solver's tie-breaking
  // is pinned to.
  std::vector<std::size_t> head_;  // first arc per node
  std::vector<NodeId> arc_to_;
  std::vector<double> arc_cost_;
  std::vector<std::size_t> arc_next_;
  std::vector<std::int64_t> initial_capacity_;

  // CSR image (built lazily on solve, invalidated by add_arc). Residual
  // capacities live in csr order so the relax loop touches one contiguous
  // block per node.
  struct CsrArc {
    double cost = 0.0;
    NodeId to = 0;
  };
  std::size_t csr_arc_count_ = SIZE_MAX;
  std::vector<std::uint32_t> csr_start_;   // node -> first csr position
  std::vector<CsrArc> csr_arcs_;
  std::vector<std::uint32_t> csr_twin_;    // csr position of the twin arc
  std::vector<std::uint32_t> pos_of_arc_;  // arc index -> csr position
  std::vector<std::int64_t> csr_cap_init_;
  std::vector<std::int64_t> residual_;
  // Bit p is set iff residual_[p] > 0, so the relax loop walks only arcs
  // with capacity left, still in CSR order.
  std::vector<std::uint64_t> active_;

  // Dijkstra workspace, reused across augmentations (no per-iteration
  // allocation).
  std::vector<double> dist_;
  std::vector<std::uint32_t> parent_pos_;
  // relax() scratch, one slot per arc of the largest CSR block.
  std::vector<std::uint32_t> hit_pos_;
  std::vector<double> hit_dist_;
  RadixQueue queue_;
};

/// Solves the assignment LP via min-cost flow. Requires every option of a
/// group to have the same unit_demand (throws otherwise). Demands are scaled
/// to integers with `demand_scale`; the returned amounts are client counts.
/// `overflow_penalty` prices demand above capacity (per demand unit).
[[nodiscard]] Assignment solve_assignment_mcf(const AssignmentProblem& problem,
                                              double overflow_penalty,
                                              std::int64_t demand_scale = 1000);

}  // namespace vdx::solver
