#include "market/federation.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "cdn/menu_cache.hpp"
#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "sim/designs.hpp"

namespace vdx::market {

std::vector<geo::CityId> pick_region_seeds(const geo::World& world,
                                           std::size_t count) {
  if (world.cities().empty()) {
    throw std::invalid_argument{"pick_region_seeds: world has no cities"};
  }
  // Seeds must be distinct cities; asking for more regions than cities would
  // otherwise duplicate the farthest city forever.
  count = std::min(count, world.cities().size());

  std::vector<geo::CityId> seeds;
  std::vector<char> chosen(world.cities().size(), 0);
  geo::CityId best = world.cities().front().id;
  double best_weight = -1.0;
  for (const geo::City& city : world.cities()) {
    if (city.demand_weight > best_weight) {
      best_weight = city.demand_weight;
      best = city.id;
    }
  }
  seeds.push_back(best);
  chosen[best.value()] = 1;
  while (seeds.size() < count) {
    geo::CityId farthest = seeds.front();
    double farthest_distance = -1.0;
    for (const geo::City& city : world.cities()) {
      if (chosen[city.id.value()] != 0) continue;
      double nearest = std::numeric_limits<double>::infinity();
      for (const geo::CityId seed : seeds) {
        nearest = std::min(nearest, world.distance_km(city.id, seed));
      }
      if (nearest > farthest_distance) {
        farthest_distance = nearest;
        farthest = city.id;
      }
    }
    seeds.push_back(farthest);
    chosen[farthest.value()] = 1;
  }
  return seeds;
}

namespace {

/// Appends `group`'s bids built from the shared menu cache. With a region
/// filter, only clusters whose city belongs to `region` participate (the
/// regional exchange); without one, every cluster does (the global fallback).
/// Both the in-region and fallback paths flow through this single helper so
/// bid construction cannot drift between them. Returns the appended count.
std::size_t append_group_bids(std::vector<broker::BidView>& bids,
                              const cdn::CdnCatalog& catalog,
                              const cdn::CandidateMenuCache& menus,
                              std::span<const double> background,
                              const broker::ClientGroup& group,
                              const std::vector<std::size_t>* region_of_city,
                              std::size_t region) {
  std::size_t appended = 0;
  cdn::SweepBuffer sweep;
  for (const cdn::Cdn& cdn_entry : catalog.cdns()) {
    const cdn::MenuLanes lanes = menus.lanes(cdn_entry.id, group.city);
    cdn::score_sweep(lanes, cdn_entry.markup, background, sweep);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const cdn::ClusterId cluster{lanes.cluster[i]};
      if (region_of_city != nullptr &&
          (*region_of_city)[catalog.cluster(cluster).city.value()] != region) {
        continue;
      }
      broker::BidView bid;
      bid.share = group.id;
      bid.cdn = cdn_entry.id;
      bid.cluster = cluster;
      bid.score = lanes.score[i];
      bid.price = sweep.price[i];
      bid.capacity = sweep.spare[i];
      bids.push_back(bid);
      ++appended;
    }
  }
  return appended;
}

/// Everything one region solve produces; merged by the coordinator in region
/// order so the combined outcome is identical at any thread count.
struct RegionOutcome {
  std::vector<sim::Placement> placements;
  double fallback_clients = 0.0;
  std::size_t fallback_bids = 0;
  std::size_t instance_options = 0;
};

}  // namespace

FederationResult run_federated_marketplace(const sim::Scenario& scenario,
                                           const FederationConfig& config) {
  if (config.region_count == 0) {
    throw std::invalid_argument{"FederationConfig: region_count must be > 0"};
  }
  const auto& world = scenario.world();
  const auto& catalog = scenario.catalog();
  const auto& mapping = scenario.mapping();

  FederationResult result;

  // Optimize wall time flows through the registry (satellite: no hand-rolled
  // steady_clock blocks). Without an external registry, a local one keeps the
  // ScopedTimer/readback path identical.
  obs::MetricsRegistry local_metrics;
  obs::Observer obs = config.obs;
  if (obs.metrics == nullptr) obs.metrics = &local_metrics;
  const obs::Histogram optimize_hist =
      obs.metrics->histogram("federation.optimize_seconds");
  const obs::Counter region_solves = obs.metrics->counter("federation.region_solves");
  const obs::Counter fallback_clients =
      obs.metrics->counter("federation.fallback_clients");
  const obs::Counter fallback_bids = obs.metrics->counter("federation.fallback_bids");
  const double optimize_sum_before = optimize_hist.sum();

  // ---- Partition cities across regional exchanges. ----
  const auto seeds = pick_region_seeds(world, config.region_count);
  const std::size_t regions = seeds.size();  // requested count, clamped
  result.region_count = regions;
  std::vector<std::size_t> region_of_city(world.cities().size());
  result.region_city_counts.assign(regions, 0);
  for (const geo::City& city : world.cities()) {
    std::size_t best = 0;
    double best_distance = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < regions; ++r) {
      const double d = world.distance_km(city.id, seeds[r]);
      if (d < best_distance) {
        best_distance = d;
        best = r;
      }
    }
    region_of_city[city.id.value()] = best;
    ++result.region_city_counts[best];
  }

  const auto background = sim::place_background(scenario);
  const auto groups = scenario.broker_groups();
  std::vector<std::size_t> group_of_share(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    group_of_share[groups[g].id.value()] = g;
  }

  cdn::MatchingConfig matching;
  matching.max_candidates = config.run.bid_count;
  matching.score_tolerance = config.run.menu_tolerance;

  core::ThreadPool pool{core::ThreadPool::resolve(config.threads)};

  // Every region asks every CDN for menus over the same config: build them
  // once, share read-only across region solves.
  const cdn::CandidateMenuCache menus{catalog, mapping, world.cities().size(),
                                      matching, &pool};

  sim::DesignOutcome combined;
  combined.design = sim::Design::kMarketplace;
  combined.background_loads = background;
  combined.cluster_loads = background;

  // ---- One Marketplace optimization per region (parallel across regions).
  // Worker threads observe only into the thread-safe metrics registry; the
  // journal and tracer are fed by this (coordinating) thread after the join,
  // in region order, so those exports stay byte-stable at any thread count.
  obs::Observer worker_obs;
  worker_obs.metrics = obs.metrics;

  const auto solve_region = [&](std::size_t region) -> RegionOutcome {
    RegionOutcome out;
    std::vector<broker::ClientGroup> region_groups;
    for (const broker::ClientGroup& g : groups) {
      if (region_of_city[g.city.value()] == region) region_groups.push_back(g);
    }
    if (region_groups.empty()) return out;

    std::vector<broker::BidView> bids;
    for (const broker::ClientGroup& group : region_groups) {
      const std::size_t in_region = append_group_bids(
          bids, catalog, menus, background, group, &region_of_city, region);
      if (in_region == 0) {
        // No in-region menu for this group: global fallback (the client is
        // handed to the global exchange rather than dropped).
        out.fallback_clients += group.client_count;
        out.fallback_bids +=
            append_group_bids(bids, catalog, menus, background, group, nullptr, 0);
      }
    }
    out.instance_options = bids.size();

    broker::OptimizerConfig optimizer;
    optimizer.weights = config.run.weights;
    optimizer.solve = config.run.solve;
    optimizer.obs = worker_obs;
    broker::OptimizeResult solved;
    {
      const obs::ScopedTimer timer{optimize_hist};
      solved = broker::optimize(region_groups, bids, optimizer);
    }
    region_solves.add();

    for (const broker::Allocation& allocation : solved.allocations) {
      const broker::BidView& bid = bids[allocation.bid_index];
      sim::Placement placement;
      placement.group = group_of_share[bid.share.value()];
      placement.cluster = bid.cluster;
      placement.clients = allocation.clients;
      placement.price = bid.price;
      placement.score =
          mapping.score(groups[placement.group].city, bid.cluster.value());
      out.placements.push_back(placement);
    }
    return out;
  };

  const auto outcomes = core::parallel_map(pool, regions, solve_region);

  for (std::size_t region = 0; region < outcomes.size(); ++region) {
    const RegionOutcome& out = outcomes[region];
    obs.instant("federation.region");
    obs.record(obs::EventKind::kSolve, static_cast<std::uint32_t>(region),
               static_cast<double>(out.instance_options));
    result.fallback_clients += out.fallback_clients;
    result.fallback_bids += out.fallback_bids;
    result.largest_instance_options =
        std::max(result.largest_instance_options, out.instance_options);
    for (const sim::Placement& placement : out.placements) {
      combined.cluster_loads[placement.cluster.value()] +=
          placement.clients * groups[placement.group].bitrate_mbps;
      combined.placements.push_back(placement);
    }
  }

  // Read back from the registry: the histogram is the source of truth.
  result.optimize_seconds = optimize_hist.sum() - optimize_sum_before;
  fallback_clients.add(result.fallback_clients);
  fallback_bids.add(static_cast<double>(result.fallback_bids));

  result.metrics = sim::compute_metrics(scenario, combined);
  return result;
}

}  // namespace vdx::market
