// The Zipf sampler inverts its CDF through a guide table. It must return, for
// every uniform draw, exactly the rank std::lower_bound over the CDF returns:
// the trace generator's byte identity depends on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/distributions.hpp"
#include "core/rng.hpp"

namespace vdx::core {
namespace {

std::size_t lower_bound_rank(const ZipfDistribution& zipf, double u) {
  const auto cdf = zipf.cdf();
  return static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

/// Every CDF value, its neighbours on both sides, every bucket edge j / n,
/// and the ends of [0, 1].
std::vector<double> boundary_uniforms(const ZipfDistribution& zipf) {
  std::vector<double> u{0.0, std::nextafter(0.0, 1.0), std::nextafter(1.0, 0.0), 1.0};
  const auto n = static_cast<double>(zipf.size());
  for (const double c : zipf.cdf()) {
    u.push_back(c);
    u.push_back(std::nextafter(c, 0.0));
    u.push_back(std::min(1.0, std::nextafter(c, 2.0)));
  }
  for (std::size_t j = 0; j <= zipf.size(); ++j) {
    const double edge = static_cast<double>(j) / n;
    u.push_back(edge);
    u.push_back(std::nextafter(edge, 0.0));
    u.push_back(std::min(1.0, std::nextafter(edge, 2.0)));
  }
  return u;
}

void expect_boundaries_exact(std::size_t n, double exponent) {
  const ZipfDistribution zipf{n, exponent};
  std::size_t mismatches = 0;
  for (const double u : boundary_uniforms(zipf)) {
    if (zipf.rank_at(u) != lower_bound_rank(zipf, u) && ++mismatches <= 5) {
      ADD_FAILURE() << "n=" << n << " s=" << exponent << " u=" << u << ": "
                    << zipf.rank_at(u) << " vs " << lower_bound_rank(zipf, u);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ZipfExactness, MillionDrawsMatchLowerBoundOnSameStream) {
  // The generator's video (3000, 0.8) and AS (50, 1.1) samplers, plus a
  // steep and a flat one.
  const struct {
    std::size_t n;
    double exponent;
  } cases[] = {{3000, 0.8}, {50, 1.1}, {1000, 2.5}, {777, 0.0}};
  for (const auto& c : cases) {
    const ZipfDistribution zipf{c.n, c.exponent};
    Rng sampled{0xC0FFEE + c.n};
    Rng reference{0xC0FFEE + c.n};
    std::size_t mismatches = 0;
    constexpr int kDraws = 1'000'000;
    for (int i = 0; i < kDraws; ++i) {
      const std::size_t got = zipf(sampled);
      if (got != lower_bound_rank(zipf, reference.uniform())) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "n=" << c.n << " s=" << c.exponent;
  }
}

TEST(ZipfExactness, SingleRankAlwaysReturnsZero) {
  const ZipfDistribution zipf{1, 0.8};
  for (const double u : boundary_uniforms(zipf)) EXPECT_EQ(zipf.rank_at(u), 0u) << u;
  Rng rng{5};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(zipf(rng), 0u);
}

TEST(ZipfExactness, ZeroExponentBucketEdges) {
  // A flat CDF puts every cdf[k] on a bucket edge (k + 1) / n.
  for (const std::size_t n : {1u, 2u, 3u, 10u, 49u, 3000u}) expect_boundaries_exact(n, 0.0);
}

TEST(ZipfExactness, BoundaryUniformsAcrossShapes) {
  for (const std::size_t n : {2u, 3u, 7u, 100u, 3000u, 10007u}) {
    for (const double exponent : {0.3, 0.8, 1.0, 1.1, 2.5, 6.0}) {
      expect_boundaries_exact(n, exponent);
    }
  }
}

}  // namespace
}  // namespace vdx::core
