// Tests for src/geometry: subset enumeration, Weiszfeld geometric median,
// medoid, minimum enclosing balls, minimum-diameter subsets, planar convex
// geometry, and the exact 1-D/2-D safe areas of Definition 2.3.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "aggregation/hyperbox_rules.hpp"
#include "aggregation/registry.hpp"
#include "agreement/round_function.hpp"
#include "geometry/convex2d.hpp"
#include "geometry/enclosing_ball.hpp"
#include "geometry/medoid.hpp"
#include "geometry/min_diameter.hpp"
#include "geometry/safe_area.hpp"
#include "geometry/subsets.hpp"
#include "geometry/weiszfeld.hpp"
#include "linalg/gradient_batch.hpp"
#include "linalg/hyperbox.hpp"
#include "linalg/stats.hpp"
#include "linalg/workspace.hpp"
#include "support/weiszfeld_reference.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bcl {
namespace {

// --- subsets ---

TEST(Subsets, BinomialKnownValues) {
  EXPECT_EQ(binomial(10, 8), 45u);
  EXPECT_EQ(binomial(10, 0), 1u);
  EXPECT_EQ(binomial(10, 10), 1u);
  EXPECT_EQ(binomial(5, 7), 0u);
  EXPECT_EQ(binomial(52, 5), 2598960u);
}

TEST(Subsets, BinomialOverflowDetected) {
  EXPECT_THROW(binomial(100, 50), std::overflow_error);
}

TEST(Subsets, EnumerationCountMatchesBinomial) {
  std::size_t count = 0;
  for_each_combination(7, 3, [&](const std::vector<std::size_t>&) { ++count; });
  EXPECT_EQ(count, binomial(7, 3));
}

TEST(Subsets, EnumerationIsLexicographicAndSorted) {
  const auto combos = all_combinations(4, 2);
  ASSERT_EQ(combos.size(), 6u);
  EXPECT_EQ(combos.front(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(combos.back(), (std::vector<std::size_t>{2, 3}));
  for (std::size_t i = 1; i < combos.size(); ++i) {
    EXPECT_LT(combos[i - 1], combos[i]);
  }
}

TEST(Subsets, EnumerationUniqueSubsets) {
  const auto combos = all_combinations(8, 5);
  std::set<std::vector<std::size_t>> unique(combos.begin(), combos.end());
  EXPECT_EQ(unique.size(), combos.size());
}

TEST(Subsets, FullAndEmptySubsets) {
  EXPECT_EQ(all_combinations(3, 3).size(), 1u);
  EXPECT_EQ(all_combinations(3, 0).size(), 1u);
  EXPECT_TRUE(all_combinations(3, 4).empty());
}

TEST(Subsets, GatherPicksIndices) {
  const std::vector<int> v{10, 20, 30, 40};
  EXPECT_EQ(gather(v, {0, 3}), (std::vector<int>{10, 40}));
}

// --- Weiszfeld / geometric median ---

TEST(Weiszfeld, SinglePointIsItself) {
  const auto r = geometric_median({{3.0, 4.0}});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.point, (Vector{3.0, 4.0}));
}

TEST(Weiszfeld, TwoPointsReturnsMidpoint) {
  const auto r = geometric_median({{0.0, 0.0}, {2.0, 4.0}});
  EXPECT_EQ(r.point, (Vector{1.0, 2.0}));
}

TEST(Weiszfeld, EquilateralTriangleMedianIsCentroid) {
  const VectorList pts{{0.0, 0.0}, {1.0, 0.0}, {0.5, std::sqrt(3.0) / 2.0}};
  const auto r = geometric_median(pts);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(approx_equal(r.point, mean(pts), 1e-7));
}

TEST(Weiszfeld, SquareMedianIsCenter) {
  const VectorList pts{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  const auto r = geometric_median(pts);
  EXPECT_TRUE(approx_equal(r.point, {1.0, 1.0}, 1e-7));
}

TEST(Weiszfeld, CollinearOddPointsMedianIsMiddle) {
  const VectorList pts{{0.0}, {1.0}, {10.0}};
  const auto r = geometric_median(pts);
  EXPECT_NEAR(r.point[0], 1.0, 1e-7);
}

TEST(Weiszfeld, MajorityPropertyShortCircuits) {
  // 3 of 5 points coincide -> the majority point is the geometric median.
  const VectorList pts{{5.0, 5.0}, {5.0, 5.0}, {5.0, 5.0}, {0.0, 0.0},
                       {9.0, 1.0}};
  const auto r = geometric_median(pts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.point, (Vector{5.0, 5.0}));
}

TEST(Weiszfeld, ObtuseTriangleAnchorsAtVertex) {
  // If one vertex sees the other two at an angle >= 120 degrees, that
  // vertex IS the geometric median (classical Fermat point fact).
  const VectorList pts{{0.0, 0.0}, {10.0, 0.1}, {-10.0, 0.1}};
  const auto r = geometric_median(pts);
  EXPECT_TRUE(approx_equal(r.point, {0.0, 0.0}, 1e-6));
}

TEST(Weiszfeld, ObjectiveIsMinimalAgainstPerturbations) {
  Rng rng(5);
  VectorList pts;
  for (int i = 0; i < 9; ++i) {
    pts.push_back({rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0),
                   rng.uniform(-4.0, 4.0)});
  }
  const auto r = geometric_median(pts);
  ASSERT_TRUE(r.converged);
  const double obj = geometric_median_objective(pts, r.point);
  for (int trial = 0; trial < 30; ++trial) {
    Vector q = r.point;
    for (auto& x : q) x += rng.gaussian(0.0, 0.05);
    EXPECT_GE(geometric_median_objective(pts, q), obj - 1e-7);
  }
}

TEST(Weiszfeld, ConvergedObjectiveMatchesReportedObjective) {
  const VectorList pts{{0.0, 1.0}, {1.0, 0.0}, {-1.0, 0.0}, {0.0, -1.0}};
  const auto r = geometric_median(pts);
  EXPECT_NEAR(r.objective, geometric_median_objective(pts, r.point), 1e-12);
}

TEST(Weiszfeld, EmptyListThrows) {
  EXPECT_THROW(geometric_median({}), std::invalid_argument);
}

TEST(Weiszfeld, TranslationEquivariance) {
  Rng rng(6);
  VectorList pts;
  for (int i = 0; i < 7; ++i) {
    pts.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
  }
  const Vector shift{100.0, -50.0};
  VectorList shifted;
  for (const auto& p : pts) shifted.push_back(add(p, shift));
  const Vector m1 = geometric_median_point(pts);
  const Vector m2 = geometric_median_point(shifted);
  EXPECT_TRUE(approx_equal(add(m1, shift), m2, 1e-6));
}

TEST(Weiszfeld, HighDimensionalCross) {
  // Points at +-e_j in d dims: by symmetry the median is the origin.
  const std::size_t d = 16;
  VectorList pts;
  for (std::size_t j = 0; j < d; ++j) {
    pts.push_back(unit(d, j, 1.0));
    pts.push_back(unit(d, j, -1.0));
  }
  const auto r = geometric_median(pts);
  EXPECT_TRUE(approx_equal(r.point, zeros(d), 1e-7));
}

// --- bitwise oracle: the row-view kernel against the reference solver ---

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// point, iterations, converged and objective must all carry the
// reference's bits; geometric_median_point must return the same point.
void expect_matches_reference(const VectorList& pts,
                              const WeiszfeldOptions& options = {}) {
  const WeiszfeldResult ref = reference::geometric_median(pts, options);
  const WeiszfeldResult got = geometric_median(pts, options);
  EXPECT_TRUE(same_bits(got.point, ref.point));
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.converged, ref.converged);
  EXPECT_TRUE(same_bits(got.objective, ref.objective))
      << got.objective << " vs " << ref.objective;
  EXPECT_TRUE(same_bits(geometric_median_point(pts, options), ref.point));
}

VectorList random_rows(Rng& rng, std::size_t k, std::size_t d,
                       double offset = 0.0) {
  VectorList pts(k, Vector(d));
  for (auto& p : pts) {
    for (auto& x : p) x = offset + rng.uniform(-3.0, 3.0);
  }
  return pts;
}

TEST(WeiszfeldOracle, RandomInputsMatchBitwise) {
  // Every remainder of the kernel's four-row blocks, after zero to three
  // whole blocks.
  Rng rng(41);
  for (std::size_t k = 1; k <= 13; ++k) {
    for (int trial = 0; trial < 5; ++trial) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " trial=" << trial);
      expect_matches_reference(random_rows(rng, k, 7));
    }
  }
}

TEST(WeiszfeldOracle, PaperShapeMatchesBitwise) {
  // One BOX-GEOM subset at the MLP's dimension: k = n - t = 9, d = 1842.
  Rng rng(42);
  expect_matches_reference(random_rows(rng, 9, 1842));
}

TEST(WeiszfeldOracle, DuplicateRowsMatchBitwise) {
  // Majority of three among five; the copies differ in the sign of a zero,
  // so the answer must be the first-seen copy, bit for bit.
  const VectorList majority{{1.0, 2.0}, {0.0, 5.0}, {-0.0, 5.0},
                            {0.0, 5.0}, {9.0, -1.0}};
  expect_matches_reference(majority);
  EXPECT_FALSE(std::signbit(geometric_median(majority).point[0]));
  const VectorList later_first{{-0.0, 5.0}, {1.0, 2.0}, {0.0, 5.0},
                               {0.0, 5.0}};
  expect_matches_reference(later_first);
  EXPECT_TRUE(std::signbit(geometric_median(later_first).point[0]));
  // Three copies among six is no majority: Weiszfeld runs.
  expect_matches_reference({{0.0, 5.0}, {0.0, 5.0}, {0.0, 5.0},
                            {1.0, 2.0}, {4.0, 4.0}, {-3.0, 1.0}});
  // Two duplicate pairs, no majority.
  expect_matches_reference({{1.0, 1.0}, {1.0, 1.0}, {2.0, -1.0},
                            {2.0, -1.0}, {0.0, 3.0}});
}

TEST(WeiszfeldOracle, IterateOnInputPointMatchesBitwise) {
  // The centroid is exactly row 0 in both inputs.  Stop: the unit
  // directions to the other rows cancel, Kuhn's test accepts row 0.
  const VectorList stop{{0.0, 0.0}, {1.0, 0.0}, {-1.0, 0.0}, {0.0, 1.0},
                        {0.0, -1.0}};
  expect_matches_reference(stop);
  EXPECT_EQ(geometric_median(stop).iterations, 1u);
  // Push-off: the pull towards the three rows at x = -1 exceeds the
  // anchor's multiplicity, so the iterate leaves row 0 and continues.
  const VectorList push{{0.0, 0.0}, {3.0, 0.0}, {-1.0, 0.0}, {-1.0, 0.1},
                        {-1.0, -0.1}};
  expect_matches_reference(push);
  EXPECT_GT(geometric_median(push).iterations, 1u);
}

TEST(WeiszfeldOracle, AnchorAcrossBlocksMatchesBitwise) {
  // k = 5..7 rows whose centroid is exactly the zero row, placed first
  // (in the first block of four) or last (in the remainder).  Stop: the
  // other rows come in +-v pairs (an even k holds the zero row twice), so
  // their unit directions cancel and Kuhn's test accepts the zero row.
  // Push-off: one row at (k - 2) e_0 against k - 2 rows around -e_0 pulls
  // the iterate off the zero row.
  Rng rng(48);
  const std::size_t d = 9;
  for (std::size_t k = 5; k <= 7; ++k) {
    for (const bool stop : {true, false}) {
      VectorList others;
      if (stop) {
        for (const Vector& v : random_rows(rng, (k - 1) / 2, d)) {
          others.push_back(v);
          others.push_back(scale(v, -1.0));
        }
      } else {
        others.push_back(Vector(d, 0.0));
        others.back()[0] = static_cast<double>(k - 2);
        for (std::size_t j = 0; j + 2 < k; ++j) {
          others.push_back(Vector(d, 0.0));
          others.back()[0] = -1.0;
          // +-0.1 e_{1 + j/2} by pairs: the rows still sum to zero.
          if (j % 2 == 1 || j + 3 < k) {
            others.back()[1 + j / 2] = j % 2 == 0 ? 0.1 : -0.1;
          }
        }
      }
      const std::size_t anchors = k - others.size();
      for (const bool last : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "k=" << k << " stop=" << stop << " last=" << last);
        VectorList pts = others;
        pts.insert(last ? pts.end() : pts.begin(), anchors, Vector(d, 0.0));
        expect_matches_reference(pts);
        EXPECT_EQ(geometric_median(pts).iterations == 1, stop);
      }
    }
  }
}

TEST(WeiszfeldOracle, SignedZerosAcrossBlocksMatchBitwise) {
  // Coordinate 0 is -0.0 in every row and coordinate 1 alternates -0.0 /
  // 0.0: every sum starts from +0.0 as the oracle's does, so the median
  // holds +0.0 in both, whichever block or remainder a row falls in.
  Rng rng(49);
  for (std::size_t k = 5; k <= 7; ++k) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    VectorList pts = random_rows(rng, k, 8);
    for (std::size_t i = 0; i < k; ++i) {
      pts[i][0] = -0.0;
      pts[i][1] = i % 2 == 0 ? -0.0 : 0.0;
    }
    expect_matches_reference(pts);
    const Vector median = geometric_median(pts).point;
    EXPECT_FALSE(std::signbit(median[0]));
    EXPECT_FALSE(std::signbit(median[1]));
  }
}

TEST(WeiszfeldOracle, IdenticalRowsMatchBitwise) {
  for (const std::size_t k : {2u, 3u, 4u, 9u}) {
    expect_matches_reference(VectorList(k, Vector{1.5, -0.0, 3.0}));
  }
}

TEST(WeiszfeldOracle, LargeCommonOffsetMatchesBitwise) {
  Rng rng(43);
  expect_matches_reference(random_rows(rng, 9, 16, 1e8));
}

TEST(WeiszfeldOracle, IterationCapMatchesBitwise) {
  Rng rng(44);
  WeiszfeldOptions options;
  options.max_iterations = 3;
  const VectorList pts = random_rows(rng, 8, 12);
  expect_matches_reference(pts, options);
  EXPECT_FALSE(geometric_median(pts, options).converged);
}

// The three GEOM rules against the same construction on the oracle.
VectorList inbox_with_outliers(Rng& rng, std::size_t n, std::size_t t,
                               std::size_t d) {
  VectorList pts = random_rows(rng, n - t, d);
  for (std::size_t i = 0; i < t; ++i) pts.push_back(constant(d, 40.0 + i));
  return pts;
}

AggregationContext context_of(std::size_t n, std::size_t t) {
  AggregationContext ctx;
  ctx.n = n;
  ctx.t = t;
  return ctx;
}

TEST(WeiszfeldOracle, GeoMedianRulesMatchOracleComposition) {
  Rng rng(45);
  for (const auto& [n, t, d] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{7, 2, 5},
        {10, 1, 64},
        {10, 2, 1842}}) {
    SCOPED_TRACE(testing::Message() << "n=" << n << " t=" << t);
    const VectorList pts = inbox_with_outliers(rng, n, t, d);
    const AggregationContext ctx = context_of(n, t);
    const std::size_t keep = ctx.keep();

    EXPECT_TRUE(same_bits(make_rule("GEOMED")->aggregate(pts, ctx),
                          reference::geometric_median_point(pts)));

    AggregationWorkspace workspace(pts);
    const auto md = min_diameter_subset(workspace.distances(), keep);
    const Vector md_expected =
        reference::geometric_median_point(gather(pts, md.indices));
    const auto md_rule = make_rule("MD-GEOM");
    EXPECT_TRUE(same_bits(md_rule->aggregate(pts, ctx), md_expected));
    const GradientBatch batch = GradientBatch::from(pts);
    AggregationWorkspace batch_workspace(batch);
    EXPECT_TRUE(same_bits(md_rule->aggregate(batch, batch_workspace, ctx),
                          md_expected));

    VectorList medians;
    for_each_combination(n, keep, [&](const std::vector<std::size_t>& idx) {
      medians.push_back(reference::geometric_median_point(gather(pts, idx)));
    });
    const auto box = Hyperbox::intersect(trimmed_hyperbox(pts, keep),
                                         Hyperbox::bounding(medians));
    ASSERT_TRUE(box.has_value());
    EXPECT_TRUE(same_bits(make_rule("BOX-GEOM")->aggregate(pts, ctx),
                          box->midpoint()));
  }
}

TEST(WeiszfeldOracle, StickyRoundMatchesOracleComposition) {
  // Two tied minimum-diameter subsets (a symmetric inbox): the sticky
  // round keeps the median closest to the node's current vector.
  const VectorList pts{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {0.0, 1.0},
                       {1.0, 1.0}, {2.0, 1.0}};
  const AggregationContext ctx = context_of(6, 3);
  const Vector current{1.0, 0.9};
  AggregationWorkspace workspace(pts);
  const auto tied = min_diameter_subsets(workspace.distances(), ctx.keep());
  ASSERT_GT(tied.size(), 1u);
  Vector expected;
  double best = std::numeric_limits<double>::infinity();
  for (const auto& candidate : tied) {
    const Vector median =
        reference::geometric_median_point(gather(pts, candidate.indices));
    if (distance(median, current) < best) {
      best = distance(median, current);
      expected = median;
    }
  }
  StickyMinDiameterGeoRound round;
  EXPECT_TRUE(same_bits(round.step(pts, current, ctx), expected));
}

// --- agreed inboxes: BOX-GEOM's class-majority short-circuit ---

// Inboxes whose subsets hold majorities of equal rows — after sub-round 0
// of a synchronous agreement every BOX-GEOM inbox looks like the first.
struct DuplicateInbox {
  std::string name;
  VectorList rows;
};

std::vector<DuplicateInbox> duplicate_inboxes(std::size_t d) {
  Rng rng(46);
  std::vector<DuplicateInbox> inboxes;
  // Eight equal honest rows and two equal Byzantine rows (m = 10, t = 2).
  VectorList agreed(8, random_rows(rng, 1, d)[0]);
  agreed.insert(agreed.end(), 2, constant(d, 40.0));
  inboxes.push_back({"8+2", agreed});
  // Five rows and a copy of each: at keep = 8 no class holds a majority
  // of any subset, so every subset goes to the kernel.
  const VectorList five = random_rows(rng, 5, d);
  VectorList pairs = five;
  pairs.insert(pairs.end(), five.begin(), five.end());
  inboxes.push_back({"5+5", pairs});
  // Rows 1..7 equal up to the sign of their zeros, row 1 holding +0.0
  // where rows 2, 4, 6 hold -0.0: a subset without row 1 resolves to row
  // 2 and must keep row 2's bits, not row 1's.
  VectorList zeros = random_rows(rng, 10, d);
  const Vector base = random_rows(rng, 1, d)[0];
  for (std::size_t i = 1; i < 8; ++i) {
    zeros[i] = base;
    zeros[i][0] = i % 2 == 0 ? -0.0 : 0.0;
    zeros[i][d - 1] = i % 2 == 0 ? 0.0 : -0.0;
  }
  inboxes.push_back({"signed zeros", zeros});
  // Four copies of a row holding a NaN, which equals no row, copies
  // included, so they never form a majority; rows 7..9 are equal.
  VectorList nans = random_rows(rng, 10, d);
  Vector nan_row = random_rows(rng, 1, d)[0];
  nan_row[1] = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 3; i < 7; ++i) nans[i] = nan_row;
  for (std::size_t i = 8; i < 10; ++i) nans[i] = nans[7];
  inboxes.push_back({"nan copies", nans});
  return inboxes;
}

std::vector<const double*> row_pointers(const VectorList& rows) {
  std::vector<const double*> out;
  for (const Vector& row : rows) out.push_back(row.data());
  return out;
}

// RowClasses::majority must name, subset by subset, the very row the
// kernel returns through its majority test, and no row when the kernel
// solves the subset.
TEST(RowClasses, MajorityIsTheKernelsMajorityRow) {
  const std::size_t d = 6;
  std::size_t resolved = 0;
  std::size_t solved = 0;
  std::size_t not_first_of_class = 0;
  for (const DuplicateInbox& inbox : duplicate_inboxes(d)) {
    SCOPED_TRACE(inbox.name);
    const std::vector<const double*> rows = row_pointers(inbox.rows);
    const RowClasses classes(rows.data(), rows.size(), d);
    EXPECT_TRUE(classes.has_duplicates());
    WeiszfeldScratch scratch;
    for (const std::size_t keep : {3, 4, 8}) {
      for_each_combination(
          rows.size(), keep, [&](const std::vector<std::size_t>& idx) {
            std::vector<const double*> view;
            for (std::size_t i : idx) view.push_back(rows[i]);
            const double* point =
                geometric_median_rows(view.data(), keep, d, {}, scratch)
                    .point;
            const std::size_t row = classes.majority(idx);
            if (row == RowClasses::npos) {
              ++solved;
              EXPECT_EQ(std::count(view.begin(), view.end(), point), 0);
            } else {
              ++resolved;
              EXPECT_EQ(point, rows[row]);
              if (classes.of(row) != row) ++not_first_of_class;
            }
          });
    }
  }
  EXPECT_GT(resolved, 0u);
  EXPECT_GT(solved, 0u);
  EXPECT_GT(not_first_of_class, 0u);
  // Without equal rows there are no classes to count.
  Rng rng(47);
  const VectorList distinct = random_rows(rng, 6, d);
  const std::vector<const double*> rows = row_pointers(distinct);
  EXPECT_FALSE(RowClasses(rows.data(), rows.size(), d).has_duplicates());
}

// Hyperbox::bounding over the oracle's median of every keep-subset.
Hyperbox oracle_subset_box(const VectorList& pts, std::size_t keep) {
  VectorList medians;
  for_each_combination(pts.size(), keep,
                       [&](const std::vector<std::size_t>& idx) {
                         medians.push_back(reference::geometric_median_point(
                             gather(pts, idx)));
                       });
  return Hyperbox::bounding(medians);
}

TEST(WeiszfeldOracle, DuplicateInboxBoxesMatchOracleComposition) {
  const std::size_t d = 64;
  ThreadPool pool(3);
  for (const DuplicateInbox& inbox : duplicate_inboxes(d)) {
    SCOPED_TRACE(inbox.name);
    const VectorList& pts = inbox.rows;
    for (const std::size_t keep : {2, 3, 8}) {
      SCOPED_TRACE(testing::Message() << "keep=" << keep);
      const Hyperbox expected = oracle_subset_box(pts, keep);
      for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const Hyperbox box = subset_aggregate_box(
            pts, keep, SubsetAggregate::kGeometricMedian, {}, workers);
        EXPECT_TRUE(same_bits(box.lo(), expected.lo()));
        EXPECT_TRUE(same_bits(box.hi(), expected.hi()));
      }
    }
    // The rule itself rejects non-finite rows.
    if (inbox.name == "nan copies") continue;
    const AggregationContext serial = context_of(pts.size(), 2);
    const auto box = Hyperbox::intersect(trimmed_hyperbox(pts, 8),
                                         oracle_subset_box(pts, 8));
    ASSERT_TRUE(box.has_value());
    AggregationContext pooled = serial;
    pooled.pool = &pool;
    for (const AggregationContext& ctx : {serial, pooled}) {
      EXPECT_TRUE(same_bits(make_rule("BOX-GEOM")->aggregate(pts, ctx),
                            box->midpoint()));
    }
  }
}

// --- medoid ---

TEST(Medoid, PicksInputPointMinimizingDistanceSum) {
  const VectorList pts{{0.0}, {1.0}, {2.0}, {10.0}};
  EXPECT_EQ(medoid_index(pts), 1u);  // 1 has sum 1+1+9 = 11, best
  EXPECT_EQ(medoid(pts), (Vector{1.0}));
}

TEST(Medoid, TieBreaksToLowestIndex) {
  const VectorList pts{{0.0}, {2.0}};
  EXPECT_EQ(medoid_index(pts), 0u);
}

TEST(Medoid, ScoreComputation) {
  const VectorList pts{{0.0}, {3.0}, {5.0}};
  EXPECT_DOUBLE_EQ(medoid_score(pts, 0), 8.0);
  EXPECT_DOUBLE_EQ(medoid_score(pts, 1), 5.0);
  EXPECT_THROW(medoid_score(pts, 3), std::invalid_argument);
}

TEST(Medoid, MedoidDiffersFromGeometricMedianInGeneral) {
  // Theorem 4.3 rests on this: the medoid is constrained to input points.
  const VectorList pts{{0.0, 0.0}, {2.0, 0.0}, {1.0, 2.0}};
  const Vector med = medoid(pts);
  const Vector geo = geometric_median_point(pts);
  EXPECT_GT(distance(med, geo), 0.1);
}

// --- enclosing ball ---

TEST(EnclosingBall, OnePointZeroRadius) {
  const Ball b = minimum_enclosing_ball({{1.0, 2.0, 3.0}});
  EXPECT_DOUBLE_EQ(b.radius, 0.0);
  EXPECT_EQ(b.center, (Vector{1.0, 2.0, 3.0}));
}

TEST(EnclosingBall, OneDimensionalExactInterval) {
  const Ball b = minimum_enclosing_ball({{3.0}, {-1.0}, {2.0}});
  EXPECT_DOUBLE_EQ(b.center[0], 1.0);
  EXPECT_DOUBLE_EQ(b.radius, 2.0);
}

TEST(EnclosingBall, TwoDimensionalDiametralPair) {
  const Ball b = minimum_enclosing_ball({{0.0, 0.0}, {4.0, 0.0}, {2.0, 1.0}});
  EXPECT_NEAR(b.center[0], 2.0, 1e-9);
  EXPECT_NEAR(b.center[1], 0.0, 1e-9);
  EXPECT_NEAR(b.radius, 2.0, 1e-9);
}

TEST(EnclosingBall, TwoDimensionalCircumscribed) {
  // Equilateral-ish triangle needing all three support points.
  const VectorList pts{{0.0, 0.0}, {2.0, 0.0}, {1.0, 1.8}};
  const Ball b = welzl_circle(pts);
  for (const auto& p : pts) {
    EXPECT_LE(distance(p, b.center), b.radius + 1e-9);
  }
  // All three on the boundary.
  for (const auto& p : pts) {
    EXPECT_NEAR(distance(p, b.center), b.radius, 1e-6);
  }
}

TEST(EnclosingBall, HighDimensionalCoversAllPoints) {
  Rng rng(21);
  VectorList pts;
  for (int i = 0; i < 40; ++i) {
    Vector p(8);
    for (auto& x : p) x = rng.uniform(-2.0, 2.0);
    pts.push_back(p);
  }
  const Ball b = minimum_enclosing_ball(pts);
  for (const auto& p : pts) {
    EXPECT_LE(distance(p, b.center), b.radius + 1e-9);
  }
  // Not wildly larger than the half-diameter lower bound.
  EXPECT_LE(b.radius, diameter(pts));
  EXPECT_GE(b.radius, diameter(pts) / 2.0 - 1e-9);
}

TEST(EnclosingBall, HighDimensionalNearOptimalOnSymmetricInput) {
  // +-e_j cross in d dims: optimal ball is the unit ball at the origin.
  const std::size_t d = 6;
  VectorList pts;
  for (std::size_t j = 0; j < d; ++j) {
    pts.push_back(unit(d, j, 1.0));
    pts.push_back(unit(d, j, -1.0));
  }
  const Ball b = minimum_enclosing_ball(pts);
  EXPECT_NEAR(b.radius, 1.0, 0.05);
  EXPECT_LE(norm2(b.center), 0.05);
}

TEST(EnclosingBall, EmptyThrows) {
  EXPECT_THROW(minimum_enclosing_ball({}), std::invalid_argument);
}

// --- min diameter subsets ---

TEST(MinDiameter, FindsObviousCluster) {
  const VectorList pts{{0.0}, {0.1}, {0.2}, {50.0}, {51.0}};
  const auto r = min_diameter_subset(pts, 3);
  EXPECT_EQ(r.indices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_NEAR(r.diameter, 0.2, 1e-12);
}

TEST(MinDiameter, SubsetSizeOneHasZeroDiameter) {
  const auto r = min_diameter_subset({{5.0}, {9.0}}, 1);
  EXPECT_EQ(r.indices.size(), 1u);
  EXPECT_DOUBLE_EQ(r.diameter, 0.0);
}

TEST(MinDiameter, FullSetDiameterMatchesDiameterFunction) {
  const VectorList pts{{0.0, 0.0}, {3.0, 0.0}, {0.0, 4.0}};
  const auto r = min_diameter_subset(pts, 3);
  EXPECT_DOUBLE_EQ(r.diameter, diameter(pts));
}

TEST(MinDiameter, InvalidSizesThrow) {
  const VectorList pts{{0.0}};
  EXPECT_THROW(min_diameter_subset(pts, 0), std::invalid_argument);
  EXPECT_THROW(min_diameter_subset(pts, 2), std::invalid_argument);
}

TEST(MinDiameter, MatchesBruteForceOnRandomInputs) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    VectorList pts;
    for (int i = 0; i < 9; ++i) {
      pts.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
    }
    const std::size_t k = 5;
    const auto fast = min_diameter_subset(pts, k);
    double best = 1e300;
    for_each_combination(pts.size(), k,
                         [&](const std::vector<std::size_t>& idx) {
                           best = std::min(best, diameter(gather(pts, idx)));
                         });
    EXPECT_NEAR(fast.diameter, best, 1e-12);
  }
}

TEST(MinDiameter, TiedSubsetEnumerationFindsAllOptima) {
  // Two identical clusters of 3, ask for k = 3: both clusters are optimal.
  const VectorList pts{{0.0}, {0.1}, {0.2}, {10.0}, {10.1}, {10.2}};
  const auto tied = min_diameter_subsets(pts, 3, 1e-9);
  EXPECT_EQ(tied.size(), 2u);
}

TEST(MinDiameter, TieEnumerationContainsLexicographicWinner) {
  const VectorList pts{{0.0}, {1.0}, {2.0}, {3.0}};
  const auto best = min_diameter_subset(pts, 2);
  const auto tied = min_diameter_subsets(pts, 2, 1e-9);
  bool found = false;
  for (const auto& r : tied) {
    if (r.indices == best.indices) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(tied.size(), 3u);  // {0,1}, {1,2}, {2,3} all have diameter 1
}

// --- convex 2-D geometry ---

TEST(Convex2D, HullOfSquareWithInteriorPoint) {
  const VectorList pts{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0},
                       {0.5, 0.5}};
  const Polygon2 hull = convex_hull_2d(pts);
  EXPECT_EQ(hull.size(), 4u);
  EXPECT_GT(polygon_area(hull), 0.99);
}

TEST(Convex2D, HullOfCollinearPointsIsSegment) {
  const Polygon2 hull = convex_hull_2d({{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}});
  EXPECT_EQ(hull.size(), 2u);
}

TEST(Convex2D, HullDeduplicates) {
  const Polygon2 hull = convex_hull_2d({{1.0, 1.0}, {1.0, 1.0}});
  EXPECT_EQ(hull.size(), 1u);
}

TEST(Convex2D, AreaOfUnitSquare) {
  const Polygon2 square{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
  EXPECT_DOUBLE_EQ(polygon_area(square), 1.0);
}

TEST(Convex2D, ContainsInteriorBoundaryExterior) {
  const Polygon2 square{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  EXPECT_TRUE(polygon_contains(square, {1.0, 1.0}));
  EXPECT_TRUE(polygon_contains(square, {0.0, 1.0}));
  EXPECT_FALSE(polygon_contains(square, {3.0, 1.0}));
}

TEST(Convex2D, ClipOverlappingSquares) {
  const Polygon2 a{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  const Polygon2 b{{1.0, 1.0}, {3.0, 1.0}, {3.0, 3.0}, {1.0, 3.0}};
  const Polygon2 inter = clip_convex(a, b);
  EXPECT_NEAR(polygon_area(inter), 1.0, 1e-9);
}

TEST(Convex2D, ClipDisjointIsEmpty) {
  const Polygon2 a{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
  const Polygon2 b{{5.0, 5.0}, {6.0, 5.0}, {6.0, 6.0}, {5.0, 6.0}};
  EXPECT_TRUE(clip_convex(a, b).empty());
}

TEST(Convex2D, ClipAgainstPointClipper) {
  const Polygon2 square{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  const Polygon2 inside = clip_convex(square, {{1.0, 1.0}});
  ASSERT_EQ(inside.size(), 1u);
  EXPECT_EQ(inside[0], (Vector{1.0, 1.0}));
  EXPECT_TRUE(clip_convex(square, {Vector{5.0, 5.0}}).empty());
}

TEST(Convex2D, ClipAgainstSegmentClipper) {
  const Polygon2 square{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  // Horizontal segment crossing the square.
  const Polygon2 segment{{-1.0, 1.0}, {3.0, 1.0}};
  const Polygon2 inter = clip_convex(square, segment);
  ASSERT_GE(inter.size(), 2u);
  for (const auto& v : inter) {
    EXPECT_NEAR(v[1], 1.0, 1e-9);
    EXPECT_GE(v[0], -1e-9);
    EXPECT_LE(v[0], 2.0 + 1e-9);
  }
}

TEST(Convex2D, CentroidOfEmptyIsNull) {
  EXPECT_FALSE(polygon_centroid({}).has_value());
  const auto c = polygon_centroid({{1.0, 2.0}});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, (Vector{1.0, 2.0}));
}

// --- safe area ---

TEST(SafeArea, OneDimensionalIsTrimmedInterval) {
  // n = 5, t = 1 -> [2nd smallest, 4th smallest].
  const auto interval = safe_area_1d({5.0, 1.0, 3.0, 2.0, 4.0}, 1);
  ASSERT_TRUE(interval.has_value());
  EXPECT_DOUBLE_EQ(interval->first, 2.0);
  EXPECT_DOUBLE_EQ(interval->second, 4.0);
}

TEST(SafeArea, OneDimensionalEmptyWhenTooManyFaults) {
  EXPECT_FALSE(safe_area_1d({1.0, 2.0, 3.0, 4.0}, 2).has_value());
}

TEST(SafeArea, OneDimensionalPointRepresentative) {
  const auto p = safe_area_point({{1.0}, {2.0}, {3.0}, {4.0}, {5.0}}, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ((*p)[0], 3.0);
}

TEST(SafeArea, TwoDimensionalInsideAllSubsetHulls) {
  Rng rng(41);
  VectorList pts;
  for (int i = 0; i < 7; ++i) {
    pts.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
  }
  const std::size_t t = 1;
  const Polygon2 area = safe_area_2d(pts, t);
  if (!area.empty()) {
    const auto rep = polygon_centroid(area);
    ASSERT_TRUE(rep.has_value());
    for_each_combination(pts.size(), pts.size() - t,
                         [&](const std::vector<std::size_t>& idx) {
                           const Polygon2 hull =
                               convex_hull_2d(gather(pts, idx));
                           EXPECT_TRUE(polygon_contains(hull, *rep, 1e-6));
                         });
  }
}

TEST(SafeArea, TwoDimensionalDegeneratesToSinglePoint) {
  // Theorem 4.1 construction for d = 2, f = 1: one correct node and the
  // Byzantine node at the origin, two groups of nodes at v + eps_j.  All
  // (n-1)-subset hulls intersect only at the shared point v0 = origin.
  const VectorList pts{{0.0, 0.0},          // correct node at origin
                       {0.0, 0.0},          // Byzantine copy at origin
                       {5.0, 0.0},          // group 1 (f = 1 node)
                       {5.0 + 0.0, 0.1}};   // group 2 = v + eps*e_2
  const Polygon2 area = safe_area_2d(pts, 1);
  ASSERT_FALSE(area.empty());
  const auto rep = polygon_centroid(area);
  ASSERT_TRUE(rep.has_value());
  // The safe area collapses near the duplicated origin point.
  EXPECT_LT(norm2(*rep), 1e-6);
}

TEST(SafeArea, HighDimensionalRequestThrows) {
  EXPECT_THROW(safe_area_point({{1.0, 1.0, 1.0}}, 0), std::invalid_argument);
}

// --- Weiszfeld property sweep ---

class WeiszfeldPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(WeiszfeldPropertyTest, FirstOrderOptimalityHolds) {
  Rng rng(7000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 5 + rng.uniform_u64(6);
  const std::size_t d = 2 + rng.uniform_u64(5);
  VectorList pts;
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(d);
    for (auto& x : p) x = rng.uniform(-3.0, 3.0);
    pts.push_back(p);
  }
  const auto r = geometric_median(pts);
  ASSERT_TRUE(r.converged);
  // Gradient of sum ||v_i - y|| is sum of unit vectors toward y; at the
  // optimum it (sub)vanishes.  Skip anchored cases (handled by Kuhn's
  // condition internally).
  bool anchored = false;
  Vector grad = zeros(d);
  for (const auto& p : pts) {
    const double dist = distance(p, r.point);
    if (dist < 1e-9) {
      anchored = true;
      break;
    }
    axpy(grad, 1.0 / dist, sub(r.point, p));
  }
  if (!anchored) {
    EXPECT_LT(norm2(grad), 1e-4);
  }
}

TEST_P(WeiszfeldPropertyTest, MedianInsideBoundingBox) {
  Rng rng(8000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + rng.uniform_u64(8);
  const std::size_t d = 1 + rng.uniform_u64(6);
  VectorList pts;
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(d);
    for (auto& x : p) x = rng.uniform(-10.0, 10.0);
    pts.push_back(p);
  }
  const auto r = geometric_median(pts);
  EXPECT_TRUE(Hyperbox::bounding(pts).contains(r.point, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeiszfeldPropertyTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace bcl
