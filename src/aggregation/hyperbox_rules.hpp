#pragma once
// Hyperbox aggregation rules — the paper's core contribution.
//
// BOX-GEOM is one round step of Algorithm 2 (Section 4.2): compute the
// locally trusted hyperbox TH_i (Definition 2.5) by coordinate-wise
// trimming, compute the local geometric-median hyperbox GH_i (Definition
// 3.5) as the bounding box of the geometric medians of all (n - t)-subsets
// of the received vectors, and output mid(TH_i ∩ GH_i).  Theorem 4.4 proves
// the intersection is never empty, the iteration halves E_max every round,
// and a single step is a 2*sqrt(d)-approximation of the true geometric
// median.
//
// BOX-MEAN is the centroid variant of Cambus-Melnyk: GH_i is replaced by the
// bounding box of subset *means*.

#include "aggregation/rule.hpp"
#include "geometry/weiszfeld.hpp"
#include "linalg/hyperbox.hpp"

namespace bcl {

/// What the hyperbox rules reduce each (n - t)-subset to.
enum class SubsetAggregate { kMean, kGeometricMedian };

/// Bounding box of the per-subset aggregates of every `keep`-subset of
/// `received` (GH_i of Definition 3.5, or its mean analogue).  Each subset
/// is an index view of the received rows — nothing is gathered — and its
/// point is folded into a running lo/hi box in lexicographic subset order;
/// std::min/std::max keep the running value on ties, so the box equals
/// Hyperbox::bounding over the list of subset points bit for bit.  With a
/// pool, contiguous subset ranges fold into per-chunk boxes that are
/// merged in subset order, which gives the same bits as the serial fold.
/// For kGeometricMedian at keep >= 3, a subset in which equal rows hold a
/// majority takes the row the solver's majority test would return,
/// without a solve (see RowClasses).  `options` applies to
/// kGeometricMedian only.
Hyperbox subset_aggregate_box(const VectorList& received, std::size_t keep,
                              SubsetAggregate kind,
                              const WeiszfeldOptions& options,
                              ThreadPool* pool);

/// Shared implementation of the two hyperbox rules: output
/// mid(trimmed_hyperbox(received) ∩ subset_aggregate_box(received)).
/// Throws std::logic_error if the intersection is empty beyond numerical
/// tolerance (Theorem 4.4 guarantees non-emptiness; a tiny per-coordinate
/// tolerance absorbs Weiszfeld rounding).
Vector hyperbox_aggregate(const VectorList& received,
                          const AggregationContext& ctx, SubsetAggregate kind,
                          const WeiszfeldOptions& options = {});

/// BOX-MEAN: hyperbox rule with subset means.  The subset enumeration is
/// not distance-based, but the workspace form still routes the subset fan
/// out through the workspace's pool so a round that built a workspace once
/// drives every rule with the same worker configuration.
class BoxMeanRule final : public AggregationRule {
 public:
  std::string name() const override { return "BOX-MEAN"; }
  using AggregationRule::aggregate;
  Vector aggregate(const VectorList& received, AggregationWorkspace& workspace,
                   const AggregationContext& ctx) const override;
};

/// BOX-GEOM: hyperbox rule with subset geometric medians (Algorithm 2).
class BoxGeoMedianRule final : public AggregationRule {
 public:
  explicit BoxGeoMedianRule(WeiszfeldOptions options = {})
      : options_(options) {}
  std::string name() const override { return "BOX-GEOM"; }
  using AggregationRule::aggregate;
  Vector aggregate(const VectorList& received, AggregationWorkspace& workspace,
                   const AggregationContext& ctx) const override;

 private:
  WeiszfeldOptions options_;
};

}  // namespace bcl
