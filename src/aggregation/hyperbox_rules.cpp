#include "aggregation/hyperbox_rules.hpp"

#include <algorithm>
#include <stdexcept>

#include "geometry/subsets.hpp"
#include "linalg/stats.hpp"
#include "util/thread_pool.hpp"

namespace bcl {

namespace {

// One fold of subset points into a running box: the subset's row view,
// the solver's scratch, and lo/hi.  A fold is used by one thread at a time.
class SubsetBoxFold {
 public:
  SubsetBoxFold(const VectorList& received, std::size_t keep,
                SubsetAggregate kind, const WeiszfeldOptions& options)
      : received_(received),
        d_(received.front().size()),
        kind_(kind),
        options_(options),
        view_(keep) {}

  // Solves the subset `indices` and folds its point into the box.
  void add(const std::vector<std::size_t>& indices) {
    for (std::size_t j = 0; j < indices.size(); ++j) {
      view_[j] = received_[indices[j]].data();
    }
    fold(solve());
  }

  // Folds a fold of later subsets into this one.
  void merge(const SubsetBoxFold& later) {
    if (later.empty_) return;
    fold(later.lo_.data(), later.hi_.data());
  }

  Hyperbox box() && { return Hyperbox(std::move(lo_), std::move(hi_)); }

 private:
  const double* solve() {
    if (kind_ == SubsetAggregate::kGeometricMedian) {
      return geometric_median_rows(view_.data(), view_.size(), d_, options_,
                                   scratch_)
          .point;
    }
    // mean() over the gathered subset, accumulated in the same order.
    mean_.assign(d_, 0.0);
    for (const double* row : view_) {
      for (std::size_t k = 0; k < d_; ++k) mean_[k] += row[k];
    }
    const double inv = 1.0 / static_cast<double>(view_.size());
    for (double& x : mean_) x *= inv;
    return mean_.data();
  }

  void fold(const double* point) { fold(point, point); }

  // The running value stays the first operand, so on ties (including
  // -0.0 vs 0.0) the earlier subset's coordinate wins, as in
  // Hyperbox::bounding.
  void fold(const double* lo, const double* hi) {
    if (empty_) {
      lo_.assign(lo, lo + d_);
      hi_.assign(hi, hi + d_);
      empty_ = false;
      return;
    }
    for (std::size_t k = 0; k < d_; ++k) {
      lo_[k] = std::min(lo_[k], lo[k]);
      hi_[k] = std::max(hi_[k], hi[k]);
    }
  }

  const VectorList& received_;
  std::size_t d_;
  SubsetAggregate kind_;
  WeiszfeldOptions options_;
  std::vector<const double*> view_;
  WeiszfeldScratch scratch_;
  Vector mean_;
  Vector lo_;
  Vector hi_;
  bool empty_ = true;
};

}  // namespace

Hyperbox subset_aggregate_box(const VectorList& received, std::size_t keep,
                              SubsetAggregate kind,
                              const WeiszfeldOptions& options,
                              ThreadPool* pool) {
  if (received.empty() || keep == 0 || keep > received.size()) {
    throw std::invalid_argument(
        "subset_aggregate_box: need 0 < keep <= received.size()");
  }
  check_same_dimension(received);
  SubsetBoxFold total(received, keep, kind, options);
  if (pool != nullptr && received.size() > keep) {
    // Contiguous subset ranges, one fold each, merged back in range order.
    const auto combos = all_combinations(received.size(), keep);
    const std::size_t parts = std::min(combos.size(), pool->size() + 1);
    std::vector<SubsetBoxFold> folds(parts, total);
    pool->parallel_for(0, parts, [&](std::size_t p) {
      const std::size_t end = combos.size() * (p + 1) / parts;
      for (std::size_t c = combos.size() * p / parts; c < end; ++c) {
        folds[p].add(combos[c]);
      }
    });
    for (const auto& fold : folds) total.merge(fold);
  } else {
    for_each_combination(received.size(), keep,
                         [&](const std::vector<std::size_t>& indices) {
                           total.add(indices);
                         });
  }
  return std::move(total).box();
}

Vector hyperbox_aggregate(const VectorList& received,
                          const AggregationContext& ctx, SubsetAggregate kind,
                          const WeiszfeldOptions& options) {
  const std::size_t keep = ctx.keep();
  // TH_i: coordinate-wise trim of |M_i| - (n - t) values per side
  // (Definition 2.5).
  const Hyperbox trusted = trimmed_hyperbox(received, keep);
  // GH_i (or its mean analogue): bounding box of subset aggregates
  // (Definition 3.5).
  const Hyperbox aggregate_box =
      subset_aggregate_box(received, keep, kind, options, ctx.pool);

  auto intersection = Hyperbox::intersect(trusted, aggregate_box);
  if (!intersection) {
    // Theorem 4.4 proves TH_i ∩ GH_i is non-empty; an empty result can only
    // come from Weiszfeld's finite tolerance placing a subset median
    // epsilon-outside the trusted interval.  Retry with a tolerance
    // proportional to the data scale before declaring a logic error.
    const double tol =
        1e-9 * (1.0 + std::max(trusted.max_edge(), aggregate_box.max_edge()));
    intersection =
        Hyperbox::intersect(trusted.inflated(tol), aggregate_box.inflated(tol));
    if (!intersection) {
      throw std::logic_error(
          "hyperbox_aggregate: TH ∩ GH empty — violates Theorem 4.4");
    }
  }
  return intersection->midpoint();
}

namespace {

// The workspace form of the box rules: identical computation, with the
// workspace's pool (when attached) taking precedence for the subset fan-out.
AggregationContext with_workspace_pool(const AggregationContext& ctx,
                                       AggregationWorkspace& workspace) {
  AggregationContext out = ctx;
  if (workspace.pool() != nullptr) out.pool = workspace.pool();
  return out;
}

}  // namespace

Vector BoxMeanRule::aggregate(const VectorList& received,
                              AggregationWorkspace& workspace,
                              const AggregationContext& ctx) const {
  validate(received, ctx);
  return hyperbox_aggregate(received, with_workspace_pool(ctx, workspace),
                            SubsetAggregate::kMean);
}

Vector BoxGeoMedianRule::aggregate(const VectorList& received,
                                   AggregationWorkspace& workspace,
                                   const AggregationContext& ctx) const {
  validate(received, ctx);
  return hyperbox_aggregate(received, with_workspace_pool(ctx, workspace),
                            SubsetAggregate::kGeometricMedian, options_);
}

}  // namespace bcl
