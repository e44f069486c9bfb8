#include "aggregation/hyperbox_rules.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "geometry/subsets.hpp"
#include "linalg/stats.hpp"
#include "util/thread_pool.hpp"

namespace bcl {

namespace {

// One fold of subset points into a running box: the subset's row view,
// the solver's scratch, and lo/hi.  A fold is used by one thread at a time.
//
// With `classes` (geometric medians, keep >= 3, an inbox holding equal
// rows) a subset in which one class of equal rows holds a majority skips
// the kernel: its median is the row the kernel's majority test returns.
// Agreed sub-rounds are made of such subsets.  A row equal to one this
// fold already folded is skipped as well: min/max keep the running value
// on ties, so folding it again changes no bit.
class SubsetBoxFold {
 public:
  SubsetBoxFold(const VectorList& received, std::size_t keep,
                SubsetAggregate kind, const WeiszfeldOptions& options,
                const RowClasses* classes)
      : received_(received),
        d_(received.front().size()),
        kind_(kind),
        options_(options),
        classes_(classes),
        view_(keep) {
    if (classes_ != nullptr) folded_.assign(received.size(), 0);
  }

  // Solves the subset `indices` and folds its point into the box.
  void add(const std::vector<std::size_t>& indices) {
    if (classes_ != nullptr) {
      const std::size_t row = classes_->majority(indices);
      if (row != RowClasses::npos) {
        char& folded = folded_[classes_->of(row)];
        if (!folded) fold(received_[row].data());
        folded = 1;
        return;
      }
    }
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

  // Marks a fold whose subsets all come after the first one.  The serial
  // fold takes a NaN coordinate only from the first subset point (min/max
  // keep the running value against a NaN), so here a NaN in the running
  // box stands for "no value yet" and yields to the next point.
  void start_after_first() { after_first_ = true; }

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
    if (after_first_) {
      for (std::size_t k = 0; k < d_; ++k) {
        lo_[k] = std::isnan(lo_[k]) ? lo[k] : std::min(lo_[k], lo[k]);
        hi_[k] = std::isnan(hi_[k]) ? hi[k] : std::max(hi_[k], hi[k]);
      }
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
  const RowClasses* classes_;
  std::vector<char> folded_;  // per class: a row of it was folded
  std::vector<const double*> view_;
  WeiszfeldScratch scratch_;
  Vector mean_;
  Vector lo_;
  Vector hi_;
  bool empty_ = true;
  bool after_first_ = false;
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
  const std::size_t d = check_same_dimension(received);
  // Keep <= 2 has no majority test in the kernel (two rows give their
  // midpoint), and without equal rows no subset can hold a majority.
  std::optional<RowClasses> classes;
  if (kind == SubsetAggregate::kGeometricMedian && keep >= 3) {
    std::vector<const double*> rows;
    rows.reserve(received.size());
    for (const Vector& row : received) rows.push_back(row.data());
    classes.emplace(rows.data(), rows.size(), d);
    if (!classes->has_duplicates()) classes.reset();
  }
  SubsetBoxFold total(received, keep, kind, options,
                      classes ? &*classes : nullptr);
  if (pool != nullptr && received.size() > keep) {
    // Contiguous subset ranges, one fold each, merged back in range order.
    const auto combos = all_combinations(received.size(), keep);
    const std::size_t parts = std::min(combos.size(), pool->size() + 1);
    std::vector<SubsetBoxFold> folds(parts, total);
    for (std::size_t p = 1; p < parts; ++p) folds[p].start_after_first();
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
