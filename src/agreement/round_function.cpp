#include "agreement/round_function.hpp"

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "aggregation/registry.hpp"
#include "geometry/min_diameter.hpp"

namespace bcl {

Vector RoundFunction::step(const VectorList& received,
                           AggregationWorkspace& workspace,
                           const Vector& current,
                           const AggregationContext& ctx) const {
  if (workspace.size() != received.size()) {
    throw std::invalid_argument(
        "RoundFunction::step: workspace was built over a different inbox");
  }
  return step(received, current, ctx);
}

Vector RoundFunction::step(const GradientBatch& batch,
                           AggregationWorkspace& workspace,
                           const Vector& current,
                           const AggregationContext& ctx) const {
  if (workspace.batch() != &batch) {
    throw std::invalid_argument(
        "RoundFunction::step: workspace was built over a different batch");
  }
  return step(workspace.points(), workspace, current, ctx);
}

RuleRound::RuleRound(AggregationRulePtr rule) : rule_(std::move(rule)) {
  if (!rule_) throw std::invalid_argument("RuleRound: null rule");
}

std::string RuleRound::name() const { return rule_->name(); }

Vector RuleRound::step(const VectorList& received, const Vector& /*current*/,
                       const AggregationContext& ctx) const {
  return rule_->aggregate(received, ctx);
}

Vector RuleRound::step(const VectorList& received,
                       AggregationWorkspace& workspace,
                       const Vector& /*current*/,
                       const AggregationContext& ctx) const {
  return rule_->aggregate(received, workspace, ctx);
}

Vector RuleRound::step(const GradientBatch& batch,
                       AggregationWorkspace& workspace,
                       const Vector& /*current*/,
                       const AggregationContext& ctx) const {
  return rule_->aggregate(batch, workspace, ctx);
}

namespace {

Vector sticky_step(const VectorList& received, const DistanceMatrix& dist,
                   const Vector& current, const AggregationContext& ctx,
                   const WeiszfeldOptions& options) {
  const auto tied = min_diameter_subsets(dist, ctx.keep());
  const std::size_t dim = received.front().size();
  std::vector<const double*> rows;
  WeiszfeldScratch scratch;
  Vector best;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const auto& candidate : tied) {
    rows.clear();
    for (std::size_t i : candidate.indices) rows.push_back(received[i].data());
    const double* median =
        geometric_median_rows(rows.data(), rows.size(), dim, options, scratch)
            .point;
    Vector median_vec(median, median + dim);
    const double d = distance(median_vec, current);
    if (d < best_dist) {
      best_dist = d;
      best = std::move(median_vec);
    }
  }
  return best;
}

}  // namespace

Vector StickyMinDiameterGeoRound::step(const VectorList& received,
                                       const Vector& current,
                                       const AggregationContext& ctx) const {
  AggregationWorkspace workspace(received, ctx.pool);
  return step(received, workspace, current, ctx);
}

Vector StickyMinDiameterGeoRound::step(const VectorList& received,
                                       AggregationWorkspace& workspace,
                                       const Vector& current,
                                       const AggregationContext& ctx) const {
  if (received.size() < ctx.keep()) {
    throw std::invalid_argument("StickyMinDiameterGeoRound: too few vectors");
  }
  return sticky_step(received, workspace.distances(), current, ctx, options_);
}

RoundFunctionPtr make_round_function(const std::string& rule_name) {
  if (rule_name == "MD-GEOM-STICKY") {
    return std::make_shared<StickyMinDiameterGeoRound>();
  }
  return std::make_shared<RuleRound>(make_rule(rule_name));
}

}  // namespace bcl
