#include "aggregation/minimum_diameter_rules.hpp"

#include "geometry/min_diameter.hpp"
#include "geometry/subsets.hpp"

namespace bcl {

Vector MinimumDiameterMeanRule::aggregate(const VectorList& received,
                                          AggregationWorkspace& workspace,
                                          const AggregationContext& ctx) const {
  validate(received, ctx);
  const auto md = min_diameter_subset(workspace.distances(), ctx.keep());
  return mean(gather(received, md.indices));
}

Vector MinimumDiameterMeanRule::aggregate(const GradientBatch& batch,
                                          AggregationWorkspace& workspace,
                                          const AggregationContext& ctx) const {
  check_batch_workspace(batch, workspace);
  validate(batch, ctx);
  const auto md = min_diameter_subset(workspace.distances(), ctx.keep());
  return mean_of_rows(batch, md.indices);
}

Vector MinimumDiameterGeoMedianRule::aggregate(
    const VectorList& received, AggregationWorkspace& workspace,
    const AggregationContext& ctx) const {
  validate(received, ctx);
  const auto md = min_diameter_subset(workspace.distances(), ctx.keep());
  std::vector<const double*> rows;
  rows.reserve(md.indices.size());
  for (std::size_t i : md.indices) rows.push_back(received[i].data());
  return geometric_median_point(rows.data(), rows.size(), received[0].size(),
                                options_);
}

Vector MinimumDiameterGeoMedianRule::aggregate(
    const GradientBatch& batch, AggregationWorkspace& workspace,
    const AggregationContext& ctx) const {
  check_batch_workspace(batch, workspace);
  validate(batch, ctx);
  const auto md = min_diameter_subset(workspace.distances(), ctx.keep());
  // Weiszfeld runs on row views of the minimum-diameter subset: nothing is
  // copied out of the batch.
  std::vector<const double*> rows;
  rows.reserve(md.indices.size());
  for (std::size_t i : md.indices) rows.push_back(batch.row(i));
  return geometric_median_point(rows.data(), rows.size(), batch.dim(),
                                options_);
}

}  // namespace bcl
