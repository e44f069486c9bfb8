#pragma once
// Reference Weiszfeld solver: the VectorList implementation the row-view
// kernel in src/geometry/weiszfeld.cpp replaced, kept as a bitwise
// oracle.  The kernel's contract is that point, iterations,
// converged and objective match this function bit for bit on every input;
// geometry_test asserts it and bench_micro_aggregation times the kernel
// against it.  Do not "tidy" this body: any change to its floating-point
// operation order moves the oracle.  The one departure from the replaced
// solver is its majority test, which keyed a std::map on the rows; the
// map's ordering takes a NaN as equivalent to any value, so it counted
// copies of a row holding a NaN as equal.  Rows now compare with ==, as
// the kernel compares them.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geometry/weiszfeld.hpp"
#include "linalg/hyperbox.hpp"

namespace bcl::reference {

namespace detail {

// Returns the index of a point equal to y within `snap`, or npos.
inline std::size_t coincident_index(const VectorList& points, const Vector& y,
                                    double snap) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (distance(points[i], y) <= snap) return i;
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace detail

inline WeiszfeldResult geometric_median(const VectorList& points,
                                        const WeiszfeldOptions& options = {}) {
  if (points.empty()) {
    throw std::invalid_argument("geometric_median: empty point list");
  }
  const std::size_t d = check_same_dimension(points);
  const std::size_t n = points.size();
  WeiszfeldResult result;

  if (n == 1) {
    result.point = points.front();
    result.converged = true;
    return result;
  }
  if (n == 2) {
    result.point = scale(add(points[0], points[1]), 0.5);
    result.converged = true;
    result.objective = geometric_median_objective(points, result.point);
    return result;
  }

  // Majority property: if some point has multiplicity > n/2 it is the
  // geometric median.  Rows compare with == per coordinate, so -0.0
  // equals 0.0, a row holding a NaN equals no row, and the answer is the
  // majority's first occurrence.
  for (const auto& p : points) {
    const auto c = static_cast<std::size_t>(
        std::count(points.begin(), points.end(), p));
    if (2 * c > n) {
      result.point = p;
      result.converged = true;
      result.objective = geometric_median_objective(points, p);
      return result;
    }
  }

  const double spread = Hyperbox::bounding(points).diagonal();
  if (spread == 0.0) {
    // All points identical (not caught above only if n is even and split
    // impossible; defensive).
    result.point = points.front();
    result.converged = true;
    return result;
  }
  const double step_tol = options.tolerance * (1.0 + spread);
  const double snap = 1e-14 * (1.0 + spread);

  // Start from the centroid, the standard initial iterate.
  Vector y = mean(points);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    Vector numerator = zeros(d);
    double denominator = 0.0;
    std::size_t anchor = detail::coincident_index(points, y, snap);
    std::size_t anchor_multiplicity = 0;
    Vector pull = zeros(d);  // summed unit directions from y to other points
    for (std::size_t i = 0; i < n; ++i) {
      const double dist_i = distance(points[i], y);
      if (dist_i <= snap) {
        ++anchor_multiplicity;
        continue;
      }
      const double w = 1.0 / dist_i;
      axpy(numerator, w, points[i]);
      denominator += w;
      for (std::size_t k = 0; k < d; ++k) {
        pull[k] += (points[i][k] - y[k]) * w;
      }
    }
    if (anchor != static_cast<std::size_t>(-1)) {
      // Kuhn's optimality test at an input point: y is the geometric median
      // iff ||pull|| <= multiplicity of the anchor.
      const double pull_norm = norm2(pull);
      if (pull_norm <= static_cast<double>(anchor_multiplicity) + 1e-12) {
        result.point = y;
        result.converged = true;
        result.objective = geometric_median_objective(points, y);
        return result;
      }
      // Otherwise push y off the anchor along the pull direction by the
      // standard Kuhn step: move by (||pull|| - mult)/denominator.
      const double move =
          (pull_norm - static_cast<double>(anchor_multiplicity)) / denominator;
      Vector next = y;
      axpy(next, move / pull_norm, pull);
      const double step = distance(next, y);
      y = std::move(next);
      if (step <= step_tol) {
        result.point = y;
        result.converged = true;
        result.objective = geometric_median_objective(points, y);
        return result;
      }
      continue;
    }
    Vector next = scale(numerator, 1.0 / denominator);
    const double step = distance(next, y);
    y = std::move(next);
    if (step <= step_tol) {
      result.point = y;
      result.converged = true;
      result.objective = geometric_median_objective(points, y);
      return result;
    }
  }
  result.point = y;
  result.converged = false;
  result.objective = geometric_median_objective(points, y);
  return result;
}

inline Vector geometric_median_point(const VectorList& points,
                                     const WeiszfeldOptions& options = {}) {
  return reference::geometric_median(points, options).point;
}

}  // namespace bcl::reference
