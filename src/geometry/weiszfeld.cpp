#include "geometry/weiszfeld.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/hyperbox.hpp"

namespace bcl {

double geometric_median_objective(const VectorList& points, const Vector& y) {
  double s = 0.0;
  for (const auto& p : points) s += distance(p, y);
  return s;
}

namespace {

// dist[i] = ||rows[i] - y|| for every row.  Each distance is one serial
// sum in coordinate order -- the order distance() uses, which every
// bitwise contract on the geometric median rests on.  A block of four rows
// shares one sweep of the coordinates with four running sums, so the adds
// of different rows overlap instead of each waiting on the one before;
// the n mod 4 rows left over take one sweep each.
void row_distances(const double* const* rows, std::size_t n, std::size_t d,
                   const double* y, double* dist) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* r0 = rows[i];
    const double* r1 = rows[i + 1];
    const double* r2 = rows[i + 2];
    const double* r3 = rows[i + 3];
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const double yk = y[k];
      const double e0 = r0[k] - yk;
      const double e1 = r1[k] - yk;
      const double e2 = r2[k] - yk;
      const double e3 = r3[k] - yk;
      s0 += e0 * e0;
      s1 += e1 * e1;
      s2 += e2 * e2;
      s3 += e3 * e3;
    }
    dist[i] = std::sqrt(s0);
    dist[i + 1] = std::sqrt(s1);
    dist[i + 2] = std::sqrt(s2);
    dist[i + 3] = std::sqrt(s3);
  }
  for (; i < n; ++i) {
    const double* r = rows[i];
    double s = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const double e = r[k] - y[k];
      s += e * e;
    }
    dist[i] = std::sqrt(s);
  }
}

// sum_i ||rows[i] - y||, summed in row order; dist is n-sized scratch.
double rows_objective(const double* const* rows, std::size_t n,
                      std::size_t d, const double* y, double* dist) {
  row_distances(rows, n, d, y, dist);
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += dist[i];
  return s;
}

// Coordinate-wise ==, so -0.0 and 0.0 compare equal (the equivalence an
// ordered map keyed on the rows would use).
bool rows_equal(const double* a, const double* b, std::size_t d) {
  for (std::size_t k = 0; k < d; ++k) {
    if (a[k] != b[k]) return false;
  }
  return true;
}

// Majority property: a row with multiplicity > n/2 is the geometric
// median.  Returns the first occurrence of that row, or nullptr.  Only a
// row with more than n/2 rows from it onwards can start a majority.
const double* majority_row(const double* const* rows, std::size_t n,
                           std::size_t d) {
  for (std::size_t i = 0; 2 * (n - i) > n; ++i) {
    std::size_t count = 1;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rows_equal(rows[i], rows[j], d)) ++count;
    }
    if (2 * count > n) return rows[i];
  }
  return nullptr;
}

// Diagonal of the rows' bounding box, folded exactly as
// Hyperbox::bounding(...).diagonal() does; lo/hi are d-sized scratch.
double bounding_diagonal(const double* const* rows, std::size_t n,
                         std::size_t d, double* lo, double* hi) {
  std::copy(rows[0], rows[0] + d, lo);
  std::copy(rows[0], rows[0] + d, hi);
  for (std::size_t i = 1; i < n; ++i) {
    const double* p = rows[i];
    for (std::size_t k = 0; k < d; ++k) {
      lo[k] = std::min(lo[k], p[k]);
      hi[k] = std::max(hi[k], p[k]);
    }
  }
  double s = 0.0;
  for (std::size_t k = 0; k < d; ++k) {
    const double e = hi[k] - lo[k];
    s += e * e;
  }
  return std::sqrt(s);
}

// Writes `next` over y coordinate by coordinate and returns ||next - y||.
template <typename Next>
double advance(double* y, std::size_t d, Next next) {
  double s = 0.0;
  for (std::size_t k = 0; k < d; ++k) {
    const double v = next(k);
    const double diff = v - y[k];
    s += diff * diff;
    y[k] = v;
  }
  return std::sqrt(s);
}

}  // namespace

WeiszfeldRowsResult geometric_median_rows(const double* const* rows,
                                          std::size_t n, std::size_t d,
                                          const WeiszfeldOptions& options,
                                          WeiszfeldScratch& scratch,
                                          bool with_objective) {
  if (n == 0) {
    throw std::invalid_argument("geometric_median: empty point list");
  }
  WeiszfeldRowsResult result;
  result.converged = true;
  // One point, or (below) all points equal: the answer is the first row
  // and the objective is left at 0.
  result.point = rows[0];
  if (n == 1) return result;

  scratch.y.resize(d);
  scratch.numerator.resize(d);
  scratch.distances.resize(n);
  double* y = scratch.y.data();
  double* numerator = scratch.numerator.data();
  double* dist = scratch.distances.data();
  const auto answer = [&](const double* point) {
    result.point = point;
    if (with_objective) {
      result.objective = rows_objective(rows, n, d, point, dist);
    }
    return result;
  };
  if (n == 2) {
    for (std::size_t k = 0; k < d; ++k) y[k] = 0.5 * (rows[0][k] + rows[1][k]);
    return answer(y);
  }
  if (const double* majority = majority_row(rows, n, d)) {
    return answer(majority);
  }
  const double spread = bounding_diagonal(rows, n, d, y, numerator);
  if (spread == 0.0) return result;
  const double step_tol = options.tolerance * (1.0 + spread);
  const double snap = 1e-14 * (1.0 + spread);

  // Start from the centroid, the standard initial iterate.
  std::fill(y, y + d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < d; ++k) y[k] += rows[i][k];
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t k = 0; k < d; ++k) y[k] *= inv_n;

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    // The one distance pass: rows within `snap` of y anchor the iterate;
    // every other row carries Weiszfeld weight 1 / dist.
    row_distances(rows, n, d, y, dist);
    std::size_t anchor_multiplicity = 0;
    double denominator = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (dist[i] <= snap) {
        ++anchor_multiplicity;
      } else {
        denominator += 1.0 / dist[i];
      }
    }
    double step = 0.0;
    if (anchor_multiplicity == 0) {
      std::fill(numerator, numerator + d, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double w = 1.0 / dist[i];
        const double* p = rows[i];
        for (std::size_t k = 0; k < d; ++k) numerator[k] += w * p[k];
      }
      const double inv = 1.0 / denominator;
      step = advance(y, d, [&](std::size_t k) { return inv * numerator[k]; });
    } else {
      // Kuhn's optimality test at an input point: y is the geometric median
      // iff ||pull|| <= multiplicity of the anchor, where pull sums the unit
      // directions from y to the other points.
      scratch.pull.assign(d, 0.0);
      double* pull = scratch.pull.data();
      for (std::size_t i = 0; i < n; ++i) {
        if (dist[i] <= snap) continue;
        const double w = 1.0 / dist[i];
        const double* p = rows[i];
        for (std::size_t k = 0; k < d; ++k) pull[k] += (p[k] - y[k]) * w;
      }
      double pull_sq = 0.0;
      for (std::size_t k = 0; k < d; ++k) pull_sq += pull[k] * pull[k];
      const double pull_norm = std::sqrt(pull_sq);
      const double multiplicity = static_cast<double>(anchor_multiplicity);
      if (pull_norm <= multiplicity + 1e-12) return answer(y);
      // Otherwise push y off the anchor along the pull direction by the
      // standard Kuhn step: move by (||pull|| - mult)/denominator.
      const double move = (pull_norm - multiplicity) / denominator;
      const double alpha = move / pull_norm;
      step = advance(y, d,
                     [&](std::size_t k) { return y[k] + alpha * pull[k]; });
    }
    if (step <= step_tol) return answer(y);
  }
  result.converged = false;
  return answer(y);
}

RowClasses::RowClasses(const double* const* rows, std::size_t n,
                       std::size_t d)
    : class_(n) {
  // == on doubles is an equivalence once NaN is out, and a row holding a
  // NaN equals nothing, so comparing each row with the first row of every
  // earlier class finds its class.
  for (std::size_t i = 0; i < n; ++i) {
    class_[i] = i;
    for (std::size_t j = 0; j < i; ++j) {
      if (class_[j] == j && rows_equal(rows[j], rows[i], d)) {
        class_[i] = j;
        duplicates_ = true;
        break;
      }
    }
  }
}

std::size_t RowClasses::majority(
    const std::vector<std::size_t>& indices) const {
  // majority_row's scan over class ids: the same rows compare equal, so
  // the same first member wins.
  const std::size_t k = indices.size();
  for (std::size_t i = 0; 2 * (k - i) > k; ++i) {
    const std::size_t c = class_[indices[i]];
    std::size_t count = 1;
    for (std::size_t j = i + 1; j < k; ++j) {
      if (class_[indices[j]] == c) ++count;
    }
    if (2 * count > k) return indices[i];
  }
  return npos;
}

namespace {

WeiszfeldResult solve(const VectorList& points,
                      const WeiszfeldOptions& options, bool with_objective) {
  if (points.empty()) {
    throw std::invalid_argument("geometric_median: empty point list");
  }
  const std::size_t d = check_same_dimension(points);
  std::vector<const double*> rows;
  rows.reserve(points.size());
  for (const auto& p : points) rows.push_back(p.data());
  WeiszfeldScratch scratch;
  const WeiszfeldRowsResult view = geometric_median_rows(
      rows.data(), rows.size(), d, options, scratch, with_objective);
  WeiszfeldResult result;
  result.point.assign(view.point, view.point + d);
  result.iterations = view.iterations;
  result.converged = view.converged;
  result.objective = view.objective;
  return result;
}

}  // namespace

WeiszfeldResult geometric_median(const VectorList& points,
                                 const WeiszfeldOptions& options) {
  return solve(points, options, /*with_objective=*/true);
}

Vector geometric_median_point(const VectorList& points,
                              const WeiszfeldOptions& options) {
  return solve(points, options, /*with_objective=*/false).point;
}

Vector geometric_median_point(const double* const* rows, std::size_t n,
                              std::size_t d, const WeiszfeldOptions& options) {
  WeiszfeldScratch scratch;
  const double* point =
      geometric_median_rows(rows, n, d, options, scratch).point;
  return Vector(point, point + d);
}

WeiszfeldResult smoothed_geometric_median(const VectorList& points,
                                          double nu,
                                          const WeiszfeldOptions& options) {
  if (points.empty()) {
    throw std::invalid_argument("smoothed_geometric_median: empty list");
  }
  if (nu <= 0.0) {
    throw std::invalid_argument("smoothed_geometric_median: nu must be > 0");
  }
  const std::size_t d = check_same_dimension(points);
  WeiszfeldResult result;
  if (points.size() == 1) {
    result.point = points.front();
    result.converged = true;
    return result;
  }
  const double spread = Hyperbox::bounding(points).diagonal();
  const double step_tol = options.tolerance * (1.0 + spread);
  Vector y = mean(points);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    Vector numerator = zeros(d);
    double denominator = 0.0;
    for (const auto& p : points) {
      // Smoothing floor: the weight saturates once a point is within nu.
      const double w = 1.0 / std::max(nu, distance(p, y));
      axpy(numerator, w, p);
      denominator += w;
    }
    Vector next = scale(numerator, 1.0 / denominator);
    const double step = distance(next, y);
    y = std::move(next);
    if (step <= step_tol) {
      result.converged = true;
      break;
    }
  }
  result.point = std::move(y);
  result.objective = geometric_median_objective(points, result.point);
  return result;
}

}  // namespace bcl
