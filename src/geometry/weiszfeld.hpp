#pragma once
// Geometric median via the Weiszfeld algorithm (Weiszfeld 1937; Kuhn 1973),
// the same iterative scheme the paper uses for all GEOM-suffixed rules.
//
// The geometric median of v_1..v_n minimizes sum_i ||v_i - mu||_2
// (Definition 2.2).  Weiszfeld iterates
//     y <- ( sum_i v_i / ||v_i - y|| ) / ( sum_i 1 / ||v_i - y|| )
// with Kuhn's modification when the iterate lands on an input point: the
// point is optimal iff the norm of the summed unit directions to the other
// points is at most its multiplicity; otherwise the iterate is pushed along
// that direction.

#include <cstddef>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace bcl {

/// Options controlling the Weiszfeld iteration.
struct WeiszfeldOptions {
  std::size_t max_iterations = 1000;
  /// Stop when the iterate moves less than `tolerance * (1 + scale)`,
  /// where scale is the spread of the input points.
  double tolerance = 1e-10;
};

/// Result of a geometric-median computation.
struct WeiszfeldResult {
  Vector point;
  std::size_t iterations = 0;
  bool converged = false;
  /// sum_i ||v_i - point||, the minimized objective.
  double objective = 0.0;
};

/// Reusable buffers of the row-view kernel: the iterate, the Weiszfeld
/// numerator, Kuhn's pull (sized only once an iterate lands on an input
/// point) and one distance per row.  The buffers only grow, so one scratch
/// per thread serves any number of solves — BOX-GEOM runs every subset of
/// an inbox through one.  Their contents are the kernel's business.
struct WeiszfeldScratch {
  Vector y;
  Vector numerator;
  Vector pull;
  std::vector<double> distances;
};

/// Outcome of a row-view solve.  `point` addresses d doubles: one of the
/// input rows (one point, a majority, all rows equal) or the scratch's
/// iterate, so it stays valid only until the scratch is used again and
/// while the rows live.
struct WeiszfeldRowsResult {
  const double* point = nullptr;
  std::size_t iterations = 0;
  bool converged = false;
  /// sum_i ||v_i - point||; computed only when requested.
  double objective = 0.0;
};

/// The geometric-median kernel behind every GEOM rule: Weiszfeld with
/// Kuhn's anchor test over n borrowed rows of d doubles (rows[i] points at
/// row i), allocation-free once `scratch` has grown to (n, d).  Each
/// iteration computes every ||v_i - y|| once, each as one serial sum in
/// coordinate order; the result is bitwise identical to the VectorList
/// form below (which calls it).  `with_objective` adds one distance pass
/// for the objective.  Throws std::invalid_argument when n == 0.
WeiszfeldRowsResult geometric_median_rows(const double* const* rows,
                                          std::size_t n, std::size_t d,
                                          const WeiszfeldOptions& options,
                                          WeiszfeldScratch& scratch,
                                          bool with_objective = false);

/// The equality classes of n rows under the kernel's row equality
/// (coordinate-wise ==, so -0.0 equals 0.0 and a row holding a NaN equals
/// no row), built once so that every subset of the rows can settle the
/// kernel's majority test by counting class ids instead of comparing rows.
class RowClasses {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  RowClasses(const double* const* rows, std::size_t n, std::size_t d);

  /// Class of row i: the index of the first row equal to it.
  std::size_t of(std::size_t i) const { return class_[i]; }

  /// True when some class holds two or more rows.
  bool has_duplicates() const { return duplicates_; }

  /// The row geometric_median_rows returns through its majority test for
  /// the subset `indices` (ascending, at least 3 of them): the first
  /// member of a class holding more than half of the subset — that row
  /// with its own bits, not its class's first row.  npos when no class
  /// holds a majority.
  std::size_t majority(const std::vector<std::size_t>& indices) const;

 private:
  std::vector<std::size_t> class_;
  bool duplicates_ = false;
};

/// Computes the geometric median of a non-empty list.  For one point the
/// answer is the point; for two points the midpoint (every point on the
/// segment is a minimizer; the midpoint is the canonical symmetric choice).
WeiszfeldResult geometric_median(const VectorList& points,
                                 const WeiszfeldOptions& options = {});

/// Convenience wrapper returning only the median vector.
Vector geometric_median_point(const VectorList& points,
                              const WeiszfeldOptions& options = {});

/// The median vector of n borrowed rows of d doubles (a subset of an
/// inbox or batch, without copying it out).
Vector geometric_median_point(const double* const* rows, std::size_t n,
                              std::size_t d,
                              const WeiszfeldOptions& options = {});

/// The Fermat objective sum_i ||v_i - y||.
double geometric_median_objective(const VectorList& points, const Vector& y);

/// Smoothed Weiszfeld of Pillutla et al. (RFA): weights 1/max(nu, dist),
/// which removes the anchor singularity at the cost of solving a smoothed
/// objective.  nu is an absolute smoothing radius; the result converges to
/// the geometric median as nu -> 0.
WeiszfeldResult smoothed_geometric_median(const VectorList& points,
                                          double nu,
                                          const WeiszfeldOptions& options = {});

}  // namespace bcl
