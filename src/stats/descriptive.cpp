#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace xp::stats {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) {
    const double d = x - m;
    ss += d * d;
  }
  return ss / static_cast<double>(n - 1);
}

double stddev(std::span<const double> xs) noexcept {
  return std::sqrt(variance(xs));
}

double min(std::span<const double> xs) noexcept {
  double result = std::numeric_limits<double>::infinity();
  for (double x : xs) result = std::min(result, x);
  return result;
}

double max(std::span<const double> xs) noexcept {
  double result = -std::numeric_limits<double>::infinity();
  for (double x : xs) result = std::max(result, x);
  return result;
}

QuantilePosition quantile_position(std::size_t n, double q) noexcept {
  const double h = std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
  QuantilePosition at;
  at.lo = static_cast<std::size_t>(h);
  at.hi = std::min(at.lo + 1, n - 1);
  at.frac = h - static_cast<double>(at.lo);
  return at;
}

double quantile_sorted(std::span<const double> sorted, double q) noexcept {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const QuantilePosition at = quantile_position(sorted.size(), q);
  return at.interpolate(sorted[at.lo], sorted[at.hi]);
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  return quantile_sorted(copy, q);
}

}  // namespace xp::stats
