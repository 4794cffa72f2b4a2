// Shared pieces of the benchmark: clocks, order statistics, the metric
// list every run prints, allocation counting and resident-set readings.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Nearest-rank quantile (q in [0, 1]) of `values`; sorts its copy.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Mean of the values ranked within [q - half_width, q + half_width).
/// Simulated latencies take few distinct values, so a plain order
/// statistic lands on the same value for most seeds; the band mean still
/// estimates the quantile but moves with every value near it.
[[nodiscard]] double band_quantile(std::vector<double> values, double q,
                                   double half_width);
[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Heap allocations made by this process so far (every operator new).
[[nodiscard]] std::uint64_t allocations();
/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// Metrics of one run, printed in insertion order.
class Metrics {
 public:
  /// Set (or overwrite) a metric.
  void set(const std::string& name, const std::string& unit, double value);
  /// One human-readable line per metric.
  void print_table() const;
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::string> names_;
  std::vector<std::string> units_;
  std::vector<double> values_;
};

/// Operation accounting: what a run tried and what went wrong.
struct Outcome {
  std::uint64_t publishes = 0;
  std::uint64_t expected_deliveries = 0;
  std::uint64_t transitions = 0;
  std::uint64_t failed_publishes = 0;
  std::uint64_t failed_deliveries = 0;
  std::uint64_t failed_transitions = 0;
  /// Every violated correctness check, one line each.
  std::vector<std::string> violations;

  [[nodiscard]] std::uint64_t attempted() const {
    return publishes + expected_deliveries + transitions;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return failed_publishes + failed_deliveries + failed_transitions;
  }
  void violate(std::string what) { violations.push_back(std::move(what)); }
};

}  // namespace perfbench
