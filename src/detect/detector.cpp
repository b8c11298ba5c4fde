#include "detect/detector.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/descriptive.h"

namespace rap::detect {

namespace {

void publishDetectMetrics(const std::string& detector, std::uint64_t rows,
                          std::uint64_t flagged) {
  obs::MetricsRegistry& registry = obs::defaultRegistry();
  const obs::Labels labels{{"detector", detector}};
  registry.counter("rap_detect_runs_total", labels).increment();
  registry.counter("rap_detect_rows_total", labels).increment(rows);
  registry.counter("rap_detect_rows_flagged_total", labels).increment(flagged);
}

}  // namespace

double relativeDeviation(double v, double f, double eps) noexcept {
  const double denom = std::max(std::fabs(f), eps);
  return (f - v) / denom;
}

std::uint32_t RelativeDeviationDetector::run(dataset::LeafTable& table) const {
  RAP_TRACE_SPAN("detect/relative_deviation");
  std::uint32_t flagged = 0;
  for (dataset::RowId id = 0; id < table.size(); ++id) {
    const double dev = relativeDeviation(table.v(id), table.f(id), eps_);
    const bool anomalous =
        two_sided_ ? std::fabs(dev) > threshold_ : dev > threshold_;
    table.setAnomalous(id, anomalous);
    flagged += anomalous ? 1 : 0;
  }
  if (obs::metricsEnabled()) publishDetectMetrics(name(), table.size(), flagged);
  return flagged;
}

std::uint32_t NSigmaDetector::run(dataset::LeafTable& table) const {
  RAP_TRACE_SPAN("detect/n_sigma");
  std::vector<double> residuals;
  residuals.reserve(table.size());
  for (dataset::RowId id = 0; id < table.size(); ++id) {
    residuals.push_back(table.v(id) - table.f(id));
  }
  const double mu = stats::mean(residuals);
  const double sigma = stats::stddev(residuals);
  std::uint32_t flagged = 0;
  for (dataset::RowId id = 0; id < table.size(); ++id) {
    const bool anomalous =
        sigma > 0.0 && std::fabs(residuals[id] - mu) > n_sigma_ * sigma;
    table.setAnomalous(id, anomalous);
    flagged += anomalous ? 1 : 0;
  }
  if (obs::metricsEnabled()) publishDetectMetrics(name(), table.size(), flagged);
  return flagged;
}

}  // namespace rap::detect
