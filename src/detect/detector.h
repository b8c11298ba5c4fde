// Leaf-level anomaly detectors.
//
// RAPMiner's input is the per-leaf anomaly verdict (paper §IV-B): the
// algorithm itself never looks at raw KPI values again.  The paper
// delegates detection to prior work; we provide the standard choices so
// the pipeline is end-to-end runnable:
//
//  * RelativeDeviationDetector — flag |f - v| / f above a threshold.
//    This matches the RAPMD injection recipe (Dev = (f - v)/(f + eps),
//    anomalous leaves get Dev in [0.1, 0.9], normal in [-0.02, 0.09]).
//  * NSigmaDetector — flag residuals v - f beyond n standard deviations
//    of the table's residual distribution.
//
// Detectors mutate the `anomalous` bit in place and report how many rows
// were flagged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dataset/leaf_table.h"

namespace rap::detect {

class Detector {
 public:
  virtual ~Detector() = default;

  /// Sets LeafRow::anomalous on every row; returns the number flagged.
  virtual std::uint32_t run(dataset::LeafTable& table) const = 0;

  virtual std::string name() const = 0;
};

/// Flags rows whose relative deviation (f - v) / max(f, eps) exceeds the
/// threshold in magnitude (or only positive drops when `two_sided` is
/// false — CDN failures shrink traffic, so forecast exceeds actual).
class RelativeDeviationDetector final : public Detector {
 public:
  explicit RelativeDeviationDetector(double threshold, bool two_sided = false,
                                     double eps = 1e-9)
      : threshold_(threshold), two_sided_(two_sided), eps_(eps) {}

  std::uint32_t run(dataset::LeafTable& table) const override;
  std::string name() const override { return "relative-deviation"; }

  double threshold() const noexcept { return threshold_; }

 private:
  double threshold_;
  bool two_sided_;
  double eps_;
};

/// Flags rows whose residual |v - f| exceeds n_sigma standard deviations
/// of the residuals across the table (robust to the units of the KPI).
class NSigmaDetector final : public Detector {
 public:
  explicit NSigmaDetector(double n_sigma) : n_sigma_(n_sigma) {}

  std::uint32_t run(dataset::LeafTable& table) const override;
  std::string name() const override { return "n-sigma"; }

 private:
  double n_sigma_;
};

/// Relative deviation of one row's actual value v from its forecast f,
/// as the detectors and the Squeeze baseline compute it:
/// (f - v) / max(|f|, eps).
double relativeDeviation(double v, double f, double eps = 1e-9) noexcept;

}  // namespace rap::detect
