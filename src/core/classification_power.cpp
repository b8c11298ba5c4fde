#include "core/classification_power.h"

#include <algorithm>
#include <cmath>

#include "stats/entropy.h"

namespace rap::core {

using dataset::AttrId;
using dataset::LeafTable;

std::vector<double> classificationPowers(const LeafTable& table) {
  const auto& schema = table.schema();
  const auto n_attrs = schema.attributeCount();

  // One pass: per-attribute per-element branch counts.  Row by row, so
  // consecutive updates go to different attributes' counters; a sweep
  // per column would chain increments of one counter through memory.
  std::vector<std::vector<stats::BranchCounts>> branches(
      static_cast<std::size_t>(n_attrs));
  for (AttrId a = 0; a < n_attrs; ++a) {
    branches[static_cast<std::size_t>(a)].resize(
        static_cast<std::size_t>(schema.cardinality(a)));
  }
  // Each attribute's counters and field of the packed leaf key, looked
  // up once rather than per row.
  struct Field {
    stats::BranchCounts* counts;
    std::uint64_t mask;
    std::int32_t shift;
  };
  std::vector<Field> fields;
  for (AttrId a = 0; a < n_attrs; ++a) {
    fields.push_back({branches[static_cast<std::size_t>(a)].data(),
                      schema.fieldMask(a), schema.fieldShift(a)});
  }
  std::uint64_t positives = 0;
  for (dataset::RowId id = 0; id < table.size(); ++id) {
    const std::uint64_t positive = table.isAnomalous(id) ? 1 : 0;
    const std::uint64_t key = table.key(id);
    positives += positive;
    for (const Field& field : fields) {
      auto& b = field.counts[(key & field.mask) >> field.shift];
      b.total += 1;
      b.positives += positive;
    }
  }

  std::vector<double> powers(static_cast<std::size_t>(n_attrs), 0.0);
  for (AttrId a = 0; a < n_attrs; ++a) {
    powers[static_cast<std::size_t>(a)] = stats::classificationPower(
        positives, table.size(), branches[static_cast<std::size_t>(a)]);
  }
  return powers;
}

std::vector<AttrId> deleteRedundantAttributes(const LeafTable& table,
                                              double t_cp,
                                              std::vector<double>* powers_out) {
  const std::vector<double> powers = classificationPowers(table);
  if (powers_out != nullptr) *powers_out = powers;

  std::vector<AttrId> kept;
  for (AttrId a = 0; a < table.schema().attributeCount(); ++a) {
    if (powers[static_cast<std::size_t>(a)] > t_cp) kept.push_back(a);
  }
  // Algorithm 1 line 7: sort by CP reversely (descending); stable id
  // tie-break keeps the order deterministic.
  std::sort(kept.begin(), kept.end(), [&powers](AttrId a, AttrId b) {
    const double pa = powers[static_cast<std::size_t>(a)];
    const double pb = powers[static_cast<std::size_t>(b)];
    return pa != pb ? pa > pb : a < b;
  });
  return kept;
}

double decreaseRatio(std::int32_t n, std::int32_t k) noexcept {
  if (n <= 0 || k <= 0) return 0.0;
  if (k >= n) return 1.0;
  const double total = std::pow(2.0, n) - 1.0;
  const double remaining = std::pow(2.0, n - k) - 1.0;
  return (total - remaining) / total;
}

}  // namespace rap::core
