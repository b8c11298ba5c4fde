#include "obs/metrics.h"

#include <algorithm>

#include "util/json_writer.h"
#include "util/status.h"

namespace rap::obs {

namespace internal {

std::atomic<bool> g_metrics_enabled{false};

}  // namespace internal

void setMetricsEnabled(bool enabled) noexcept {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

MetricsRegistry& defaultRegistry() {
  static MetricsRegistry registry;
  return registry;
}

// ----------------------------------------------------------------- Gauge

void Gauge::add(double delta) noexcept {
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

// ------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  RAP_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  RAP_CHECK(std::adjacent_find(bounds_.begin(), bounds_.end()) ==
            bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucketCounts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::vector<double> exponentialBuckets(double start, double factor,
                                       std::int32_t count) {
  RAP_CHECK(start > 0.0 && factor > 1.0 && count >= 1);
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double bound = start;
  for (std::int32_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> linearBuckets(double start, double width,
                                  std::int32_t count) {
  RAP_CHECK(width > 0.0 && count >= 1);
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  for (std::int32_t i = 0; i < count; ++i) {
    bounds.push_back(start + width * static_cast<double>(i));
  }
  return bounds;
}

// -------------------------------------------------------------- Registry

MetricsRegistry::Series& MetricsRegistry::findOrCreate(const std::string& name,
                                                       Kind kind,
                                                       const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.kind = kind;
  } else {
    RAP_CHECK_MSG(family.kind == kind,
                  "metric '" << name << "' re-registered with another kind");
  }
  for (const auto& series : family.series) {
    if (series->labels == labels) return *series;
  }
  family.series.push_back(std::make_unique<Series>());
  family.series.back()->labels = labels;
  return *family.series.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  Series& series = findOrCreate(name, Kind::kCounter, labels);
  if (!series.counter) series.counter = std::make_unique<Counter>();
  return *series.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  Series& series = findOrCreate(name, Kind::kGauge, labels);
  if (!series.gauge) series.gauge = std::make_unique<Gauge>();
  return *series.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const Labels& labels) {
  Series& series = findOrCreate(name, Kind::kHistogram, labels);
  if (!series.histogram) {
    series.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *series.histogram;
}

std::size_t MetricsRegistry::seriesCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [name, family] : families_) n += family.series.size();
  return n;
}

namespace {

/// Prometheus text-exposition label-value escaping: exactly backslash,
/// double-quote, and line feed (the spec's three), everything else —
/// tabs and other control bytes included — passes through verbatim.
std::string promEscapeLabelValue(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// A metric value or bucket bound as text: integral values without a
/// fraction, the rest %.9g.
std::string formatMetric(double v) {
  return util::formatNumber(v, util::NumberFormat::kMetric);
}

/// `{key="value",...}` or "" for the empty label set; `extra` appends
/// one more pair (the histogram `le` bound).
std::string labelBlock(const Labels& labels, const std::string& extra_key = "",
                       const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  auto append = [&](const std::string& k, const std::string& v) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += promEscapeLabelValue(v);
    out += "\"";
  };
  for (const auto& [k, v] : labels) append(k, v);
  if (!extra_key.empty()) append(extra_key, extra_value);
  out += "}";
  return out;
}

const char* kindName(int kind) {
  switch (kind) {
    case 0:
      return "counter";
    case 1:
      return "gauge";
    default:
      return "histogram";
  }
}

}  // namespace

std::string MetricsRegistry::renderPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, family] : families_) {
    out += "# TYPE " + name + " " +
           kindName(static_cast<int>(family.kind)) + "\n";
    for (const auto& series : family.series) {
      switch (family.kind) {
        case Kind::kCounter:
          out += name + labelBlock(series->labels) + " " +
                 std::to_string(series->counter->value()) + "\n";
          break;
        case Kind::kGauge:
          out += name + labelBlock(series->labels) + " " +
                 formatMetric(series->gauge->value()) + "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *series->histogram;
          const auto counts = h.bucketCounts();
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            cumulative += counts[i];
            out += name + "_bucket" +
                   labelBlock(series->labels, "le",
                              formatMetric(h.bounds()[i])) +
                   " " + std::to_string(cumulative) + "\n";
          }
          cumulative += counts.back();
          out += name + "_bucket" + labelBlock(series->labels, "le", "+Inf") +
                 " " + std::to_string(cumulative) + "\n";
          out += name + "_sum" + labelBlock(series->labels) + " " +
                 formatMetric(h.sum()) + "\n";
          out += name + "_count" + labelBlock(series->labels) + " " +
                 std::to_string(h.count()) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsRegistry::renderJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  util::JsonWriter w;
  w.beginObject();
  w.beginArray("metrics");
  for (const auto& [name, family] : families_) {
    w.beginObject();
    w.field("name", name);
    w.field("type", kindName(static_cast<int>(family.kind)));
    w.beginArray("series");
    for (const auto& series : family.series) {
      w.beginObject();
      w.beginObject("labels");
      for (const auto& [k, v] : series->labels) w.field(k, v);
      w.endObject();
      switch (family.kind) {
        case Kind::kCounter:
          w.field("value", series->counter->value());
          break;
        case Kind::kGauge:
          w.field("value", series->gauge->value(), util::NumberFormat::kMetric);
          break;
        case Kind::kHistogram: {
          const Histogram& h = *series->histogram;
          const auto counts = h.bucketCounts();
          w.field("count", h.count());
          w.field("sum", h.sum(), util::NumberFormat::kMetric);
          w.beginArray("buckets");
          for (std::size_t i = 0; i < counts.size(); ++i) {
            w.beginObject();
            w.field("le", i < h.bounds().size() ? formatMetric(h.bounds()[i])
                                                : std::string("+Inf"));
            w.field("count", counts[i]);
            w.endObject();
          }
          w.endArray();
          break;
        }
      }
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return std::move(w).str();
}

}  // namespace rap::obs
