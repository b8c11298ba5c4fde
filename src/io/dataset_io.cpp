#include "io/dataset_io.h"

#include <cmath>
#include <cstring>

#include "util/strings.h"

namespace rap::io {

using dataset::AttrId;
using dataset::AttributeCombination;
using dataset::LeafTable;
using dataset::Schema;

util::Status saveLeafTable(const LeafTable& table, const std::string& path) {
  const Schema& schema = table.schema();
  std::vector<CsvRow> rows;
  rows.reserve(table.size() + 1);

  CsvRow header;
  for (AttrId a = 0; a < schema.attributeCount(); ++a) {
    header.push_back(schema.attribute(a).name());
  }
  header.emplace_back("real");
  header.emplace_back("predict");
  header.emplace_back("label");
  rows.push_back(std::move(header));

  for (dataset::RowId id = 0; id < table.size(); ++id) {
    CsvRow out;
    out.reserve(static_cast<std::size_t>(schema.attributeCount()) + 3);
    for (AttrId a = 0; a < schema.attributeCount(); ++a) {
      out.push_back(schema.attribute(a).elementName(table.elem(id, a)));
    }
    out.push_back(util::strFormat("%.6g", table.v(id)));
    out.push_back(util::strFormat("%.6g", table.f(id)));
    out.push_back(table.isAnomalous(id) ? "1" : "0");
    rows.push_back(std::move(out));
  }
  return writeCsvFile(path, rows);
}

util::Result<LeafTable> loadLeafTable(const Schema& schema,
                                      const std::string& path) {
  LeafRowDecoder decoder(schema, path, /*csv_header=*/true);
  RAP_RETURN_IF_ERROR(streamCsvFile(
      path, [&decoder](CsvFields row) { (void)decoder.add(row); }));
  return std::move(decoder).finish();
}

util::Result<LeafTable> leafTableFromCsvRows(const Schema& schema,
                                             const std::vector<CsvRow>& rows,
                                             const std::string& source) {
  LeafRowDecoder decoder(schema, source, /*csv_header=*/true);
  decoder.reserve(rows.empty() ? 0 : rows.size() - 1);
  std::vector<std::string_view> views;
  for (const CsvRow& row : rows) {
    views.assign(row.begin(), row.end());
    if (!decoder.add(CsvFields(views)).isOk()) break;
  }
  return std::move(decoder).finish();
}

namespace {

// A decoder cell is a CSV view or a JSON LeafCell; these read either.
std::string_view textOf(std::string_view cell) noexcept { return cell; }
std::string_view textOf(const LeafCell& cell) noexcept { return cell.text; }
const double* numberOf(std::string_view) noexcept { return nullptr; }
const double* numberOf(const LeafCell& cell) noexcept {
  return cell.number ? &*cell.number : nullptr;
}

/// a == b without a memcmp call for the short strings element names
/// are: at most two fixed-size loads per side under eight bytes.
inline bool sameBytes(std::string_view a, std::string_view b) noexcept {
  const std::size_t n = a.size();
  if (n != b.size()) return false;
  if (n >= 8) return std::memcmp(a.data(), b.data(), n) == 0;
  if (n >= 4) {
    std::uint32_t a4[2];
    std::uint32_t b4[2];
    std::memcpy(&a4[0], a.data(), 4);
    std::memcpy(&a4[1], a.data() + n - 4, 4);
    std::memcpy(&b4[0], b.data(), 4);
    std::memcpy(&b4[1], b.data() + n - 4, 4);
    return a4[0] == b4[0] && a4[1] == b4[1];
  }
  return n == 0 ||
         (a[0] == b[0] && a[n / 2] == b[n / 2] && a[n - 1] == b[n - 1]);
}

/// Renders a cell for an error message: its text, or its number.
std::string cellText(std::string_view cell) { return std::string(cell); }
std::string cellText(const LeafCell& cell) {
  if (!cell.number) return std::string(cell.text);
  return util::strFormat("%.17g", *cell.number);
}

}  // namespace

LeafRowDecoder::LeafRowDecoder(const Schema& schema, std::string source,
                               bool csv_header)
    : source_(std::move(source)),
      table_(schema),
      header_pending_(csv_header),
      slots_(static_cast<std::size_t>(schema.attributeCount()),
             dataset::kWildcard) {
  columns_.reserve(slots_.size());
  for (AttrId a = 0; a < schema.attributeCount(); ++a) {
    columns_.push_back({&table_.schema().attribute(a), {}});
  }
}

const util::Status& LeafRowDecoder::add(CsvFields fields) {
  if (header_pending_) {
    header_pending_ = false;
    return status_;
  }
  return addRow(fields);
}

const util::Status& LeafRowDecoder::add(std::span<const LeafCell> cells) {
  return addRow(cells);
}

template <typename Cell>
const util::Status& LeafRowDecoder::addRow(std::span<const Cell> cells) {
  if (!status_.isOk()) return status_;
  line_ += 1;
  if (!decode(cells)) {
    status_ = util::Status(
        status_.code(),
        util::strFormat("%s:%zu: ", source_.c_str(), line_) + status_.message());
  }
  return status_;
}

template <typename Cell>
bool LeafRowDecoder::decode(std::span<const Cell> cells) {
  const std::size_t n_attrs = slots_.size();
  const std::size_t min_cols = n_attrs + 2;  // + real + predict
  if (cells.size() < min_cols) {
    status_ = util::Status::invalidArgument(util::strFormat(
        "expected >= %zu columns, got %zu", min_cols, cells.size()));
    return false;
  }

  for (std::size_t a = 0; a < n_attrs; ++a) {
    Column& column = columns_[a];
    const std::string_view text = textOf(cells[a]);
    // Snapshots list leaves mostly in order, so a slot usually repeats
    // the previous row's element: one string compare instead of a probe.
    if (slots_[a] != dataset::kWildcard && sameBytes(text, column.last)) {
      continue;
    }
    const dataset::ElemId elem = column.attr->findElement(text);
    if (elem == dataset::Attribute::kNoElement) {
      status_ = util::Status::invalidArgument(
          column.attr->elementId(text).status().message());
      return false;
    }
    slots_[a] = elem;
    column.last = column.attr->elementName(elem);
  }

  double kpi[2];
  for (std::size_t k = 0; k < 2; ++k) {
    const Cell& cell = cells[n_attrs + k];
    if (const double* number = numberOf(cell)) {
      // The accept set of the number's text form: strtod reports a
      // subnormal as out of range.
      if (std::fpclassify(*number) == FP_SUBNORMAL) {
        status_ = util::Status::outOfRange("number out of range: '" +
                                           cellText(cell) + "'");
        return false;
      }
      kpi[k] = *number;
      continue;
    }
    if (util::parseDoubleFast(textOf(cell), &kpi[k])) continue;
    auto value = util::parseDouble(textOf(cell));
    if (!value) {
      status_ = value.status();
      return false;
    }
    kpi[k] = value.value();
  }
  // NaN/Inf KPI values poison every ratio downstream (deviation,
  // RAPScore); reject them here with the row that carried them.
  if (!std::isfinite(kpi[0]) || !std::isfinite(kpi[1])) {
    status_ = util::Status::invalidArgument(
        util::strFormat("non-finite KPI value (real=%s predict=%s)",
                        cellText(cells[n_attrs]).c_str(),
                        cellText(cells[n_attrs + 1]).c_str()));
    return false;
  }

  bool anomalous = false;
  if (cells.size() > min_cols) {
    const Cell& label = cells[min_cols];
    bool valid = true;
    if (const double* number = numberOf(label)) {
      valid = *number == 0.0 || *number == 1.0;
      anomalous = *number == 1.0;
    } else {
      // A bare "0" or "1" (every label a snapshot carries) skips trim().
      const std::string_view raw = textOf(label);
      const std::string_view text =
          raw == "0" || raw == "1" ? raw : util::trim(raw);
      valid = text.empty() || text == "0" || text == "1";
      anomalous = text == "1";
    }
    if (!valid) {
      status_ = util::Status::invalidArgument(
          "label must be 0, 1 or empty, got '" + cellText(label) + "'");
      return false;
    }
  }
  table_.addRow(slots_, kpi[0], kpi[1], anomalous);
  return true;
}

util::Result<LeafTable> LeafRowDecoder::finish() && {
  if (!status_.isOk()) return status_;
  if (header_pending_) {
    return util::Status::invalidArgument("'" + source_ + "' is empty");
  }
  return std::move(table_);
}

util::Status saveSchema(const Schema& schema, const std::string& path) {
  std::vector<CsvRow> rows;
  for (AttrId a = 0; a < schema.attributeCount(); ++a) {
    const auto& attr = schema.attribute(a);
    CsvRow row{attr.name()};
    for (dataset::ElemId e = 0; e < attr.cardinality(); ++e) {
      row.push_back(attr.elementName(e));
    }
    rows.push_back(std::move(row));
  }
  return writeCsvFile(path, rows);
}

util::Result<Schema> loadSchema(const std::string& path) {
  auto parsed = readCsvFile(path);
  if (!parsed) return parsed.status();
  std::vector<dataset::AttributeSpec> attrs;
  for (const auto& row : parsed.value()) {
    if (row.size() < 2) {
      return util::Status::invalidArgument(
          "schema row needs a name and at least one element in '" + path + "'");
    }
    attrs.push_back(
        {row[0], std::vector<std::string>(row.begin() + 1, row.end())});
  }
  if (attrs.empty()) {
    return util::Status::invalidArgument("schema file '" + path + "' is empty");
  }
  auto schema = Schema::fromSpec(std::move(attrs));
  if (!schema) {
    return util::Status::invalidArgument(schema.status().message() + " in '" +
                                         path + "'");
  }
  return schema;
}

util::Status saveGroundTruth(const Schema& schema,
                             const std::vector<GroundTruthEntry>& entries,
                             const std::string& path) {
  std::vector<CsvRow> rows;
  rows.push_back({"case_id", "raps"});
  for (const auto& entry : entries) {
    std::vector<std::string> raps;
    raps.reserve(entry.raps.size());
    for (const auto& ac : entry.raps) raps.push_back(ac.toString(schema));
    rows.push_back({entry.case_id, util::join(raps, ";")});
  }
  return writeCsvFile(path, rows);
}

util::Result<LoadedDataset> loadDatasetDirectory(const std::string& dir) {
  auto schema = loadSchema(dir + "/schema.csv");
  if (!schema) return schema.status();

  auto truth = loadGroundTruth(schema.value(), dir + "/injection_info.csv");
  if (!truth) return truth.status();

  LoadedDataset out{std::move(schema.value()), {}};
  out.cases.reserve(truth->size());
  for (auto& entry : truth.value()) {
    auto table = loadLeafTable(out.schema, dir + "/" + entry.case_id + ".csv");
    if (!table) return table.status();
    out.cases.push_back(gen::Case{std::move(entry.case_id),
                                  std::move(table.value()),
                                  std::move(entry.raps)});
  }
  return out;
}

util::Result<std::vector<GroundTruthEntry>> loadGroundTruth(
    const Schema& schema, const std::string& path) {
  auto parsed = readCsvFile(path);
  if (!parsed) return parsed.status();
  const auto& rows = parsed.value();
  std::vector<GroundTruthEntry> entries;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const CsvRow& row = rows[r];
    if (row.size() < 2) {
      return util::Status::invalidArgument(
          util::strFormat("%s:%zu: expected case_id,raps", path.c_str(), r + 1));
    }
    GroundTruthEntry entry;
    entry.case_id = row[0];
    for (const auto& text : util::split(row[1], ';')) {
      if (util::trim(text).empty()) continue;
      auto ac = AttributeCombination::parse(schema, text);
      if (!ac) return ac.status();
      entry.raps.push_back(std::move(ac.value()));
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace rap::io
