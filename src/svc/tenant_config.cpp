#include "svc/tenant_config.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "io/dataset_io.h"
#include "util/strings.h"

namespace rap::svc {

namespace {

util::Status badField(const std::string& field, const std::string& why) {
  return util::Status::invalidArgument("tenant spec field '" + field + "': " +
                                       why);
}

/// Finite-number member or error; integers additionally round-trip.
util::Result<double> numberField(const JsonValue& value,
                                 const std::string& field) {
  if (!value.isNumber() || !std::isfinite(value.number_value)) {
    return badField(field, "expected a finite number");
  }
  return value.number_value;
}

util::Result<std::int64_t> intField(const JsonValue& value,
                                    const std::string& field,
                                    std::int64_t min_value,
                                    std::int64_t max_value) {
  const auto number = numberField(value, field);
  RAP_RETURN_IF_ERROR(number.status());
  const double d = number.value();
  if (d != std::floor(d) || d < static_cast<double>(min_value) ||
      d > static_cast<double>(max_value)) {
    return badField(field, util::strFormat("expected an integer in [%lld, %lld]",
                                           static_cast<long long>(min_value),
                                           static_cast<long long>(max_value)));
  }
  return static_cast<std::int64_t>(d);
}

util::Result<dataset::Schema> parseSchemaField(const JsonValue& value,
                                               const std::string& base_dir) {
  if (!value.isObject()) {
    return badField("schema", "expected an object");
  }
  if (const JsonValue* builtin = value.find("builtin")) {
    if (!builtin->isString()) return badField("schema.builtin", "expected a string");
    if (builtin->string_value == "tiny") return dataset::Schema::tiny();
    if (builtin->string_value == "cdn") return dataset::Schema::cdn();
    return badField("schema.builtin",
                    "'" + builtin->string_value + "' is not one of tiny|cdn");
  }
  if (const JsonValue* path = value.find("path")) {
    if (!path->isString()) return badField("schema.path", "expected a string");
    std::string resolved = path->string_value;
    if (!base_dir.empty() && !resolved.empty() && resolved.front() != '/') {
      resolved = base_dir + "/" + resolved;
    }
    return io::loadSchema(resolved);
  }
  if (const JsonValue* attrs = value.find("attributes")) {
    if (!attrs->isArray() || attrs->array_value.empty()) {
      return badField("schema.attributes", "expected a non-empty array");
    }
    std::vector<dataset::AttributeSpec> attributes;
    attributes.reserve(attrs->array_value.size());
    for (const JsonValue& attr : attrs->array_value) {
      const JsonValue* name = attr.find("name");
      const JsonValue* elements = attr.find("elements");
      if (name == nullptr || !name->isString() || elements == nullptr ||
          !elements->isArray() || elements->array_value.empty()) {
        return badField("schema.attributes",
                        "each entry needs \"name\" and a non-empty "
                        "\"elements\" array");
      }
      std::vector<std::string> names;
      names.reserve(elements->array_value.size());
      for (const JsonValue& element : elements->array_value) {
        if (!element.isString()) {
          return badField("schema.attributes", "elements must be strings");
        }
        names.push_back(element.string_value);
      }
      attributes.push_back({name->string_value, std::move(names)});
    }
    return dataset::Schema::fromSpec(std::move(attributes));
  }
  return badField("schema",
                  "expected one of \"builtin\", \"path\", \"attributes\"");
}

util::Status parseOverloadField(const JsonValue& value, TenantSpec& spec) {
  if (!value.isObject()) return badField("overload", "expected an object");
  for (const auto& [key, field] : value.object_value) {
    const std::string path = "overload." + key;
    if (key == "target_delay_seconds") {
      const auto v = numberField(field, path);
      RAP_RETURN_IF_ERROR(v.status());
      if (v.value() < 0.0) return badField(path, "must be >= 0");
      spec.service.jobs.overload.target_delay_seconds = v.value();
    } else if (key == "interval_seconds") {
      const auto v = numberField(field, path);
      RAP_RETURN_IF_ERROR(v.status());
      if (v.value() <= 0.0) return badField(path, "must be > 0");
      spec.service.jobs.overload.interval_seconds = v.value();
    } else {
      return badField(path, "unknown field");
    }
  }
  return util::Status::ok();
}

util::Status parseBreakerField(const JsonValue& value, TenantSpec& spec) {
  if (!value.isObject()) return badField("breaker", "expected an object");
  for (const auto& [key, field] : value.object_value) {
    const std::string path = "breaker." + key;
    if (key == "failure_threshold") {
      const auto v = intField(field, path, 0, 1 << 20);
      RAP_RETURN_IF_ERROR(v.status());
      spec.service.breaker.failure_threshold =
          static_cast<std::size_t>(v.value());
    } else if (key == "open_seconds") {
      const auto v = numberField(field, path);
      RAP_RETURN_IF_ERROR(v.status());
      if (v.value() <= 0.0) return badField(path, "must be > 0");
      spec.service.breaker.open_seconds = v.value();
    } else if (key == "half_open_probes") {
      const auto v = intField(field, path, 1, 1 << 20);
      RAP_RETURN_IF_ERROR(v.status());
      spec.service.breaker.half_open_probes =
          static_cast<std::size_t>(v.value());
    } else {
      return badField(path, "unknown field");
    }
  }
  return util::Status::ok();
}

util::Status parseStreamingField(const JsonValue& value,
                                 TenantSpec& spec) {
  if (!value.isObject()) return badField("streaming", "expected an object");
  spec.streaming = true;
  // Streaming tenants default to localizing every non-empty window —
  // the ingest API's natural contract — unless the spec asks for the
  // alarm-gated paper workflow.
  spec.stream.trigger = stream::TriggerPolicy::kEveryWindow;
  for (const auto& [key, field] : value.object_value) {
    const std::string path = "streaming." + key;
    if (key == "shards") {
      const auto v = intField(field, path, 1, 1024);
      RAP_RETURN_IF_ERROR(v.status());
      spec.stream.shards = static_cast<std::int32_t>(v.value());
    } else if (key == "queue_capacity") {
      const auto v = intField(field, path, 1, 1 << 28);
      RAP_RETURN_IF_ERROR(v.status());
      spec.stream.queue_capacity = static_cast<std::size_t>(v.value());
    } else if (key == "window_width") {
      const auto v = intField(field, path, 1, INT64_MAX / 4);
      RAP_RETURN_IF_ERROR(v.status());
      spec.stream.window_width = v.value();
    } else if (key == "allowed_lateness") {
      const auto v = intField(field, path, 0, INT64_MAX / 4);
      RAP_RETURN_IF_ERROR(v.status());
      spec.stream.allowed_lateness = v.value();
    } else if (key == "trigger") {
      if (!field.isString()) return badField(path, "expected a string");
      if (field.string_value == "on-alarm") {
        spec.stream.trigger = stream::TriggerPolicy::kOnAlarm;
      } else if (field.string_value == "anomalous-window") {
        spec.stream.trigger = stream::TriggerPolicy::kAnomalousWindow;
      } else if (field.string_value == "every-window") {
        spec.stream.trigger = stream::TriggerPolicy::kEveryWindow;
      } else {
        return badField(path,
                        "'" + field.string_value +
                            "' is not one of on-alarm|anomalous-window|"
                            "every-window");
      }
    } else if (key == "top_k") {
      const auto v = intField(field, path, 1, 1 << 20);
      RAP_RETURN_IF_ERROR(v.status());
      spec.stream.top_k = static_cast<std::int32_t>(v.value());
    } else if (key == "detect_threshold") {
      const auto v = numberField(field, path);
      RAP_RETURN_IF_ERROR(v.status());
      if (v.value() < 0.0) return badField(path, "must be >= 0");
      spec.stream.detect_threshold = v.value();
    } else if (key == "localize_deadline_seconds") {
      const auto v = numberField(field, path);
      RAP_RETURN_IF_ERROR(v.status());
      if (v.value() < 0.0) return badField(path, "must be >= 0");
      spec.stream.localize_deadline_seconds = v.value();
    } else if (key == "lag_sample_interval_seconds") {
      const auto v = numberField(field, path);
      RAP_RETURN_IF_ERROR(v.status());
      if (v.value() < 0.0) return badField(path, "must be >= 0");
      spec.stream.lag_sample_interval_seconds = v.value();
    } else if (key == "checkpoint_path") {
      if (!field.isString()) return badField(path, "expected a string");
      spec.checkpoint_path = field.string_value;
    } else if (key == "checkpoint_interval_seconds") {
      const auto v = numberField(field, path);
      RAP_RETURN_IF_ERROR(v.status());
      if (v.value() < 0.0) return badField(path, "must be >= 0");
      spec.checkpoint_interval_seconds = v.value();
    } else {
      return badField(path, "unknown field");
    }
  }
  return util::Status::ok();
}

}  // namespace

util::Status validateTenantName(const std::string& name) {
  if (name.empty() || name.size() > 64) {
    return util::Status::invalidArgument(
        "tenant name must be 1-64 characters");
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) {
      return util::Status::invalidArgument(
          "tenant name '" + name +
          "' may only contain letters, digits, '_' and '-'");
    }
  }
  return util::Status::ok();
}

util::Result<TenantSpec> parseTenantSpec(const JsonValue& doc,
                                         std::string name,
                                         const std::string& base_dir) {
  RAP_RETURN_IF_ERROR(validateTenantName(name));
  if (!doc.isObject()) {
    return util::Status::invalidArgument("tenant spec must be a JSON object");
  }

  TenantSpec spec;
  spec.name = std::move(name);
  bool have_schema = false;

  for (const auto& [key, field] : doc.object_value) {
    if (key == "name") {
      // Allowed (the sidecar carries it); the URL/entry name wins and a
      // mismatch is an error so a copy-paste slip never renames a tenant.
      if (!field.isString() || field.string_value != spec.name) {
        return badField("name", "does not match tenant name '" + spec.name +
                                    "'");
      }
    } else if (key == "schema") {
      auto schema = parseSchemaField(field, base_dir);
      RAP_RETURN_IF_ERROR(schema.status());
      spec.schema = std::move(schema.value());
      have_schema = true;
    } else if (key == "k") {
      const auto v = intField(field, key, 1, 1 << 20);
      RAP_RETURN_IF_ERROR(v.status());
      spec.service.default_k = static_cast<std::int32_t>(v.value());
    } else if (key == "t_cp") {
      const auto v = numberField(field, key);
      RAP_RETURN_IF_ERROR(v.status());
      spec.miner.cp.t_cp = v.value();
    } else if (key == "t_conf") {
      const auto v = numberField(field, key);
      RAP_RETURN_IF_ERROR(v.status());
      spec.miner.search.t_conf = v.value();
    } else if (key == "deadline") {
      const auto v = numberField(field, key);
      RAP_RETURN_IF_ERROR(v.status());
      spec.miner.search.deadline_seconds = v.value();
    } else if (key == "detect_threshold") {
      const auto v = numberField(field, key);
      RAP_RETURN_IF_ERROR(v.status());
      if (v.value() < 0.0) return badField(key, "must be >= 0");
      spec.service.default_detect_threshold = v.value();
    } else if (key == "sync_row_limit") {
      const auto v = intField(field, key, 0, 1 << 30);
      RAP_RETURN_IF_ERROR(v.status());
      spec.service.sync_row_limit = static_cast<std::size_t>(v.value());
    } else if (key == "queue_capacity") {
      const auto v = intField(field, key, 0, 1 << 24);
      RAP_RETURN_IF_ERROR(v.status());
      spec.service.jobs.queue_capacity = static_cast<std::size_t>(v.value());
    } else if (key == "max_active") {
      const auto v = intField(field, key, 0, 1024);
      RAP_RETURN_IF_ERROR(v.status());
      spec.service.jobs.max_active = static_cast<std::size_t>(v.value());
    } else if (key == "retry_after_seconds") {
      const auto v = numberField(field, key);
      RAP_RETURN_IF_ERROR(v.status());
      if (v.value() < 0.0) return badField(key, "must be >= 0");
      // A day: the hint goes out as whole Retry-After seconds.
      if (v.value() > 86400.0) return badField(key, "must be <= 86400");
      spec.service.jobs.retry_after_seconds = v.value();
    } else if (key == "max_finished_jobs") {
      const auto v = intField(field, key, 1, 1 << 24);
      RAP_RETURN_IF_ERROR(v.status());
      spec.service.jobs.max_finished_jobs =
          static_cast<std::size_t>(v.value());
    } else if (key == "cache_capacity") {
      const auto v = intField(field, key, 0, 1 << 24);
      RAP_RETURN_IF_ERROR(v.status());
      spec.service.cache.capacity = static_cast<std::size_t>(v.value());
    } else if (key == "cache_ttl_seconds") {
      const auto v = numberField(field, key);
      RAP_RETURN_IF_ERROR(v.status());
      if (v.value() < 0.0) return badField(key, "must be >= 0");
      spec.service.cache.ttl_seconds = v.value();
    } else if (key == "max_deadline_seconds") {
      const auto v = numberField(field, key);
      RAP_RETURN_IF_ERROR(v.status());
      if (v.value() < 0.0) return badField(key, "must be >= 0");
      spec.service.max_deadline_seconds = v.value();
    } else if (key == "overload") {
      RAP_RETURN_IF_ERROR(parseOverloadField(field, spec));
    } else if (key == "breaker") {
      RAP_RETURN_IF_ERROR(parseBreakerField(field, spec));
    } else if (key == "streaming") {
      RAP_RETURN_IF_ERROR(parseStreamingField(field, spec));
    } else {
      return badField(key, "unknown field");
    }
  }

  if (!have_schema) {
    return util::Status::invalidArgument(
        "tenant spec is missing the \"schema\" field");
  }
  // One validation gate for the miner config, same as the localize
  // handler's override path.
  RAP_RETURN_IF_ERROR(
      core::RapMiner::Builder().config(spec.miner).validate());
  if (spec.streaming) {
    spec.stream.miner = spec.miner;
    spec.stream.detect_threshold =
        spec.stream.detect_threshold == 0.095
            ? spec.service.default_detect_threshold
            : spec.stream.detect_threshold;
    spec.stream.top_k = spec.stream.top_k == 5 ? spec.service.default_k
                                               : spec.stream.top_k;
  }
  return spec;
}

util::Result<std::vector<TenantSpec>> loadTenantSidecar(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return util::Status::notFound("cannot open tenant sidecar '" + path +
                                  "'");
  }
  std::ostringstream text;
  text << in.rdbuf();

  auto doc = JsonValue::parse(text.str());
  if (!doc.isOk()) {
    return util::Status::invalidArgument("tenant sidecar '" + path +
                                         "': " + doc.status().message());
  }
  const JsonValue* tenants = doc->find("tenants");
  if (!doc->isObject() || tenants == nullptr || !tenants->isArray()) {
    return util::Status::invalidArgument(
        "tenant sidecar '" + path +
        "' must be {\"tenants\": [{...}, ...]}");
  }

  // Relative schema paths resolve next to the sidecar file.
  std::string base_dir;
  const std::size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) base_dir = path.substr(0, slash);

  std::vector<TenantSpec> specs;
  specs.reserve(tenants->array_value.size());
  for (const JsonValue& entry : tenants->array_value) {
    const JsonValue* name = entry.isObject() ? entry.find("name") : nullptr;
    if (name == nullptr || !name->isString()) {
      return util::Status::invalidArgument(
          "tenant sidecar '" + path +
          "': every tenant entry needs a string \"name\"");
    }
    auto spec = parseTenantSpec(entry, name->string_value, base_dir);
    if (!spec.isOk()) {
      return util::Status::invalidArgument("tenant '" + name->string_value +
                                           "': " + spec.status().message());
    }
    for (const TenantSpec& seen : specs) {
      if (seen.name == spec->name) {
        return util::Status::invalidArgument("tenant sidecar '" + path +
                                             "': duplicate tenant '" +
                                             spec->name + "'");
      }
    }
    specs.push_back(std::move(spec.value()));
  }
  return specs;
}

}  // namespace rap::svc
