#include "obs/build_info.h"

#include "util/json_writer.h"

namespace rap::obs {

namespace {

// The version and build type are injected by CMake; direct compiler
// invocations (IDE probes, single-file checks) still build with the
// fallbacks.
#ifndef RAP_VERSION_STRING
#define RAP_VERSION_STRING "0.0.0-dev"
#endif
#ifndef RAP_BUILD_TYPE
#define RAP_BUILD_TYPE "unspecified"
#endif

const char* compilerString() noexcept {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& buildInfo() noexcept {
  static const BuildInfo info{
      RAP_VERSION_STRING, compilerString(), RAP_BUILD_TYPE,
      // Mirrors fault::kCompiledIn without linking the fault library
      // into obs (obs depends on util only).
#ifdef RAP_FAULT_INJECTION
      true,
#else
      false,
#endif
  };
  return info;
}

void registerBuildInfo(MetricsRegistry& registry) {
  const BuildInfo& info = buildInfo();
  registry
      .gauge("rap_build_info",
             {{"version", info.version},
              {"compiler", info.compiler},
              {"build_type", info.build_type},
              {"fault_injection", info.fault_injection ? "on" : "off"}})
      .set(1.0);
}

std::string buildInfoJson() {
  const BuildInfo& info = buildInfo();
  util::JsonWriter w;
  w.beginObject();
  w.field("version", info.version);
  w.field("compiler", info.compiler);
  w.field("build_type", info.build_type);
  w.field("fault_injection", info.fault_injection);
  w.endObject();
  return std::move(w).str();
}

}  // namespace rap::obs
