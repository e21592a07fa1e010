#include "epicast/scenario/environment.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace epicast {
namespace {

void ignore(EnvironmentOptions& out, const char* name, std::string_view value,
            const char* expected) {
  out.warnings.push_back("ignoring " + std::string(name) + "=" +
                         std::string(value) + " (expected " + expected +
                         ")");
}

}  // namespace

EnvironmentOptions parse_environment(const EnvironmentLookup& lookup) {
  EnvironmentOptions out;
  const auto value = [&](const char* name) {
    const char* v = lookup(name);
    return v == nullptr ? std::string_view() : std::string_view(v);
  };
  if (const std::string_view v = value("EPICAST_SIZING"); !v.empty()) {
    if (v == "wire") {
      out.sizing = SizingMode::Wire;
    } else if (v == "nominal") {
      out.sizing = SizingMode::Nominal;
    } else {
      ignore(out, "EPICAST_SIZING", v, "wire or nominal");
    }
  }
  if (const std::string_view v = value("EPICAST_POOL"); !v.empty()) {
    if (v == "on" || v == "1") {
      out.pool = MessagePool::Mode::Pooling;
    } else if (v == "off" || v == "0") {
      out.pool = MessagePool::Mode::PassThrough;
    } else {
      ignore(out, "EPICAST_POOL", v, "on, off, 1 or 0");
    }
  }
  if (const std::string_view v = value("EPICAST_JOBS"); !v.empty()) {
    unsigned n = 0;
    const char* end = v.data() + v.size();
    const auto parsed = std::from_chars(v.data(), end, n);
    if (parsed.ec == std::errc() && parsed.ptr == end && n > 0 && n < 4096) {
      out.jobs = n;
    } else {
      ignore(out, "EPICAST_JOBS", v, "an integer in [1, 4095]");
    }
  }
  return out;
}

EnvironmentOptions apply_environment() {
  EnvironmentOptions options =
      parse_environment([](const char* name) { return std::getenv(name); });
  if (options.sizing) set_default_sizing_mode(*options.sizing);
  if (options.pool) MessagePool::set_default_mode(*options.pool);
  for (const std::string& w : options.warnings) {
    std::fprintf(stderr, "epicast: %s\n", w.c_str());
  }
  return options;
}

}  // namespace epicast
