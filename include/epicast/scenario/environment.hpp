// epicast — the process environment, read in exactly one place.
//
// Library code reads no environment variable: a run is a pure function of
// its ScenarioConfig and seed. Three variables remain for whole-suite passes
// that cannot thread a flag through every test and bench literal. Program
// entry points apply them once, first thing in main() (epicast_sim,
// bench::init, the shared test main):
//
//   EPICAST_SIZING=wire|nominal  set_default_sizing_mode(), the initial
//                                ScenarioConfig::sizing_mode
//   EPICAST_POOL=on|off|1|0      MessagePool::set_default_mode()
//   EPICAST_JOBS=N               sweep workers of the figure benches
//
// An unset or empty variable keeps the built-in default. Any other value is
// ignored with a warning, so a typo cannot silently change an experiment.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "epicast/common/message_pool.hpp"
#include "epicast/net/message.hpp"

namespace epicast {

struct EnvironmentOptions {
  std::optional<SizingMode> sizing;
  std::optional<MessagePool::Mode> pool;
  unsigned jobs = 0;  ///< 0 = unset: SweepRunner uses every available CPU
  std::vector<std::string> warnings;  ///< one per ignored value
};

/// A variable's value, or nullptr when unset (std::getenv's contract).
using EnvironmentLookup = std::function<const char*(const char* name)>;

/// Parses the variables above through `lookup`; changes no process state.
[[nodiscard]] EnvironmentOptions parse_environment(
    const EnvironmentLookup& lookup);

/// Parses the process environment, installs the sizing and pool defaults it
/// names, prints each warning to stderr, and returns the options. For
/// main() only: call once, before any config or pool is constructed.
EnvironmentOptions apply_environment();

}  // namespace epicast
