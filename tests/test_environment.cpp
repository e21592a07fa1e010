// The configuration edge (epicast/scenario/environment.hpp): the parser,
// driven through a lookup function instead of the process environment, and
// two checks that need a particular environment (tests/CMakeLists.txt sets
// it): the variables the library no longer reads must leave a run
// untouched, and the ones it still honours must reach the whole suite
// through the shared test main. Run it through ctest: EdgeReach passes only
// under the environment its registration sets.
#include "epicast/scenario/environment.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "epicast/scenario/runner.hpp"
#include "epicast/scenario/sweep.hpp"

namespace epicast {
namespace {

using Vars = std::map<std::string, std::string>;

EnvironmentOptions parse(const Vars& vars) {
  return parse_environment([&](const char* name) -> const char* {
    const auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  });
}

TEST(EnvironmentParser, UnsetOrEmptyVariablesKeepTheDefaults) {
  for (const Vars& vars :
       {Vars{}, Vars{{"EPICAST_SIZING", ""}, {"EPICAST_POOL", ""},
                     {"EPICAST_JOBS", ""}}}) {
    const EnvironmentOptions o = parse(vars);
    EXPECT_FALSE(o.sizing.has_value());
    EXPECT_FALSE(o.pool.has_value());
    EXPECT_EQ(o.jobs, 0u);
    EXPECT_TRUE(o.warnings.empty());
  }
}

TEST(EnvironmentParser, ValidValues) {
  EnvironmentOptions o = parse({{"EPICAST_SIZING", "wire"},
                                {"EPICAST_POOL", "on"},
                                {"EPICAST_JOBS", "3"}});
  EXPECT_EQ(o.sizing, SizingMode::Wire);
  EXPECT_EQ(o.pool, MessagePool::Mode::Pooling);
  EXPECT_EQ(o.jobs, 3u);
  EXPECT_TRUE(o.warnings.empty());

  o = parse({{"EPICAST_SIZING", "nominal"},
             {"EPICAST_POOL", "off"},
             {"EPICAST_JOBS", "4095"}});
  EXPECT_EQ(o.sizing, SizingMode::Nominal);
  EXPECT_EQ(o.pool, MessagePool::Mode::PassThrough);
  EXPECT_EQ(o.jobs, 4095u);

  EXPECT_EQ(parse({{"EPICAST_POOL", "1"}}).pool, MessagePool::Mode::Pooling);
  EXPECT_EQ(parse({{"EPICAST_POOL", "0"}}).pool,
            MessagePool::Mode::PassThrough);
}

TEST(EnvironmentParser, InvalidValuesAreIgnoredWithAWarning) {
  for (const char* bad : {"WIRE", "1", "wire "}) {
    const EnvironmentOptions o = parse({{"EPICAST_SIZING", bad}});
    EXPECT_FALSE(o.sizing.has_value()) << bad;
    ASSERT_EQ(o.warnings.size(), 1u) << bad;
    EXPECT_NE(o.warnings[0].find("EPICAST_SIZING"), std::string::npos);
  }
  for (const char* bad : {"yes", "ON", "2"}) {
    const EnvironmentOptions o = parse({{"EPICAST_POOL", bad}});
    EXPECT_FALSE(o.pool.has_value()) << bad;
    ASSERT_EQ(o.warnings.size(), 1u) << bad;
    EXPECT_NE(o.warnings[0].find("EPICAST_POOL"), std::string::npos);
  }
  for (const char* bad : {"not-a-number", "0", "-1", "3x", " 3", "4096"}) {
    const EnvironmentOptions o = parse({{"EPICAST_JOBS", bad}});
    EXPECT_EQ(o.jobs, 0u) << bad;
    ASSERT_EQ(o.warnings.size(), 1u) << bad;
    EXPECT_NE(o.warnings[0].find("EPICAST_JOBS"), std::string::npos);
  }
}

TEST(EnvironmentParser, ConsultsOnlyTheThreeLiveVariables) {
  std::set<std::string> asked;
  (void)parse_environment([&](const char* name) -> const char* {
    asked.insert(name);
    return nullptr;
  });
  EXPECT_EQ(asked, (std::set<std::string>{"EPICAST_JOBS", "EPICAST_POOL",
                                          "EPICAST_SIZING"}));
}

// Registered with EPICAST_FAULTS, EPICAST_SHARDS, EPICAST_THREADS,
// EPICAST_PROFILE and EPICAST_ORACLES set to disruptive values and the live
// variables blanked. test_determinism's seed references, empty-plan and
// serial-default checks run under the same environment (tests/CMakeLists.txt).
TEST(RetiredVariables, DefaultsArePlainConstants) {
  const ScenarioConfig defaults;
  EXPECT_EQ(defaults.threads, 1u);
  EXPECT_FALSE(defaults.profile_hotpath);
  EXPECT_TRUE(defaults.oracles);
  EXPECT_EQ(defaults.sizing_mode, SizingMode::Nominal);
#if defined(EPICAST_ASAN)
  EXPECT_EQ(MessagePool().mode(), MessagePool::Mode::PassThrough);
#else
  EXPECT_EQ(MessagePool().mode(), MessagePool::Mode::Pooling);
#endif
  EXPECT_EQ(SweepRunner::resolve_jobs(0), SweepRunner::available_parallelism());

  ScenarioConfig cfg = ScenarioConfig::paper_defaults(Algorithm::CombinedPull);
  cfg.nodes = 20;
  cfg.warmup = Duration::seconds(0.5);
  cfg.measure = Duration::seconds(1.0);
  cfg.recovery_horizon = Duration::seconds(1.0);
  EXPECT_GT(run_scenario(cfg).oracle_checks, 0u);
}

// Registered with EPICAST_SIZING=wire and EPICAST_POOL=on, as the CI wire
// job and the sanitizer pool-on steps run the suite.
TEST(EdgeReach, SizingAndPoolReachTheSuite) {
  EXPECT_EQ(ScenarioConfig{}.sizing_mode, SizingMode::Wire);
  EXPECT_EQ(MessagePool().mode(), MessagePool::Mode::Pooling);
}

}  // namespace
}  // namespace epicast
