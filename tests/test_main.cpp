// Shared gtest main of every test binary: applies the process environment
// (EPICAST_SIZING, EPICAST_POOL; see epicast/scenario/environment.hpp)
// before any test constructs a config, so whole-suite passes such as
// `EPICAST_SIZING=wire ctest` reach every test.
#include <gtest/gtest.h>

#include "epicast/scenario/environment.hpp"

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  epicast::apply_environment();
  return RUN_ALL_TESTS();
}
