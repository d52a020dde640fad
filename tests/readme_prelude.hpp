// The names README.md's C++ snippets take as given, for the translation
// unit scripts/readme_snippets.cmake generates from them. The snippets are
// compiled, never run, so the objects are only declared.
#ifndef HH_TESTS_README_PRELUDE_HPP
#define HH_TESTS_README_PRELUDE_HPP

#include <cassert>
#include <cstdint>
#include <iostream>
#include <vector>

#include "anthill.hpp"

namespace readme_snippets {

extern hh::core::SimulationConfig cfg;
extern hh::analysis::SweepSpec spec;
extern hh::analysis::Runner runner;
extern hh::core::RunResult result;
extern std::vector<hh::analysis::Scenario> scenarios;
/// "your own digest" in the Runner::map snippet.
double measure_one(const hh::analysis::Scenario& scenario, std::uint64_t seed);

}  // namespace readme_snippets

#endif  // HH_TESTS_README_PRELUDE_HPP
