#pragma once

#include <memory>
#include <string>
#include <vector>

#include "testcases/testcase.hpp"

namespace nofis::testcases {

/// Table-1 order of the ten test cases.
std::vector<std::string> all_case_names();

/// Extension cases beyond the paper's Table 1 (currently: Sram6T, the 6T
/// SRAM read-SNM case built on the nonlinear Newton solver).
std::vector<std::string> extension_case_names();

/// Constructs a test case by name; throws std::invalid_argument for unknown
/// names. Note: DeepNet62 trains its base network on construction (~1 s);
/// callers running repeated estimates should construct once and reuse.
std::unique_ptr<TestCase> make_case(const std::string& name);

}  // namespace nofis::testcases
