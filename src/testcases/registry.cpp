#include "testcases/registry.hpp"

#include <stdexcept>

#include "testcases/circuit_cases.hpp"
#include "testcases/deepnet62.hpp"
#include "testcases/oscillator.hpp"
#include "testcases/sram_case.hpp"
#include "testcases/synthetic.hpp"

namespace nofis::testcases {

std::vector<std::string> all_case_names() {
    return {"Leaf",  "Cube",       "Rosen",   "Levy",    "Powell",
            "Opamp", "Oscillator", "ChargePump", "YBranch", "DeepNet62"};
}

std::vector<std::string> extension_case_names() { return {"Sram6T"}; }

std::unique_ptr<TestCase> make_case(const std::string& name) {
    if (name == "Sram6T") return std::make_unique<SramCase>();
    if (name == "Leaf") return std::make_unique<LeafCase>();
    if (name == "Cube") return std::make_unique<CubeCase>();
    if (name == "Rosen") return std::make_unique<RosenCase>();
    if (name == "Levy") return std::make_unique<LevyCase>();
    if (name == "Powell") return std::make_unique<PowellCase>();
    if (name == "Opamp") return std::make_unique<OpampCase>();
    if (name == "Oscillator") return std::make_unique<OscillatorCase>();
    if (name == "ChargePump") return std::make_unique<ChargePumpCase>();
    if (name == "YBranch") return std::make_unique<YBranchCase>();
    if (name == "DeepNet62") return std::make_unique<DeepNet62Case>();
    throw std::invalid_argument("make_case: unknown test case '" + name + "'");
}

}  // namespace nofis::testcases
