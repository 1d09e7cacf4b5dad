#include "core/diagnostics.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/ios_guard.hpp"

namespace nofis::core {

std::string RunHealth::summary() const {
    std::ostringstream os;
    os << "run health: " << (degraded() ? "DEGRADED" : "clean") << '\n';
    os << "  g-faults: " << faults.summary() << '\n';
    os << "  stage rollbacks: " << stage_retries << " retr"
       << (stage_retries == 1 ? "y" : "ies") << " across "
       << stages_rolled_back << " stage(s), " << skipped_epochs
       << " epoch(s) skipped\n";
    {
        // Scope the 4-digit precision to the proposal line: summary() may
        // one day write into a caller's stream, and the guard keeps the
        // setprecision from leaking past this block either way.
        const util::IosStateGuard guard(os);
        os << std::setprecision(4) << "  proposal: ESS(hits) = " << final_ess
           << ", ESS(all) = " << ess_all << ", max weight = " << max_weight
           << ", weight CV = " << weight_cv;
    }
    return os.str();
}

std::string loss_curve_csv(const std::vector<StageDiagnostics>& stages) {
    std::ostringstream os;
    os << "stage,level,epoch,loss\n";
    for (const auto& s : stages)
        for (std::size_t e = 0; e < s.epoch_loss.size(); ++e) {
            // Skipped epochs carry a NaN sentinel — no loss was computed,
            // so they are omitted rather than plotted as a fake value.
            if (!std::isfinite(s.epoch_loss[e])) continue;
            os << s.stage << ',' << s.level << ',' << e << ','
               << s.epoch_loss[e] << '\n';
        }
    return os.str();
}

}  // namespace nofis::core
