#include "testcases/testcase.hpp"

#include "core/nofis.hpp"

namespace nofis::testcases {

core::NofisConfig nofis_config_from_budget(const NofisBudget& b) {
    core::NofisConfig cfg;
    cfg.layers_per_block = b.layers_per_block;
    cfg.hidden = b.hidden;
    cfg.epochs = b.epochs;
    cfg.samples_per_epoch = b.samples_per_epoch;
    cfg.learning_rate = b.learning_rate;
    cfg.lr_decay = b.lr_decay;
    cfg.tau = b.tau;
    cfg.n_is = b.n_is;
    cfg.defensive_weight = b.defensive_weight;
    cfg.defensive_sigma = b.defensive_sigma;
    return cfg;
}

}  // namespace nofis::testcases
