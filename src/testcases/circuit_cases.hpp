#pragma once

#include "circuit/charge_pump.hpp"
#include "circuit/opamp.hpp"
#include "photonic/ybranch.hpp"
#include "testcases/testcase.hpp"

namespace nofis::testcases {

/// (#6) Opamp, D = 5 — failure when the three-stage amplifier's AC gain
/// drops below 72 dB under width variation: g = Gain_dB(x) − 72.
/// Every g call runs a full MNA AC solve of the perturbed macromodel.
class OpampCase final : public TestCase {
public:
    OpampCase() = default;

    std::string name() const override { return "Opamp"; }
    std::size_t dim() const noexcept override { return 5; }
    double golden_pr() const noexcept override;
    double g(std::span<const double> x) const override;
    NofisBudget nofis_budget() const override;
    BaselineBudget baseline_budget() const override;

    const circuit::OpampModel& model() const noexcept { return model_; }

private:
    circuit::OpampModel model_;
};

/// (#8) Charge Pump, D = 16 — failure when the UP/DN output current
/// mismatch exceeds 370 µA: g = 370 µA − mismatch(x). Every g call performs
/// the bisection DC solve of the behavioural 16-transistor stage.
class ChargePumpCase final : public TestCase {
public:
    ChargePumpCase() = default;

    std::string name() const override { return "ChargePump"; }
    std::size_t dim() const noexcept override { return 16; }
    double golden_pr() const noexcept override;
    double g(std::span<const double> x) const override;
    NofisBudget nofis_budget() const override;
    BaselineBudget baseline_budget() const override;

    const circuit::ChargePumpModel& model() const noexcept { return model_; }

    static constexpr double kMismatchLimit = 370e-6;

private:
    circuit::ChargePumpModel model_;
};

/// (#9) Y-branch, D = 26 — failure when the power transmission of the
/// deformed photonic splitter arm drops below 32%: g = T(x) − 0.32.
/// g_grad is the model's adjoint (YBranchModel::transmission_grad); the
/// base-class central differences stay as its test oracle.
class YBranchCase final : public TestCase {
public:
    YBranchCase() = default;

    std::string name() const override { return "YBranch"; }
    std::size_t dim() const noexcept override { return 26; }
    double golden_pr() const noexcept override;
    double g(std::span<const double> x) const override;
    double g_grad(std::span<const double> x,
                  std::span<double> grad_out) const override;
    NofisBudget nofis_budget() const override;
    BaselineBudget baseline_budget() const override;

    const photonic::YBranchModel& model() const noexcept { return model_; }

    static constexpr double kTransmissionLimit = 0.32;

private:
    photonic::YBranchModel model_;
};

}  // namespace nofis::testcases
