#pragma once

#include <cstddef>
#include <cstdint>

#include "core/resilient.hpp"
#include "service/request.hpp"

namespace ftmul {

/// Knobs of the cost-model-driven planner. One policy instance describes
/// the machine geometry the service runs plans on and the thresholds the
/// engine selection pivots around; plan_multiply is a pure function of
/// (operand bits, reliability class, policy), so the same policy always
/// plans the same request identically — the property the service_report's
/// deterministic cost-model sections rest on.
struct PlannerPolicy {
    /// Below this operand size (max of the two bit lengths) every class
    /// runs sequential Toom-Cook: the simulated machine's per-run setup
    /// dwarfs any parallel win on tiny operands, and sequential plans are
    /// the only ones the dispatcher batches.
    std::size_t sequential_cutoff_bits = 4096;

    /// Machine geometry handed to every machine plan. processors must be a
    /// positive power of 2k-1 (the engines' own requirement).
    int k = 2;
    int processors = 9;
    std::size_t digit_bits = 32;

    /// Redundancy f for the FT / replication plans.
    int faults = 1;

    /// Machine parameters the modeled-time estimate is priced under.
    CostModel cost_model;
};

/// What the planner decided for one request: the engine, the full resilient
/// configuration a machine plan executes under, and the deterministic
/// cost-model charge the decision was priced on.
struct MultiplyPlan {
    /// Engine label: "sequential", "parallel", or a to_string(FtEngine)
    /// name ("replication", "ft_poly", ...).
    std::string engine;

    /// Runs on the simulated Machine (vs sequential Toom on the executor
    /// thread).
    bool machine = false;

    /// Eligible for per-dispatch-round batching (sequential plans only:
    /// they hold no machine and amortize dispatch overhead).
    bool batchable = false;

    /// World size the plan occupies (1 for sequential plans).
    int world = 1;

    /// Full ladder configuration for machine plans (engine field is only
    /// meaningful when machine && engine != "parallel").
    ResilientConfig resilient;

    /// Deterministic critical-path charge estimate (closed-form, integer
    /// arithmetic only — identical on every platform).
    CostCounters charge;

    /// CostModel::modeled_time of the charge in microseconds, rounded up.
    /// Doubles as the DeadlineImpossible floor: a deadline budget below
    /// this cannot be met even by the cost model's idealized machine.
    std::uint64_t modeled_us = 0;
};

/// Plan one multiplication. Pure: no clocks, no globals, no randomness.
/// Policy: tiny operands (below sequential_cutoff_bits) run sequentially
/// regardless of class; fast -> plain parallel; fast_redundant -> f+1-way
/// replication; verified -> the cheapest FT-coded engine (ft_poly /
/// ft_linear / ft_mixed) under the policy's cost model.
MultiplyPlan plan_multiply(std::size_t bits_a, std::size_t bits_b,
                           ReliabilityClass cls,
                           const PlannerPolicy& policy = {});

}  // namespace ftmul
