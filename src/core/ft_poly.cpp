#include "core/ft_poly.hpp"
#include "runtime/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

#include "core/ft_common.hpp"
#include "core/layout.hpp"

namespace ftmul {

using namespace core_detail;

FtRunResult ft_poly_multiply(const BigInt& a, const BigInt& b,
                             const FtPolyConfig& cfg, const FaultPlan& plan) {
    const EngineRunScope metrics_scope("ft_poly");
    const int k = cfg.base.k;
    const int npts = 2 * k - 1;
    const int f = cfg.faults;
    if (f < 0) throw std::invalid_argument("ft_poly: faults must be >= 0");
    const int bfs = exact_log(static_cast<std::uint64_t>(cfg.base.processors),
                              static_cast<std::uint64_t>(npts));
    if (bfs < 1) {
        throw std::invalid_argument(
            "ft_poly: processors must be a positive power of 2k-1 (>= 2k-1)");
    }
    const int height = cfg.base.processors / npts;       // column height
    const int npts_wide = npts + f;                      // columns incl. code
    const int world = height * npts_wide;                // P'
    const int dfs = std::max(0, cfg.base.forced_dfs_steps);

    // Validate the fault plan: only "mul"-phase faults, at most f distinct
    // columns (a fault halts its whole column). Anything else is an
    // unrecoverable fault set — refuse rather than compute a wrong product.
    std::set<int> doomed;
    std::vector<int> dead_ranks;
    for (const auto& [phase, rank] : plan.all()) {
        if (phase != "mul") {
            throw UnrecoverableFault(
                "ft_poly", phase, {rank},
                "faults are only tolerated in the multiplication phase "
                "(schedule at \"mul\"); use ft_linear for the "
                "evaluation/interpolation phases");
        }
        if (rank < 0 || rank >= world) {
            throw UnrecoverableFault(
                "ft_poly", phase, {rank},
                "fault rank out of range for world size " +
                    std::to_string(world));
        }
        doomed.insert(rank % npts_wide);
        dead_ranks.push_back(rank);
    }
    if (static_cast<int>(doomed.size()) > f) {
        throw UnrecoverableFault(
            "ft_poly", "mul", dead_ranks,
            "faults span " + std::to_string(doomed.size()) +
                " distinct columns but the code only tolerates f=" +
                std::to_string(f) + " lost evaluation points");
    }

    const PolyLoss loss(doomed, npts_wide, npts);

    // Geometry: one coded BFS step, then dfs DFS steps and bfs-1 plain BFS
    // steps inside each column. Leaf length aligned to the widened world.
    FtRunResult result;
    result.shape = resolve_shape_general(
        k, world, dfs, bfs, 1 + dfs + (bfs - 1),
        cfg.base.digit_bits, cfg.base.base_len,
        std::max(a.bit_length(), b.bit_length()));
    const ResolvedShape& shape = result.shape;
    result.extra_processors = world - cfg.base.processors;
    result.faults_injected = static_cast<int>(plan.total_faults());

    if (a.is_zero() || b.is_zero()) return result;

    const ToomPlan tplan =
        ToomPlan::make(k, static_cast<std::size_t>(f));
    // On-the-fly interpolation from the surviving points (Section 4.2).
    const InterpOperator op = tplan.interpolation_for(loss.used);
    const BlockStrides strides = block_strides(shape, tplan, &op);
    Machine machine(world, plan);
    arm_transport(machine, cfg.base);
    std::vector<CoeffBlock> slices(static_cast<std::size_t>(world));

    const std::size_t N = shape.total_digits;
    const auto unpts = static_cast<std::size_t>(npts);
    const auto uwide = static_cast<std::size_t>(npts_wide);
    const std::size_t s0 = N / static_cast<std::size_t>(k) /
                           static_cast<std::size_t>(world);
    const std::size_t rc = 2 * s0;  // old-layout slice of one child result

    machine.run([&](Rank& rank) {
        const auto id = static_cast<std::size_t>(rank.id());
        const std::size_t col = id % uwide;
        const std::size_t row = id / uwide;
        const bool col_doomed = doomed.count(static_cast<int>(col)) != 0;

        rank.phase("split");
        CoeffBlock a_loc =
            local_input_digits(a, shape, world, rank.id(), strides.operand);
        CoeffBlock b_loc =
            local_input_digits(b, shape, world, rank.id(), strides.operand);
        const Group g = Group::strided(0, world);

        rank.phase("eval-L0");
        CoeffBlock ea(uwide * s0, strides.operand);
        CoeffBlock eb(uwide * s0, strides.operand);
        evaluate_blocks(tplan.eval_matrix(), a_loc, ea, s0);  // all 2k-1+f rows
        evaluate_blocks(tplan.eval_matrix(), b_loc, eb, s0);
        a_loc.clear();
        b_loc.clear();

        rank.phase("xfwd-L0");
        auto [a_new, b_new] = exchange_forward_pair(
            rank, g, uwide, 1, std::move(ea), std::move(eb), 50, 51);

        // Multiplication phase: a fault kills this rank; its column halts.
        const bool i_fail = rank.phase("mul");
        if (i_fail || col_doomed) {
            // Data lost / column halted (paper Section 4.2 fault recovery).
            return;
        }
        const Group column =
            Group::strided(static_cast<int>(col), height, npts_wide);
        const CoeffBlock child = dist_convolve(
            rank, tplan, shape, strides, column, uwide, std::move(a_new),
            std::move(b_new), N / static_cast<std::size_t>(k), dfs, 1);
        assert(child.size() == uwide * rc);

        // Backward exchange with substitution: pieces for dead row peers go
        // to the designated substitute (the replacement processor).
        rank.phase("xbwd-L0");
        exchange_backward_substituted(rank, loss, row, col, child);

        rank.phase("interp-L0");
        interpolate_roles(rank, loss, row, col, [&](std::size_t role) {
            const CoeffBlock children =
                gather_role(rank, loss, row, col, role, child, rc);
            CoeffBlock coeffs(unpts * rc, strides.product);
            apply_blocks(op, children, coeffs, rc);
            slices[row * uwide + role] = fold_blocks_local(
                coeffs, unpts, rc, s0, 2 * N / static_cast<std::size_t>(world));
        });
    });
    finish_run(result, machine, slices, a, b);
    return result;
}

}  // namespace ftmul
