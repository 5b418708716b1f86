#include "core/ft_multistep.hpp"
#include "runtime/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

#include "coding/redundant_points.hpp"
#include "core/ft_common.hpp"
#include "core/layout.hpp"
#include "linalg/exact_solve.hpp"

namespace ftmul {

using namespace core_detail;

FtRunResult ft_multistep_multiply(const BigInt& a, const BigInt& b,
                                  const FtMultistepConfig& cfg,
                                  const FaultPlan& plan) {
    const EngineRunScope metrics_scope("ft_multistep");
    const int k = cfg.base.k;
    const int npts = 2 * k - 1;
    const int f = cfg.faults;
    const int l = cfg.fused_steps;
    if (f < 0) throw std::invalid_argument("ft_multistep: faults must be >= 0");
    if (l < 1) throw std::invalid_argument("ft_multistep: fused_steps >= 1");
    const int bfs = exact_log(static_cast<std::uint64_t>(cfg.base.processors),
                              static_cast<std::uint64_t>(npts));
    if (bfs < l) {
        throw std::invalid_argument(
            "ft_multistep: need processors >= (2k-1)^fused_steps");
    }
    const auto wide_data =
        static_cast<int>(ipow(static_cast<std::uint64_t>(npts), l));
    const int height = cfg.base.processors / wide_data;  // column height
    const int wide = wide_data + f;
    const int world = height * wide;
    const int dfs = std::max(0, cfg.base.forced_dfs_steps);

    // Fault plan: "mul" only, at most f distinct columns. Over-budget sets
    // are unrecoverable — raise the typed exception so callers can escalate.
    std::set<int> doomed;
    std::vector<int> dead_ranks;
    for (const auto& [phase, rank] : plan.all()) {
        if (phase != "mul") {
            throw UnrecoverableFault(
                "ft_multistep", phase, {rank},
                "faults are only tolerated at phase \"mul\"");
        }
        if (rank < 0 || rank >= world) {
            throw UnrecoverableFault(
                "ft_multistep", phase, {rank},
                "fault rank out of range for world size " +
                    std::to_string(world));
        }
        doomed.insert(rank % wide);
        dead_ranks.push_back(rank);
    }
    if (static_cast<int>(doomed.size()) > f) {
        throw UnrecoverableFault(
            "ft_multistep", "mul", dead_ranks,
            "faults span " + std::to_string(doomed.size()) +
                " distinct columns but the code only tolerates f=" +
                std::to_string(f) + " lost multipoints");
    }
    const PolyLoss loss(doomed, wide, wide_data);

    // Evaluation points: S^l plus f redundant multipoints in general
    // position (Section 6.2 heuristic), and the fused evaluation matrices.
    Rng rng{cfg.point_seed};
    const std::vector<MultiPoint> points = find_redundant_points(
        standard_points(static_cast<std::size_t>(npts)),
        static_cast<std::size_t>(k), static_cast<std::size_t>(l),
        static_cast<std::size_t>(f), rng,
        cfg.optimized_points ? PointSearch::SmallestFirst
                             : PointSearch::Randomized);
    const Matrix<BigInt> eval_in = multivariate_eval_matrix(
        points, static_cast<std::size_t>(k), static_cast<std::size_t>(l));

    // Geometry: one fused step consuming l split levels, then dfs + (bfs-l)
    // levels inside each column.
    FtRunResult result;
    result.shape = resolve_shape_general(
        k, world, dfs, bfs, l + dfs + (bfs - l),
        cfg.base.digit_bits, cfg.base.base_len,
        std::max(a.bit_length(), b.bit_length()));
    const ResolvedShape& shape = result.shape;
    result.extra_processors = world - cfg.base.processors;
    result.faults_injected = static_cast<int>(plan.total_faults());
    if (a.is_zero() || b.is_zero()) return result;

    const ToomPlan tplan = ToomPlan::make(k);

    // On-the-fly multivariate interpolation from the surviving columns.
    std::vector<MultiPoint> used_points;
    for (std::size_t c : loss.used) used_points.push_back(points[c]);
    const Matrix<BigInt> eval_out = multivariate_eval_matrix(
        used_points, static_cast<std::size_t>(npts),
        static_cast<std::size_t>(l));
    InterpOperator op;
    try {
        op = InterpOperator::from_rational(
            inverse(eval_out.cast<BigRational>()));
    } catch (const SingularMatrixError&) {
        throw UnrecoverableFault(
            "ft_multistep", "interp-fused", dead_ranks,
            "surviving multipoints do not determine the product "
            "(singular fused interpolation system)");
    }

    // The fused step grows the digits by eval_in's rows, the bfs - l plain
    // levels and the dfs steps inside a column by the plan's.
    const auto inner_levels =
        static_cast<std::size_t>(shape.dfs_steps + shape.bfs_steps - l);
    const BlockStrides strides = block_strides(
        shape,
        growth_bits(eval_in) + inner_levels * growth_bits(tplan.eval_matrix()),
        std::max(growth_bits(op.numerators()),
                 growth_bits(tplan.interpolation().numerators())));
    Machine machine(world, plan);
    arm_transport(machine, cfg.base);
    std::vector<CoeffBlock> slices(static_cast<std::size_t>(world));

    const std::size_t N = shape.total_digits;
    const auto uwide = static_cast<std::size_t>(wide);
    const std::size_t kl = ipow(static_cast<std::uint64_t>(k), l);
    const std::size_t block = N / kl;         // fused sub-block length
    const std::size_t s0 = block / static_cast<std::size_t>(world);
    const std::size_t rc = 2 * s0;            // old-layout slice of a child

    // Overlap-add offsets: the coefficient block with multivariate exponents
    // (e_1..e_l) — block index sum e_t (2k-1)^(l-t) — lands at digit offset
    // sum e_t k^(l-t) * block, i.e. local offset in s0 units.
    const auto uwide_data = static_cast<std::size_t>(wide_data);
    std::vector<std::size_t> offsets(uwide_data);
    for (std::size_t i = 0; i < uwide_data; ++i) {
        std::size_t rem = i;
        std::size_t offset_units = 0;  // multiples of block
        std::size_t kpow = 1;
        for (int t = 0; t < l; ++t) {
            offset_units += (rem % static_cast<std::size_t>(npts)) * kpow;
            rem /= static_cast<std::size_t>(npts);
            kpow *= static_cast<std::size_t>(k);
        }
        offsets[i] = offset_units * s0;
    }

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

        // Fused evaluation at all (2k-1)^l + f multipoints, local.
        rank.phase("eval-fused");
        CoeffBlock ea(uwide * s0, strides.operand);
        CoeffBlock eb(uwide * s0, strides.operand);
        evaluate_blocks(eval_in, a_loc, ea, s0);
        evaluate_blocks(eval_in, b_loc, eb, s0);
        a_loc.clear();
        b_loc.clear();

        rank.phase("xfwd-fused");
        auto [a_new, b_new] = exchange_forward_pair(
            rank, g, uwide, 1, std::move(ea), std::move(eb), 50, 51);

        const bool i_fail = rank.phase("mul");
        if (i_fail || col_doomed) return;  // data lost / column halted

        const Group column =
            Group::strided(static_cast<int>(col), height, wide);
        const CoeffBlock child =
            dist_convolve(rank, tplan, shape, strides, column, uwide,
                          std::move(a_new), std::move(b_new), block, dfs, 1);
        assert(child.size() == uwide * rc);

        // Backward exchange with substitution for dead rows' result shares.
        rank.phase("xbwd-fused");
        exchange_backward_substituted(rank, loss, row, col, child);

        rank.phase("interp-fused");
        interpolate_roles(rank, loss, row, col, [&](std::size_t role) {
            const CoeffBlock children =
                gather_role(rank, loss, row, col, role, child, rc);
            CoeffBlock coeffs(uwide_data * rc, strides.product);
            apply_blocks(op, children, coeffs, rc);
            slices[row * uwide + role] = fold_blocks(
                coeffs, offsets, rc, 2 * N / static_cast<std::size_t>(world));
        });
    });
    finish_run(result, machine, slices, a, b);
    return result;
}

}  // namespace ftmul
