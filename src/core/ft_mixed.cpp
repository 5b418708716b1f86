#include "core/ft_mixed.hpp"
#include "runtime/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <stdexcept>

#include "core/ft_common.hpp"
#include "core/layout.hpp"

namespace ftmul {

namespace {

using namespace core_detail;

constexpr const char* kEvalPhase = "eval-L0";
constexpr const char* kMulPhase = "mul";
constexpr const char* kInterpPhase = "interp-L0";

}  // namespace

FtRunResult ft_mixed_multiply(const BigInt& a, const BigInt& b,
                              const FtMixedConfig& cfg,
                              const FaultPlan& plan) {
    const EngineRunScope metrics_scope("ft_mixed");
    const int k = cfg.base.k;
    const int npts = 2 * k - 1;
    const int f = cfg.faults;
    if (f < 0) throw std::invalid_argument("ft_mixed: faults must be >= 0");
    const int bfs = exact_log(static_cast<std::uint64_t>(cfg.base.processors),
                              static_cast<std::uint64_t>(npts));
    if (bfs < 1) {
        throw std::invalid_argument(
            "ft_mixed: processors must be a positive power of 2k-1 (>= 2k-1)");
    }
    if (cfg.base.forced_dfs_steps > 0) {
        throw std::invalid_argument(
            "ft_mixed: only the unlimited-memory case is supported");
    }
    const int height = cfg.base.processors / npts;  // data rows
    const int wide = npts + f;                      // columns incl. poly code
    const int data_world = height * wide;           // data region
    const int world = data_world + f * wide;        // plus linear code rows

    // ---- fault plan validation --------------------------------------
    // Every rejection here is an *unrecoverable fault set* (the plan asks
    // for more than the combined codes can absorb), not a configuration
    // error — raise the typed exception so callers can escalate.
    std::set<int> doomed;  // poly-killed columns
    std::vector<int> mul_dead;
    ColumnFaults linear_faults;
    for (const auto& [phase, rank] : plan.all()) {
        if (phase == kMulPhase) {
            if (rank < 0 || rank >= data_world) {
                throw UnrecoverableFault(
                    "ft_mixed", phase, {rank},
                    "mul fault rank out of range for the data region of " +
                        std::to_string(data_world) + " ranks");
            }
            doomed.insert(rank % wide);
            mul_dead.push_back(rank);
        } else if (phase == kEvalPhase || phase == kInterpPhase) {
            if (rank < 0 || rank >= data_world) {
                throw UnrecoverableFault(
                    "ft_mixed", phase, {rank},
                    "linear-code faults must hit data ranks (code rows carry "
                    "the redundancy itself)");
            }
            linear_faults.by_phase_col[phase][rank % wide].push_back(rank);
        } else {
            throw UnrecoverableFault(
                "ft_mixed", phase, {rank},
                "faults are only tolerated at eval-L0, mul and interp-L0");
        }
    }
    if (static_cast<int>(doomed.size()) > f) {
        throw UnrecoverableFault(
            "ft_mixed", kMulPhase, mul_dead,
            "faults span " + std::to_string(doomed.size()) +
                " distinct columns but the polynomial code only tolerates f=" +
                std::to_string(f));
    }
    const PolyLoss loss(doomed, wide, npts);
    for (auto& [phase, by_col] : linear_faults.by_phase_col) {
        for (auto& [col, dead] : by_col) {
            std::sort(dead.begin(), dead.end());
            if (static_cast<int>(dead.size()) > f) {
                throw UnrecoverableFault(
                    "ft_mixed", phase, dead,
                    "more linear-code faults in column " +
                        std::to_string(col) + " than code rows f=" +
                        std::to_string(f));
            }
            if (phase == kInterpPhase &&
                (doomed.count(col) ||
                 (!doomed.empty() &&
                  static_cast<std::size_t>(col) == loss.sub))) {
                throw UnrecoverableFault(
                    "ft_mixed", phase, dead,
                    "interp faults cannot hit dead or substitute columns "
                    "(their state is already being rebuilt elsewhere)");
            }
        }
    }

    FtRunResult result;
    result.shape = resolve_shape_general(
        k, data_world, 0, bfs, bfs,
        cfg.base.digit_bits, cfg.base.base_len,
        std::max(a.bit_length(), b.bit_length()));
    const ResolvedShape& shape = result.shape;
    result.extra_processors = world - cfg.base.processors;
    result.faults_injected = static_cast<int>(plan.total_faults());
    if (a.is_zero() || b.is_zero()) return result;

    const ToomPlan tplan = ToomPlan::make(k, static_cast<std::size_t>(f));
    Machine machine(world, plan);
    arm_transport(machine, cfg.base);
    std::vector<std::vector<BigInt>> slices(static_cast<std::size_t>(data_world));

    const std::size_t N = shape.total_digits;
    const auto unpts = static_cast<std::size_t>(npts);
    const auto uwide = static_cast<std::size_t>(wide);
    const std::size_t s0 =
        N / static_cast<std::size_t>(k) / static_cast<std::size_t>(data_world);
    const std::size_t rc = 2 * s0;

    machine.run([&](Rank& rank) {
        const bool is_code_row = rank.id() >= data_world;
        const int col = is_code_row ? (rank.id() - data_world) % wide
                                    : rank.id() % wide;
        const bool col_doomed = doomed.count(col) != 0;

        // The linear code runs over wide-grid columns: column c holds data
        // ranks {r*wide + c : r < height} and code rows
        // {data_world + j*wide + c : j < f}.
        const LinearColumn column{"ft_mixed", data_world, wide, f,
                                  Group::strided(col, height, wide).members,
                                  col};

        if (is_code_row) {
            // Linear-code processor for its wide-grid column. Unlike the
            // data ranks it enters no "+post-recovery" phase.
            const int code_row = (rank.id() - data_world) / wide;
            auto code_boundary = [&](const char* label, const char* phase,
                                     int encode_tag, int recover_tag) {
                rank.phase(label);
                auto code = encode_column(rank, column, {}, encode_tag);
                const std::vector<int>* dead =
                    linear_faults.dead_in(phase, col);
                if (dead == nullptr ||
                    code_row >= static_cast<int>(dead->size())) {
                    return;
                }
                rank.phase(std::string("recover-") + phase);
                rank.begin_recovery(*dead);
                (void)recover_column(rank, column, phase, *dead, code,
                                     recover_tag);
                rank.end_recovery();
            };
            code_boundary("encode-input", kEvalPhase, 400, 500);
            if (col_doomed) return;  // column halts at the mult phase
            code_boundary("encode-children", kInterpPhase, 440, 580);
            return;
        }

        // ---- data processor ----------------------------------------
        const std::size_t row = static_cast<std::size_t>(rank.id()) / uwide;

        rank.phase("split");
        std::vector<BigInt> a_loc =
            local_input_digits(a, shape, data_world, rank.id());
        std::vector<BigInt> b_loc =
            local_input_digits(b, shape, data_world, rank.id());

        // Linear code over the inputs; evaluation-phase faults recovered by
        // a reduce over the column (Section 4.1).
        std::vector<BigInt> state = pack_pair(a_loc, b_loc);
        if (protect_column(rank, column, "encode-input", kEvalPhase,
                           linear_faults.dead_in(kEvalPhase, col), state, 400,
                           500)) {
            unpack_pair(std::move(state), a_loc, b_loc);
        }
        state.clear();

        // Redundant-point evaluation + the wide row exchange (Section 4.2).
        std::vector<BigInt> ea(uwide * s0), eb(uwide * s0);
        tplan.evaluate_blocks(a_loc, ea, s0);
        tplan.evaluate_blocks(b_loc, eb, s0);
        a_loc.clear();
        b_loc.clear();

        rank.phase("xfwd-L0");
        const Group g = Group::strided(0, data_world);
        auto [a_new, b_new] = exchange_forward_pair(
            rank, g, uwide, 1, std::move(ea), std::move(eb), 50, 51);

        // Multiplication phase: poly-code column kill.
        const bool i_fail_mul = rank.phase(kMulPhase);
        if (i_fail_mul || col_doomed) return;

        std::vector<BigInt> child = dist_convolve(
            rank, tplan, shape, Group{column.members}, uwide, std::move(a_new),
            std::move(b_new), N / static_cast<std::size_t>(k), 0, 1);
        assert(child.size() == uwide * rc);

        // Backward exchange with substitution for dead rows' shares.
        rank.phase("xbwd-L0");
        const auto ucol = static_cast<std::size_t>(col);
        const auto pieces = exchange_backward_substituted(rank, loss, row, ucol,
                                                          std::move(child));

        // Receive every role's pieces now so the interpolation state is a
        // single vector the linear code can protect.
        std::map<std::size_t, std::vector<BigInt>> role_children;
        for (std::size_t role : loss.roles(ucol)) {
            role_children[role] = gather_role(rank, loss, row, ucol, role,
                                              pieces, rc, "ft_mixed");
        }

        // Linear code over the (own-role) child coefficients; interp-phase
        // faults recovered by the column reduce.
        protect_column(rank, column, "encode-children", kInterpPhase,
                       linear_faults.dead_in(kInterpPhase, col),
                       role_children[ucol], 440, 580);

        // On-the-fly interpolation from the surviving points.
        const InterpOperator op = tplan.interpolation_for(loss.used);
        interpolate_roles(rank, loss, row, ucol, [&](std::size_t role) {
            std::vector<BigInt> coeffs(unpts * rc);
            op.apply_blocks(role_children[role], coeffs, rc);
            slices[row * uwide + role] = fold_blocks_local(
                coeffs, unpts, rc, s0,
                2 * N / static_cast<std::size_t>(data_world));
        });
    });
    finish_run(result, machine, slices, a, b);
    return result;
}

}  // namespace ftmul
