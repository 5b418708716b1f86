#include "core/ft_linear.hpp"
#include "runtime/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <tuple>

#include "core/ft_common.hpp"
#include "core/layout.hpp"

namespace ftmul {

namespace {

using namespace core_detail;

constexpr const char* kLeafPhase = "leaf-mul";

/// The grid column of @p rank at BFS step @p level: the level-th base-(2k-1)
/// digit of the rank label (the paper's repositioning rule — "the i'th digit
/// points to the column").
int column_at_level(int rank, int npts, int level) {
    return static_cast<int>(
        (static_cast<std::uint64_t>(rank) /
         ipow(static_cast<std::uint64_t>(npts), level)) %
        static_cast<std::uint64_t>(npts));
}

/// Data ranks sharing digit `level` == col, ascending — the encoded column.
std::vector<int> column_members(int P, int npts, int level, int col) {
    std::vector<int> members;
    for (int r = 0; r < P; ++r) {
        if (column_at_level(r, npts, level) == col) members.push_back(r);
    }
    return members;
}

/// Which BFS level a protected phase encodes at; leaf-mul is protected by
/// the deepest level's column structure.
int phase_level(const std::string& phase, int bfs) {
    if (phase == kLeafPhase) return bfs - 1;
    if (phase.rfind("eval-L", 0) == 0) return std::atoi(phase.c_str() + 6);
    if (phase.rfind("interp-L", 0) == 0) return std::atoi(phase.c_str() + 8);
    return -1;
}

}  // namespace

FtRunResult ft_linear_multiply(const BigInt& a, const BigInt& b,
                               const FtLinearConfig& cfg,
                               const FaultPlan& plan) {
    const EngineRunScope metrics_scope("ft_linear");
    const int k = cfg.base.k;
    const int npts = 2 * k - 1;
    const int f = cfg.faults;
    const int P = cfg.base.processors;
    if (f < 0) throw std::invalid_argument("ft_linear: faults must be >= 0");
    if (cfg.base.forced_dfs_steps > 0) {
        throw std::invalid_argument(
            "ft_linear: only the unlimited-memory case (no DFS steps) is "
            "supported; combine with ft_poly for limited memory");
    }
    const int bfs = exact_log(static_cast<std::uint64_t>(P),
                              static_cast<std::uint64_t>(npts));
    if (bfs < 1) {
        throw std::invalid_argument(
            "ft_linear: processors must be a power of 2k-1, at least 2k-1");
    }

    // Parse and validate the fault plan: eval-L<i> / interp-L<i> for any BFS
    // level i, plus leaf-mul; at most f per (phase, level-i column), data
    // ranks only. Over-budget or misplaced fault sets are *unrecoverable*,
    // not misconfigurations: refuse before computing a wrong product.
    ColumnFaults faults;
    for (const auto& [phase, rank] : plan.all()) {
        const int level = phase_level(phase, bfs);
        if (level < 0 || level >= bfs) {
            throw UnrecoverableFault(
                "ft_linear", phase, {rank},
                "faults are only tolerated at eval-L<i>, interp-L<i> "
                "(i < log_{2k-1} P) and leaf-mul phase boundaries");
        }
        if (rank < 0 || rank >= P) {
            throw UnrecoverableFault(
                "ft_linear", phase, {rank},
                "only data processors (ranks 0..P-1) can fail; code "
                "processors carry the redundancy itself");
        }
        faults.by_phase_col[phase][column_at_level(rank, npts, level)]
            .push_back(rank);
    }
    for (auto& [phase, by_col] : faults.by_phase_col) {
        for (auto& [col, dead] : by_col) {
            std::sort(dead.begin(), dead.end());
            if (static_cast<int>(dead.size()) > f) {
                throw UnrecoverableFault(
                    "ft_linear", phase, dead,
                    "more faults in column " + std::to_string(col) +
                        " than code rows f=" + std::to_string(f));
            }
        }
    }

    const int world = P + f * npts;
    FtRunResult result;
    {
        ParallelConfig geo = cfg.base;
        geo.forced_dfs_steps = 0;
        result.shape =
            resolve_shape(geo, std::max(a.bit_length(), b.bit_length()));
    }
    const ResolvedShape& shape = result.shape;
    result.extra_processors = world - P;
    result.faults_injected = static_cast<int>(plan.total_faults());
    if (a.is_zero() || b.is_zero()) return result;

    const ToomPlan tplan = ToomPlan::make(k);
    Machine machine(world, plan);
    arm_transport(machine, cfg.base);
    std::vector<std::vector<BigInt>> slices(static_cast<std::size_t>(P));

    const std::size_t N = shape.total_digits;
    const auto unpts = static_cast<std::size_t>(npts);

    // The sequence of protected boundaries in program order; each entry
    // names the boundary phase and the grid level whose columns encode it.
    struct Boundary {
        std::string phase;
        int level;
        int tag;
    };
    std::vector<Boundary> fwd_bounds, bwd_bounds;
    for (int lv = 0; lv < bfs; ++lv) {
        fwd_bounds.push_back({"eval-L" + std::to_string(lv), lv, 300 + lv * 16});
    }
    const Boundary leaf_bound{kLeafPhase, bfs - 1, 300 + bfs * 16};
    for (int lv = bfs - 1; lv >= 0; --lv) {
        bwd_bounds.push_back(
            {"interp-L" + std::to_string(lv), lv, 300 + (bfs + 1 + lv) * 16});
    }

    machine.run([&](Rank& rank) {
        const bool is_code = rank.id() >= P;

        // Encode-then-maybe-recover at one boundary. `state` is the data
        // rank's protected state (ignored for code ranks); returns true when
        // this rank failed here and `state` now holds the rebuilt data.
        auto protect = [&](const Boundary& bd,
                           std::vector<BigInt>& state) -> bool {
            const int col =
                is_code ? (rank.id() - P) % npts
                        : column_at_level(rank.id(), npts, bd.level);
            const LinearColumn column{
                "ft_linear", P, npts, f,
                column_members(P, npts, bd.level, col), col};
            return protect_column(rank, column, "encode-" + bd.phase,
                                  bd.phase, faults.dead_in(bd.phase, col),
                                  state, bd.tag, bd.tag + 2 * f + 2);
        };

        if (is_code) {
            // Code processors take part in every boundary's encode and any
            // recovery their column needs, in the same program order.
            std::vector<BigInt> none;
            for (const auto& bd : fwd_bounds) protect(bd, none);
            protect(leaf_bound, none);
            for (const auto& bd : bwd_bounds) protect(bd, none);
            return;
        }

        // ----- data processor -----
        rank.phase("split");
        std::vector<BigInt> a_loc = local_input_digits(a, shape, P, rank.id());
        std::vector<BigInt> b_loc = local_input_digits(b, shape, P, rank.id());

        // Forward sweep: every BFS level's evaluation boundary is protected
        // by a fresh code over the current (a|b) state.
        struct Level {
            Group g;
            std::size_t bs;
            std::size_t len;
        };
        std::vector<Level> levels;
        Group g = Group::strided(0, P);
        std::size_t bs = 1;
        std::size_t len = N;
        for (int lv = 0; lv < bfs; ++lv) {
            std::vector<BigInt> state = pack_pair(a_loc, b_loc);
            if (protect(fwd_bounds[static_cast<std::size_t>(lv)], state)) {
                unpack_pair(std::move(state), a_loc, b_loc);
            }

            const std::size_t m = g.size();
            const std::size_t s = len / static_cast<std::size_t>(k) / m;
            std::vector<BigInt> ea(unpts * s), eb(unpts * s);
            tplan.evaluate_blocks(a_loc, ea, s);
            tplan.evaluate_blocks(b_loc, eb, s);
            rank.note_memory((a_loc.size() + b_loc.size() + 2 * unpts * s) *
                             ((shape.digit_bits + 63) / 64 + 2));
            rank.phase("xfwd-L" + std::to_string(lv));
            std::tie(a_loc, b_loc) = exchange_forward_pair(
                rank, g, unpts, bs, std::move(ea), std::move(eb),
                100 + lv * 8, 101 + lv * 8);
            levels.push_back({g, bs, len});
            g = column_subgroup(g, unpts, g.index_of(rank.id()) % unpts);
            bs *= unpts;
            len /= static_cast<std::size_t>(k);
        }

        // Multiplication phase: a fault here costs a decode *plus* a
        // recomputation of the leaf product (Birnbaum-style recovery).
        {
            std::vector<BigInt> state = pack_pair(a_loc, b_loc);
            if (protect(leaf_bound, state)) {
                unpack_pair(std::move(state), a_loc, b_loc);
            }
        }
        std::vector<BigInt> child =
            leaf_multiply(tplan, std::move(a_loc), std::move(b_loc));

        // Backward sweep: every interpolation boundary protected likewise.
        for (int lv = bfs - 1; lv >= 0; --lv) {
            const Level& L = levels[static_cast<std::size_t>(lv)];
            const std::size_t m = L.g.size();
            const std::size_t s = L.len / static_cast<std::size_t>(k) / m;
            const std::size_t rc = 2 * s;
            rank.phase("xbwd-L" + std::to_string(lv));
            std::vector<BigInt> children = exchange_backward(
                rank, L.g, unpts, L.bs, std::move(child), 102 + lv * 8);

            const Boundary& bd =
                bwd_bounds[static_cast<std::size_t>(bfs - 1 - lv)];
            protect(bd, children);  // a failed rank gets its children rebuilt

            std::vector<BigInt> coeffs(unpts * rc);
            tplan.interpolation().apply_blocks(children, coeffs, rc);
            child = fold_blocks_local(coeffs, unpts, rc, s, 2 * L.len / m);
        }
        slices[static_cast<std::size_t>(rank.id())] = std::move(child);
    });
    finish_run(result, machine, slices, a, b);
    return result;
}

}  // namespace ftmul
