#include "core/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

#include "bigint/ops_counter.hpp"
#include "core/ft_common.hpp"
#include "core/kronecker.hpp"
#include "core/layout.hpp"
#include "runtime/metrics.hpp"
#include "toom/sequential.hpp"

namespace ftmul {

namespace core_detail {

namespace {

std::vector<std::size_t> base_rows(const ToomPlan& plan) {
    std::vector<std::size_t> rows(plan.num_base_points());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    return rows;
}

std::uint64_t words_estimate(const ResolvedShape& shape, std::size_t digits) {
    return static_cast<std::uint64_t>(digits) *
           ((shape.digit_bits + 63) / 64 + 2);
}

}  // namespace

CoeffBlock local_input_digits(const BigInt& v, const ResolvedShape& shape,
                              int nranks, int my_index, std::size_t stride) {
    const std::size_t db = shape.digit_bits;
    if (db + 1 > 64 * stride) {
        throw std::overflow_error(
            "local_input_digits: a digit exceeds its block stride");
    }
    const auto p = static_cast<std::size_t>(nranks);
    const auto j = static_cast<std::size_t>(my_index);
    CoeffBlock out(shape.total_digits / p, stride);
    // Digit i of this slice is bits [t * db, (t + 1) * db) of |v|,
    // t = i * p + j: a shifted copy of at most ceil(db / 64) + 1 limbs.
    const detail::Limbs& mag = v.magnitude();
    const std::size_t dl = (db + 63) / 64;
    std::size_t i = 0;
    for (; i < out.size(); ++i) {
        const std::size_t at = (i * p + j) * db;
        const std::size_t w = at / 64;
        if (w >= mag.size()) break;  // this and every later digit is zero
        const unsigned sh = static_cast<unsigned>(at % 64);
        std::uint64_t* d = out.coeff(i);
        for (std::size_t l = 0; l < dl && w + l < mag.size(); ++l) {
            const std::uint64_t hi = w + l + 1 < mag.size() ? mag[w + l + 1] : 0;
            d[l] = sh == 0 ? mag[w + l] : (mag[w + l] >> sh) | (hi << (64 - sh));
        }
        if (db % 64 != 0) d[dl - 1] &= ~std::uint64_t{0} >> (64 - db % 64);
    }
    OpsCounter::add(i * dl);
    return out;
}

CoeffBlock leaf_multiply(const ToomPlan& plan, const CoeffBlock& a_loc,
                         const CoeffBlock& b_loc, std::size_t stride) {
    // The leaf result must be the *carry-free* coefficient vector of the
    // product polynomial: ancestor interpolations and overlap-adds act
    // digit-wise, and their exact divisions hold only as polynomial
    // identities. Kronecker substitution packs each (signed) digit block
    // into one integer, one sequential Toom-Cook product carries the whole
    // convolution, and a balanced unpack writes it into the result block,
    // padded to exactly twice the input length.
    assert(a_loc.size() == b_loc.size());
    CoeffBlock conv(2 * a_loc.size(), stride);
    kronecker_convolve(a_loc, b_loc, conv,
                       [&plan](const BigInt& x, const BigInt& y) {
                           return toom_multiply(x, y, plan);
                       });
    return conv;
}

CoeffBlock dist_convolve(Rank& rank, const ToomPlan& plan,
                         const ResolvedShape& shape,
                         const BlockStrides& strides, const Group& g,
                         std::size_t bs, CoeffBlock a_loc, CoeffBlock b_loc,
                         std::size_t len, int dfs_left, int level) {
    // Canonical (optimal) schedule: all DFS steps first, then all BFS steps.
    int bfs = 0;
    for (std::size_t q = g.size(); q > 1;
         q /= static_cast<std::size_t>(shape.npts)) {
        ++bfs;
    }
    std::string steps(static_cast<std::size_t>(dfs_left), 'D');
    steps.append(static_cast<std::size_t>(bfs), 'B');
    return dist_convolve_steps(rank, plan, shape, strides, g, bs,
                               std::move(a_loc), std::move(b_loc), len, steps,
                               level);
}

CoeffBlock dist_convolve_steps(Rank& rank, const ToomPlan& plan,
                               const ResolvedShape& shape,
                               const BlockStrides& strides, const Group& g,
                               std::size_t bs, CoeffBlock a_loc,
                               CoeffBlock b_loc, std::size_t len,
                               std::string_view steps, int level) {
    const std::size_t m = g.size();
    if (steps.empty()) {
        assert(m == 1 && "schedule must reach a singleton group");
        rank.phase("leaf-mul");
        rank.note_memory(words_estimate(shape, 4 * a_loc.size()));
        return leaf_multiply(plan, a_loc, b_loc, strides.product);
    }
    const char step = steps.front();
    const std::string_view rest = steps.substr(1);

    const auto npts = static_cast<std::size_t>(shape.npts);
    const auto k = static_cast<std::size_t>(shape.k);
    const std::string lvl = std::to_string(level);
    assert(len % (k * m) == 0);
    const std::size_t s = len / k / m;      // per-block local input length
    const std::size_t rc = 2 * s;           // per-block local result length
    const std::size_t out_len = 2 * len / m;
    const Matrix<std::int64_t>& eval = plan.eval_matrix();
    const InterpOperator& interp = plan.interpolation();

    if (step == 'D') {
        // DFS step (Section 3): the 2k-1 sub-problems are generated and
        // solved one at a time by the whole group, with no communication.
        // The child results stream into the interpolation accumulator so
        // only one child is live at any moment (Lemma 3.1's footprint).
        CoeffBlock acc(npts * rc, strides.product);
        for (std::size_t i = 0; i < npts; ++i) {
            rank.phase("eval-L" + lvl);
            const std::size_t row_idx[1] = {i};
            CoeffBlock ea(s, strides.operand), eb(s, strides.operand);
            evaluate_blocks(eval, a_loc, ea, s, row_idx);
            evaluate_blocks(eval, b_loc, eb, s, row_idx);
            rank.note_memory(words_estimate(
                shape, a_loc.size() + b_loc.size() + acc.size() + 2 * s));

            const CoeffBlock child = dist_convolve_steps(
                rank, plan, shape, strides, g, bs, std::move(ea),
                std::move(eb), len / k, rest, level + 1);
            assert(child.size() == rc);
            rank.phase("interp-L" + lvl);
            accumulate_column(interp, i, child, acc, rc);
        }
        a_loc.clear();
        b_loc.clear();
        rank.phase("interp-L" + lvl);
        finalize_blocks(interp, acc, rc);
        return fold_blocks_local(acc, npts, rc, s, out_len);
    }

    // BFS step: evaluate locally, exchange within rows, recurse inside the
    // column subgroup, exchange back, interpolate locally.
    const auto rows = base_rows(plan);
    rank.phase("eval-L" + lvl);
    CoeffBlock ea(npts * s, strides.operand), eb(npts * s, strides.operand);
    evaluate_blocks(eval, a_loc, ea, s, rows);
    evaluate_blocks(eval, b_loc, eb, s, rows);
    rank.note_memory(words_estimate(
        shape, a_loc.size() + b_loc.size() + ea.size() + eb.size()));
    a_loc.clear();
    b_loc.clear();

    const int tag_base = 100 + level * 8;
    rank.phase("xfwd-L" + lvl);
    auto [a_new, b_new] = exchange_forward_pair(
        rank, g, npts, bs, std::move(ea), std::move(eb), tag_base,
        tag_base + 1);

    assert(step == 'B');
    const std::size_t col = g.index_of(rank.id()) % npts;
    const Group sub = column_subgroup(g, npts, col);
    CoeffBlock child = dist_convolve_steps(
        rank, plan, shape, strides, sub, bs * npts, std::move(a_new),
        std::move(b_new), len / k, rest, level + 1);

    rank.phase("xbwd-L" + lvl);
    assert(child.size() == npts * rc);
    const CoeffBlock children =
        exchange_backward(rank, g, npts, bs, std::move(child), tag_base + 2);

    rank.phase("interp-L" + lvl);
    rank.note_memory(words_estimate(shape, 2 * children.size()));
    CoeffBlock coeffs(npts * rc, strides.product);
    apply_blocks(interp, children, coeffs, rc);
    return fold_blocks_local(coeffs, npts, rc, s, out_len);
}

}  // namespace core_detail

ParallelRunResult parallel_toom_multiply(const BigInt& a, const BigInt& b,
                                         const ParallelConfig& cfg) {
    using namespace core_detail;
    const EngineRunScope metrics_scope("parallel");

    ParallelRunResult result;
    const std::size_t n_bits = std::max(a.bit_length(), b.bit_length());
    ParallelConfig effective = cfg;
    if (!cfg.step_order.empty()) {
        int d = 0;
        for (char c : cfg.step_order) {
            if (c == 'D') {
                ++d;
            } else if (c != 'B') {
                throw std::invalid_argument(
                    "parallel_toom: step_order must contain only 'B'/'D'");
            }
        }
        effective.forced_dfs_steps = d;
    }
    result.shape = resolve_shape(effective, n_bits);
    const ResolvedShape& shape = result.shape;
    std::string steps = cfg.step_order;
    if (steps.empty()) {
        steps.assign(static_cast<std::size_t>(shape.dfs_steps), 'D');
        steps.append(static_cast<std::size_t>(shape.bfs_steps), 'B');
    } else {
        const auto nb = static_cast<std::size_t>(
            std::count(steps.begin(), steps.end(), 'B'));
        if (nb != static_cast<std::size_t>(shape.bfs_steps)) {
            throw std::invalid_argument(
                "parallel_toom: step_order must contain exactly "
                "log_{2k-1}(P) 'B' steps");
        }
    }

    if (a.is_zero() || b.is_zero()) {
        result.product = BigInt{};
        return result;
    }

    const ToomPlan plan = ToomPlan::make(cfg.k);
    Machine machine(shape.processors);
    arm_transport(machine, cfg);
    const BlockStrides strides = block_strides(shape, plan);
    std::vector<CoeffBlock> slices(static_cast<std::size_t>(shape.processors));

    machine.run([&](Rank& rank) {
        rank.phase("split");
        CoeffBlock a_loc = local_input_digits(a, shape, shape.processors,
                                              rank.id(), strides.operand);
        CoeffBlock b_loc = local_input_digits(b, shape, shape.processors,
                                              rank.id(), strides.operand);
        // Delay faults: a straggler's slowdown lands on the critical path.
        for (const auto& [r, rounds] : cfg.straggler_delays) {
            if (r == rank.id()) {
                rank.phase("straggle");
                rank.add_latency(rounds);
            }
        }
        Group world = Group::strided(0, shape.processors);
        auto out = dist_convolve_steps(rank, plan, shape, strides, world, 1,
                                       std::move(a_loc), std::move(b_loc),
                                       shape.total_digits, steps, 0);
        slices[static_cast<std::size_t>(rank.id())] = std::move(out);
    });
    finish_run(result, machine, slices, a, b);
    return result;
}

}  // namespace ftmul
