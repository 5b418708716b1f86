#include "core/config.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "toom/plan.hpp"

namespace ftmul {

int exact_log(std::uint64_t v, std::uint64_t base) {
    int l = 0;
    while (v > 1) {
        if (v % base != 0) return -1;
        v /= base;
        ++l;
    }
    return l;
}

std::uint64_t ipow(std::uint64_t b, int e) {
    std::uint64_t r = 1;
    for (int i = 0; i < e; ++i) r *= b;
    return r;
}

namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) {
    return a / b + (a % b != 0 ? 1 : 0);
}

/// a * b, or std::invalid_argument when the product wraps 64 bits.
std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b) {
    std::uint64_t r = 0;
    if (__builtin_mul_overflow(a, b, &r)) {
        throw std::invalid_argument(
            "resolve_shape: k^levels * P digits overflow 64 bits");
    }
    return r;
}

ResolvedShape shape_for_dfs(const ParallelConfig& cfg, std::size_t n_bits,
                            int bfs, int dfs) {
    return resolve_shape_general(cfg.k, cfg.processors, dfs, bfs, dfs + bfs,
                                 cfg.digit_bits, cfg.base_len, n_bits);
}

}  // namespace

ResolvedShape resolve_shape_general(int k, int world, int dfs_steps,
                                    int bfs_steps, int levels,
                                    std::size_t digit_bits,
                                    std::size_t base_len, std::size_t n_bits) {
    ResolvedShape s;
    s.k = k;
    s.npts = 2 * k - 1;
    s.processors = world;
    s.bfs_steps = bfs_steps;
    s.dfs_steps = dfs_steps;
    s.digit_bits = digit_bits;
    s.base_len = base_len;

    // N = k^levels * leaf_len with leaf_len a positive multiple of world —
    // the divisibility the block-cyclic layout needs at every level. The
    // leaf's sequential convolution pads internally, so no further rounding
    // is required. Every digit's bit offset t * digit_bits must fit 64 bits
    // too, so a shape whose N or N * digit_bits wraps is rejected.
    std::uint64_t unit = static_cast<std::uint64_t>(world);
    for (int i = 0; i < levels; ++i) {
        unit = checked_mul(unit, static_cast<std::uint64_t>(k));
    }
    const std::size_t digits_needed =
        ceil_div(n_bits == 0 ? 1 : n_bits, digit_bits);
    const std::size_t mult = ceil_div(digits_needed, unit);
    s.leaf_len = mult * static_cast<std::size_t>(world);
    s.total_digits = checked_mul(unit, mult);
    checked_mul(s.total_digits, digit_bits);
    return s;
}

std::string ResolvedShape::to_string() const {
    return "k=" + std::to_string(k) + " P=" + std::to_string(processors) +
           " N=" + std::to_string(total_digits) +
           " digit_bits=" + std::to_string(digit_bits) +
           " dfs=" + std::to_string(dfs_steps) +
           " bfs=" + std::to_string(bfs_steps) +
           " leaf_len=" + std::to_string(leaf_len);
}

std::uint64_t estimate_peak_words(const ResolvedShape& s) {
    // Per-rank digit count at the widest point: the N/P input share expands
    // by (2k-1)/k per BFS step, and results roughly double digit count.
    const double expand = std::pow(
        static_cast<double>(s.npts) / static_cast<double>(s.k), s.bfs_steps);
    const double digits =
        static_cast<double>(s.total_digits) /
        static_cast<double>(s.processors) * expand;
    const double words_per_digit =
        static_cast<double>((s.digit_bits + 63) / 64) + 2.0;
    // Inputs (a and b) plus the ~2x-size product coefficients.
    return static_cast<std::uint64_t>(4.0 * digits * words_per_digit);
}

ResolvedShape resolve_shape(const ParallelConfig& cfg, std::size_t n_bits) {
    if (cfg.k < 2) throw std::invalid_argument("resolve_shape: k must be >= 2");
    if (cfg.processors <= 0) {
        throw std::invalid_argument("resolve_shape: processors must be > 0");
    }
    const int bfs = exact_log(static_cast<std::uint64_t>(cfg.processors),
                              static_cast<std::uint64_t>(2 * cfg.k - 1));
    if (bfs < 0) {
        throw std::invalid_argument(
            "resolve_shape: processors must be a power of 2k-1");
    }
    if (cfg.digit_bits == 0) {
        throw std::invalid_argument("resolve_shape: digit_bits must be > 0");
    }

    if (cfg.forced_dfs_steps >= 0) {
        return shape_for_dfs(cfg, n_bits, bfs, cfg.forced_dfs_steps);
    }

    // Lemma 3.1: the minimum number of DFS steps that fits the memory limit.
    constexpr int kMaxDfs = 24;
    ResolvedShape s = shape_for_dfs(cfg, n_bits, bfs, 0);
    if (cfg.memory_limit_words == 0) return s;
    for (int dfs = 0; dfs <= kMaxDfs; ++dfs) {
        s = shape_for_dfs(cfg, n_bits, bfs, dfs);
        if (estimate_peak_words(s) / ipow(static_cast<std::uint64_t>(cfg.k),
                                          dfs) <=
            cfg.memory_limit_words) {
            s.dfs_steps = dfs;
            return s;
        }
    }
    throw std::invalid_argument(
        "resolve_shape: memory limit unsatisfiable within DFS budget");
}

}  // namespace ftmul
