// Microbenchmarks for the allocation-free hot paths: the limb kernels
// behind BigInt, the sequential Toom leaf path they serve, the machine
// engines' leaf convolution, their coefficient-block evaluation,
// interpolation, fold and leaf against the BigInt vectors they replaced,
// product assembly, and the Machine's
// persistent thread-pool executor. The full run adds an end-to-end wall
// table (engine x operand size) that shows what those layers buy one whole
// multiply.
//
// Every optimized kernel is timed against its *_reference twin — the
// pre-optimization implementation kept verbatim in limb_ops.cpp — inside
// one process, interleaved round-robin with min-of-rounds, so the reported
// ratios hold up even on noisy shared machines. The cost-model charge (F)
// of each pair is measured through the OpsCounter and reported alongside:
// optimized and reference rows must charge identically, which is the
// no-behavioral-drift contract of this optimization layer (the model
// charges schoolbook cost regardless of how fast the kernel runs).
//
// The end-to-end table also carries the pre-PR wall-clock of the full
// sequential Toom path measured on the reference machine before the kernel
// rewrite (committed constant, labeled as such), since the original BigInt
// internals no longer exist in this binary to time live.
//
// Usage: bench_kernels [--smoke]   (--smoke = tiny sizes for CI, and no
// end-to-end wall table)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "bigint/bigint.hpp"
#include "bigint/limb_ops.hpp"
#include "bigint/ops_counter.hpp"
#include "bigint/random.hpp"
#include "core/coeff_block.hpp"
#include "core/kronecker.hpp"
#include "core/layout.hpp"
#include "core/parallel.hpp"
#include "core/resilient.hpp"
#include "runtime/machine.hpp"
#include "toom/digits.hpp"
#include "toom/lazy.hpp"
#include "toom/plan.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

using Clock = std::chrono::steady_clock;

/// Pre-PR wall-clock of toom_multiply (k=2, 4096-limb balanced operands) on
/// the reference machine, measured at commit 16d8342 with the same probe
/// this bench uses. See docs/PERFORMANCE.md for the measurement protocol.
constexpr double kPrePrToomSeqNs = 8.827e6;

void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Interleaved A/B wall-clock: alternate whole rounds of each candidate and
/// keep the best per-op time of any round. Interleaving means a load spike
/// hits both sides; min-of-rounds discards it.
template <typename FA, typename FB>
std::pair<double, double> ab_time_ns(FA&& fa, FB&& fb, int iters,
                                     int rounds) {
    double best_a = 1e300, best_b = 1e300;
    for (int r = 0; r < rounds; ++r) {
        auto t0 = Clock::now();
        for (int i = 0; i < iters; ++i) fa();
        auto t1 = Clock::now();
        for (int i = 0; i < iters; ++i) fb();
        auto t2 = Clock::now();
        best_a = std::min(
            best_a, std::chrono::duration<double, std::nano>(t1 - t0).count() /
                        iters);
        best_b = std::min(
            best_b, std::chrono::duration<double, std::nano>(t2 - t1).count() /
                        iters);
    }
    return {best_a, best_b};
}

/// F charged by one invocation, via the thread-local OpsCounter.
template <typename F>
std::uint64_t charged_flops(F&& f) {
    const std::uint64_t before = OpsCounter::get();
    f();
    return OpsCounter::get() - before;
}

detail::Limbs random_limbs(Rng& rng, std::size_t n) {
    detail::Limbs v(n);
    for (auto& x : v) x = rng.next_u64();
    v.back() |= 1ull << 63;  // full length
    return v;
}

bench::Row kernel_row(const std::string& name, double wall_ns,
                      std::uint64_t flops, bool ok) {
    bench::Row r;
    r.name = name;
    r.crit.flops = flops;
    r.agg.flops = flops;
    r.wall_ns = wall_ns;
    r.ok = ok;
    return r;
}

/// Reference vs optimized rows for one kernel pair; baseline is the
/// reference row, so the printed F/base column doubles as the
/// charge-identity check (must be 1.000).
template <typename FRef, typename FOpt>
void ab_rows(std::vector<bench::Row>& rows, const std::string& name,
             FRef&& fref, FOpt&& fopt, int iters, int rounds, bool ok) {
    const std::uint64_t fr = charged_flops(fref);
    const std::uint64_t fo = charged_flops(fopt);
    const auto [ref_ns, opt_ns] = ab_time_ns(fref, fopt, iters, rounds);
    rows.push_back(kernel_row(name + "/reference", ref_ns, fr, ok));
    rows.push_back(kernel_row(name + "/optimized", opt_ns, fo, ok && fo == fr));
    std::printf("%-28s ref %12.1f ns  opt %12.1f ns  speedup %5.2fx  F %s\n",
                name.c_str(), ref_ns, opt_ns, ref_ns / opt_ns,
                fo == fr ? "identical" : "DRIFT");
}

void leaf_path_table(bench::JsonReport& report, bool smoke) {
    bench::print_header("sequential Toom leaf path: balanced schoolbook multiply");
    Rng rng{11};
    std::vector<bench::Row> rows;
    struct Case { std::size_t n; int iters; };
    const std::vector<Case> cases =
        smoke ? std::vector<Case>{{32, 2000}}
              : std::vector<Case>{{32, 20000}, {256, 1500}, {1024, 120}, {4096, 12}};
    const int rounds = smoke ? 3 : 5;
    for (const auto& [n, iters] : cases) {
        const detail::Limbs a = random_limbs(rng, n);
        const detail::Limbs b = random_limbs(rng, n);
        const bool ok = detail::cmp(detail::mul(a, b),
                                    detail::mul_reference(a, b)) == 0;
        ab_rows(
            rows, "mul/" + std::to_string(n),
            [&] { detail::Limbs r = detail::mul_reference(a, b); keep(r.data()); },
            [&] { detail::Limbs r = detail::mul(a, b); keep(r.data()); },
            iters, rounds, ok);
    }
    bench::print_rows(rows, 0);
    report.add_table("leaf path: balanced schoolbook multiply (limbs)", rows, 0);
}

void addsub_table(bench::JsonReport& report, bool smoke) {
    bench::print_header("carry-chain kernels: add / sub / shl");
    Rng rng{13};
    const std::size_t n = smoke ? 512 : 4096;
    const int iters = smoke ? 4000 : 3000;
    const int rounds = smoke ? 3 : 5;
    const detail::Limbs a = random_limbs(rng, n);
    const detail::Limbs b = random_limbs(rng, n);
    std::vector<bench::Row> rows;
    {
        const bool ok = detail::cmp(detail::add(a, b),
                                    detail::add_reference(a, b)) == 0;
        ab_rows(
            rows, "add/" + std::to_string(n),
            [&] { detail::Limbs r = detail::add_reference(a, b); keep(r.data()); },
            [&] { detail::Limbs r = detail::add(a, b); keep(r.data()); },
            iters, rounds, ok);
    }
    {
        const detail::Limbs big = detail::cmp(a, b) >= 0 ? a : b;
        const detail::Limbs sml = detail::cmp(a, b) >= 0 ? b : a;
        const bool ok = detail::cmp(detail::sub(big, sml),
                                    detail::sub_reference(big, sml)) == 0;
        ab_rows(
            rows, "sub/" + std::to_string(n),
            [&] { detail::Limbs r = detail::sub_reference(big, sml); keep(r.data()); },
            [&] { detail::Limbs r = detail::sub(big, sml); keep(r.data()); },
            iters, rounds, ok);
    }
    {
        const bool ok =
            detail::cmp(detail::shl(a, 17), detail::shl_reference(a, 17)) == 0;
        ab_rows(
            rows, "shl/" + std::to_string(n),
            [&] { detail::Limbs r = detail::shl_reference(a, 17); keep(r.data()); },
            [&] { detail::Limbs r = detail::shl(a, 17); keep(r.data()); },
            iters, rounds, ok);
    }
    bench::print_rows(rows, 0);
    report.add_table("carry-chain kernels (limbs)", rows, 0);
}

void toom_end_to_end_table(bench::JsonReport& report, bool smoke) {
    bench::print_header("sequential Toom end-to-end (k=2)");
    Rng rng{7};
    const std::size_t limbs = smoke ? 512 : 4096;
    const BigInt a = random_bits(rng, limbs * 64);
    const BigInt b = random_bits(rng, limbs * 64);
    const ToomPlan plan = ToomPlan::make(2);
    const ToomOptions opts;
    BigInt r = toom_multiply(a, b, plan, opts);  // warmup
    const bool ok = r == a * b;
    const int iters = smoke ? 2 : 6;
    const int rounds = smoke ? 2 : 8;
    const std::uint64_t flops =
        charged_flops([&] { r = toom_multiply(a, b, plan, opts); });
    double wall = 1e300;
    for (int round = 0; round < rounds; ++round) {
        auto t0 = Clock::now();
        for (int i = 0; i < iters; ++i) {
            r = toom_multiply(a, b, plan, opts);
            keep(&r);
        }
        auto t1 = Clock::now();
        wall = std::min(
            wall,
            std::chrono::duration<double, std::nano>(t1 - t0).count() / iters);
    }
    std::vector<bench::Row> rows;
    std::size_t baseline = 0;
    if (!smoke) {
        // Committed pre-PR measurement (same machine, same probe shape);
        // the pre-rewrite BigInt internals no longer exist to time live.
        rows.push_back(kernel_row("toom_seq/4096/pre_pr(committed)",
                                  kPrePrToomSeqNs, flops, true));
    }
    rows.push_back(kernel_row(
        "toom_seq/" + std::to_string(limbs) + "/current",
        wall, flops, ok));
    std::printf("toom_seq %zu limbs: %.3f ms/op%s\n", limbs,
                wall / 1e6,
                smoke ? ""
                      : (" (pre-PR committed " +
                         std::to_string(kPrePrToomSeqNs / 1e6) + " ms)")
                            .c_str());
    bench::print_rows(rows, baseline);
    report.add_table("sequential Toom end-to-end (k=2)", rows, baseline);
}

/// Median wall-clock of 7 back-to-back calls of @p op.
template <typename F>
double median_ns(F&& op) {
    constexpr int kReps = 7;
    std::vector<double> ns(kReps);
    for (double& t : ns) {
        const auto t0 = Clock::now();
        op();
        t = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    }
    std::sort(ns.begin(), ns.end());
    return ns[kReps / 2];
}

/// The planner-default machine geometry (k=2, P=9, 32-bit digits) the
/// leaf and end-to-end tables run at.
ParallelConfig engine_config() {
    ParallelConfig c;
    c.k = 2;
    c.processors = 9;
    c.digit_bits = 32;
    return c;
}

void leaf_convolve_table(bench::JsonReport& report, bool smoke) {
    bench::print_header("machine-engine leaf: lazy Toom vs Kronecker");
    // One leaf of an 80,000-bit multiply (8,000 under --smoke): leaf_len
    // signed digits of digit_bits + 2 bits, the growth of two evaluation
    // levels plus a sign.
    Rng rng{17};
    const ParallelConfig cfg = engine_config();
    const ResolvedShape shape = resolve_shape(cfg, smoke ? 8000 : 80000);
    const ToomPlan plan = ToomPlan::make(cfg.k);
    std::vector<BigInt> a(shape.leaf_len), b(shape.leaf_len);
    for (BigInt& d : a) d = random_signed_bits(rng, cfg.digit_bits + 2);
    for (BigInt& d : b) d = random_signed_bits(rng, cfg.digit_bits + 2);
    std::vector<BigInt> lazy, kron;
    const auto run_lazy = [&] {
        lazy = toom_convolve(plan, a, b, shape.base_len);
    };
    const auto run_kron = [&] {
        kron = kronecker_convolve(a, b, [&](const BigInt& x, const BigInt& y) {
            return toom_multiply(x, y, plan);
        });
    };
    const std::uint64_t f_lazy = charged_flops(run_lazy);
    const std::uint64_t f_kron = charged_flops(run_kron);
    const bool ok = lazy == kron;
    const int iters = smoke ? 4 : 2;
    const int rounds = smoke ? 3 : 5;
    const auto [lazy_ns, kron_ns] = ab_time_ns(run_lazy, run_kron, iters, rounds);
    const std::string len = std::to_string(shape.leaf_len);
    std::vector<bench::Row> rows;
    rows.push_back(kernel_row("leaf_convolve/" + len + "/toom_convolve",
                              lazy_ns, f_lazy, ok));
    rows.push_back(kernel_row("leaf_convolve/" + len + "/kronecker", kron_ns,
                              f_kron, ok));
    std::printf("leaf %s digits: toom_convolve %.3f ms  kronecker %.3f ms  "
                "speedup %5.2fx  output %s\n",
                len.c_str(), lazy_ns / 1e6, kron_ns / 1e6, lazy_ns / kron_ns,
                ok ? "identical" : "MISMATCH");
    bench::print_rows(rows, 0);
    report.add_table("machine-engine leaf convolution", rows, 0);
}

/// One BigInt-vs-block pair: both rows carry their own F (the block
/// kernels charge limbs per coefficient, the BigInt ones per operation), so
/// the check is that the outputs agree, not that the charges do.
template <typename FBig, typename FBlock>
void block_rows(std::vector<bench::Row>& rows, const std::string& name,
                FBig&& fbig, FBlock&& fblock, bool ok, int iters, int rounds) {
    const std::uint64_t f_big = charged_flops(fbig);
    const std::uint64_t f_block = charged_flops(fblock);
    const auto [big_ns, block_ns] = ab_time_ns(fbig, fblock, iters, rounds);
    rows.push_back(kernel_row(name + "/bigint", big_ns, f_big, ok));
    rows.push_back(kernel_row(name + "/block", block_ns, f_block, ok));
    std::printf("%-22s bigint %10.1f us  block %10.1f us  speedup %5.2fx  "
                "output %s\n",
                name.c_str(), big_ns / 1e3, block_ns / 1e3, big_ns / block_ns,
                ok ? "identical" : "MISMATCH");
}

void block_kernels_table(bench::JsonReport& report, bool smoke) {
    bench::print_header("distributed-path kernels: BigInt vectors vs blocks");
    // The rank shapes of an 80,000-bit multiply at k=2, P=9, 32-bit digits
    // (a tenth under --smoke): evaluation of two 630-digit operand blocks,
    // interpolation and overlap-add of three 1,260-coefficient child blocks,
    // and one 630-digit leaf. Operands carry the 34 bits of two evaluation
    // levels, children the ~78 bits of a leaf product, both signed; blocks
    // sit at the strides block_strides gives that shape (1 and 2 limbs).
    Rng rng{29};
    const std::size_t n = smoke ? 63 : 630;
    const std::size_t rc = 2 * n;
    const ToomPlan plan = ToomPlan::make(2);
    const InterpOperator& interp = plan.interpolation();
    std::vector<BigInt> digits(2 * n), children(3 * rc);
    for (BigInt& d : digits) d = random_signed_bits(rng, 34);
    for (BigInt& c : children) c = random_signed_bits(rng, 78);
    const CoeffBlock digit_block = from_bigints(digits, 1);
    const CoeffBlock child_block = from_bigints(children, 2);
    const int iters = smoke ? 20 : 10;
    const int rounds = smoke ? 3 : 5;
    const std::string ns = std::to_string(n);
    const std::string rcs = std::to_string(rc);
    std::vector<bench::Row> rows;

    std::vector<BigInt> eval_big(3 * n);
    CoeffBlock eval_block(3 * n, 1);
    const auto eval_bigint = [&] { plan.evaluate_blocks(digits, eval_big, n); };
    const auto eval_blocks = [&] {
        evaluate_blocks(plan.eval_matrix(), digit_block, eval_block, n);
    };
    eval_bigint();
    eval_blocks();
    block_rows(rows, "eval/2x" + ns, eval_bigint, eval_blocks,
               to_bigints(eval_block) == eval_big, iters, rounds);

    std::vector<BigInt> interp_big(3 * rc);
    CoeffBlock interp_block(3 * rc, 2);
    const auto interp_bigint = [&] {
        interp.apply_blocks(children, interp_big, rc);
    };
    const auto interp_blocks = [&] {
        apply_blocks(interp, child_block, interp_block, rc);
    };
    interp_bigint();
    interp_blocks();
    block_rows(rows, "interp/3x" + rcs, interp_bigint, interp_blocks,
               to_bigints(interp_block) == interp_big, iters, rounds);

    // The overlap-add of three child-sized blocks n apart; the BigInt side
    // is the vector fold the engines ran before blocks.
    std::vector<BigInt> fold_big;
    CoeffBlock fold_block;
    const std::vector<std::size_t> offsets{0, n, 2 * n};
    const auto fold_bigint = [&] {
        fold_big.assign(4 * n, BigInt{});
        for (std::size_t i = 0; i < 3; ++i) {
            for (std::size_t t = 0; t < rc; ++t) {
                fold_big[offsets[i] + t] += children[i * rc + t];
            }
        }
    };
    const auto fold_blocks_ = [&] {
        fold_block = fold_blocks(child_block, offsets, rc, 4 * n);
    };
    fold_bigint();
    fold_blocks_();
    block_rows(rows, "fold/3x" + rcs, fold_bigint, fold_blocks_,
               to_bigints(fold_block) == fold_big, iters, rounds);

    // The leaf: the BigInt adapter converts per digit around the same
    // packed product; the block leaf packs and unpacks the limb arrays.
    const std::vector<BigInt> a(digits.begin(), digits.begin() + n);
    const std::vector<BigInt> b(digits.begin() + n, digits.end());
    const CoeffBlock ab = from_bigints(a, 1);
    const CoeffBlock bb = from_bigints(b, 1);
    std::vector<BigInt> leaf_big;
    CoeffBlock leaf_block;
    const auto leaf_bigint = [&] {
        leaf_big = kronecker_convolve(a, b, [&](const BigInt& x, const BigInt& y) {
            return toom_multiply(x, y, plan);
        });
    };
    const auto leaf_blocks = [&] {
        leaf_block = core_detail::leaf_multiply(plan, ab, bb, 2);
    };
    leaf_bigint();
    leaf_blocks();
    std::vector<BigInt> leaf_want = leaf_big;
    leaf_want.emplace_back();  // the leaf pads to twice its input length
    block_rows(rows, "leaf/" + ns, leaf_bigint, leaf_blocks,
               to_bigints(leaf_block) == leaf_want, smoke ? 4 : 2, rounds);

    bench::print_rows(rows, 0);
    report.add_table("distributed-path kernels: BigInt vs block", rows, 0);
}

void assemble_table(bench::JsonReport& report, bool smoke) {
    bench::print_header("product assembly: Horner vs linear carry walk");
    // The product of an 80,000-bit multiply at 32-bit digits has 5,000
    // coefficients (500 under --smoke) of up to 76 bits, here dealt over
    // ten cyclic slices. "horner" is the old engine assembly (unslice, then
    // recompose_digits), "linear" the kronecker_assemble walk.
    Rng rng{23};
    const std::size_t coeffs = smoke ? 500 : 5000;
    const std::size_t p = 10;
    const std::size_t digit_bits = 32;
    std::vector<std::vector<BigInt>> slices(p,
                                            std::vector<BigInt>(coeffs / p));
    for (auto& slice : slices) {
        for (BigInt& c : slice) c = random_below_2pow(rng, 76);
    }
    std::vector<CoeffBlock> blocks;
    for (const auto& slice : slices) blocks.push_back(from_bigints(slice));
    BigInt horner, linear;
    const auto run_horner = [&] {
        horner = recompose_digits(unslice(slices, 1), digit_bits);
    };
    const auto run_linear = [&] {
        linear = kronecker_assemble(blocks, digit_bits);
    };
    const std::uint64_t f_horner = charged_flops(run_horner);
    const std::uint64_t f_linear = charged_flops(run_linear);
    const bool ok = horner == linear;
    const int iters = smoke ? 20 : 3;
    const int rounds = smoke ? 3 : 5;
    const auto [horner_ns, linear_ns] =
        ab_time_ns(run_horner, run_linear, iters, rounds);
    const std::string n = std::to_string(coeffs);
    std::vector<bench::Row> rows;
    rows.push_back(
        kernel_row("assemble/" + n + "/horner", horner_ns, f_horner, ok));
    rows.push_back(
        kernel_row("assemble/" + n + "/linear", linear_ns, f_linear, ok));
    std::printf("assemble %s coefficients: horner %.3f ms  linear %.3f ms  "
                "speedup %5.2fx  output %s\n",
                n.c_str(), horner_ns / 1e6, linear_ns / 1e6,
                horner_ns / linear_ns, ok ? "identical" : "MISMATCH");
    bench::print_rows(rows, 0);
    report.add_table("product assembly", rows, 0);
}

void end_to_end_wall_table(bench::JsonReport& report) {
    bench::print_header("end-to-end wall: engine x operand size");
    // Median wall of one whole multiply per (engine, size) at the planner
    // default geometry, no faults; every product is checked against the
    // schoolbook one.
    const ParallelConfig base = engine_config();
    const ToomPlan seq_plan = ToomPlan::make(base.k);
    ResilientConfig repl;
    repl.engine = FtEngine::Replication;
    repl.base = base;
    repl.faults = 1;
    ResilientConfig poly = repl;
    poly.engine = FtEngine::Poly;
    Rng rng{19};
    std::vector<bench::Row> rows;
    for (std::size_t bits : {8000u, 32000u, 80000u}) {
        const BigInt a = random_bits(rng, bits);
        const BigInt b = random_bits(rng, bits);
        const BigInt want = a * b;
        const std::string tag = std::to_string(bits);
        BigInt seq;
        const double seq_ns =
            median_ns([&] { seq = toom_multiply(a, b, seq_plan); });
        rows.push_back(kernel_row(
            "e2e/seq/" + tag, seq_ns,
            charged_flops([&] { seq = toom_multiply(a, b, seq_plan); }),
            seq == want));
        ParallelRunResult par;
        const double par_ns =
            median_ns([&] { par = parallel_toom_multiply(a, b, base); });
        rows.push_back(bench::stats_row("e2e/parallel/" + tag, par.stats,
                                        base.processors, 0, 0,
                                        par.product == want));
        rows.back().wall_ns = par_ns;
        for (const ResilientConfig* cfg : {&repl, &poly}) {
            FtRunResult ft;
            const double ft_ns =
                median_ns([&] { ft = run_ft_engine(a, b, *cfg, FaultPlan{}); });
            rows.push_back(bench::stats_row(
                std::string("e2e/") + to_string(cfg->engine) + "/" + tag,
                ft.stats, base.processors, ft.extra_processors, cfg->faults,
                ft.product == want));
            rows.back().wall_ns = ft_ns;
        }
    }
    for (const bench::Row& r : rows) {
        std::printf("%-22s %10.3f ms%s\n", r.name.c_str(), r.wall_ns / 1e6,
                    r.ok ? "" : "  WRONG PRODUCT");
    }
    bench::print_rows(rows, 0);
    report.add_table("end-to-end wall: engine x size (bits)", rows, 0);
}

void machine_reuse_table(bench::JsonReport& report, bool smoke) {
    bench::print_header("Machine executor: spawn-per-run vs persistent pool");
    const int world = 9;
    const int runs = smoke ? 20 : 60;
    const int rounds = smoke ? 3 : 5;
    const auto body = [](Rank& rank) {
        rank.phase("work");
        BigInt x{rank.id() + 1};
        for (int i = 0; i < 8; ++i) x += x;
        rank.note_memory(8);
    };
    // Spawn-per-run: a fresh Machine per iteration starts and joins its own
    // workers. Thread pool: one Machine whose workers stay parked between
    // runs.
    RunStats spawn_stats;
    Machine pool_machine(world);
    const auto [spawn_ns, pool_ns] = ab_time_ns(
        [&] {
            Machine fresh(world);
            fresh.run(body);
            spawn_stats = fresh.stats();
        },
        [&] { pool_machine.run(body); }, runs, rounds);
    // Charge identity across executors: both run the same SPMD body, so the
    // cost model must not see the executor at all.
    const bool same_costs =
        spawn_stats.aggregate.flops == pool_machine.stats().aggregate.flops &&
        spawn_stats.critical.flops == pool_machine.stats().critical.flops;
    std::vector<bench::Row> rows;
    bench::Row r0 = kernel_row("machine_run/spawn_per_run", spawn_ns,
                               spawn_stats.aggregate.flops, same_costs);
    bench::Row r1 = kernel_row("machine_run/thread_pool", pool_ns,
                               pool_machine.stats().aggregate.flops,
                               same_costs);
    r0.processors = r1.processors = world;
    rows.push_back(r0);
    rows.push_back(r1);
    std::printf(
        "machine run (world=%d): spawn %10.1f ns  pool %10.1f ns  "
        "speedup %5.2fx  costs %s\n",
        world, spawn_ns, pool_ns, spawn_ns / pool_ns,
        same_costs ? "identical" : "DRIFT");
    bench::print_rows(rows, 0);
    report.add_table("Machine executor: run reuse", rows, 0);
}

}  // namespace
}  // namespace ftmul

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    }
    ftmul::bench::JsonReport report("kernels");
    ftmul::leaf_path_table(report, smoke);
    ftmul::addsub_table(report, smoke);
    ftmul::toom_end_to_end_table(report, smoke);
    ftmul::leaf_convolve_table(report, smoke);
    ftmul::block_kernels_table(report, smoke);
    ftmul::assemble_table(report, smoke);
    ftmul::machine_reuse_table(report, smoke);
    if (!smoke) ftmul::end_to_end_wall_table(report);
    report.write();
    return 0;
}
