// Microbenchmarks for the allocation-free hot paths: the limb kernels
// behind BigInt, the sequential Toom leaf path they serve, and the
// Machine's persistent thread-pool executor.
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
// Usage: bench_kernels [--smoke]   (--smoke = tiny sizes for CI)

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
#include "runtime/machine.hpp"
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
    ftmul::machine_reuse_table(report, smoke);
    report.write();
    return 0;
}
