// Cross-engine integration: every multiplication engine in the library must
// produce the same product on the same inputs, under randomized (but valid)
// fault schedules. This is the end-to-end contract a downstream user relies
// on: whatever dies, the answer is exact.

#include <gtest/gtest.h>

#include "bigint/random.hpp"
#include "core/checkpoint.hpp"
#include "core/ft_linear.hpp"
#include "core/ft_mixed.hpp"
#include "core/ft_multistep.hpp"
#include "core/ft_poly.hpp"
#include "core/ft_soft.hpp"
#include "core/parallel.hpp"
#include "core/replication.hpp"
#include "toom/lazy.hpp"
#include "toom/sequential.hpp"
#include "toom/unbalanced.hpp"

namespace ftmul {
namespace {

TEST(Integration, EveryEngineAgrees) {
    Rng rng{2024};
    const BigInt a = random_bits(rng, 6000);
    const BigInt b = random_bits(rng, 5000);
    const BigInt expect = a * b;

    for (int k : {2, 3}) {
        const ToomPlan plan = ToomPlan::make(k);
        EXPECT_EQ(toom_multiply(a, b, plan), expect) << "seq k=" << k;
        EXPECT_EQ(toom_multiply_lazy(a, b, plan), expect) << "lazy k=" << k;
    }
    EXPECT_EQ(toom_multiply_unbalanced(a, b, UnbalancedPlan::make(3, 2)),
              expect);

    ParallelConfig base;
    base.k = 2;
    base.processors = 9;
    base.digit_bits = 32;
    base.base_len = 4;
    EXPECT_EQ(parallel_toom_multiply(a, b, base).product, expect);
    EXPECT_EQ(ft_linear_multiply(a, b, {base, 1}, {}).product, expect);
    EXPECT_EQ(ft_poly_multiply(a, b, {base, 1}, {}).product, expect);
    EXPECT_EQ(ft_mixed_multiply(a, b, {base, 1}, {}).product, expect);
    EXPECT_EQ(replicated_toom_multiply(a, b, {base, 1}, {}).product, expect);
    EXPECT_EQ(checkpoint_toom_multiply(a, b, {base}, {}).product, expect);
    FtMultistepConfig ms;
    ms.base = base;
    ms.faults = 1;
    ms.fused_steps = 2;
    EXPECT_EQ(ft_multistep_multiply(a, b, ms, {}).product, expect);
    FtSoftConfig soft;
    soft.base = base;
    EXPECT_EQ(ft_soft_multiply(a, b, soft, {}).product, expect);
}

TEST(Integration, SquareOfSumIdentity) {
    // (a+b)^2 == a^2 + 2ab + b^2, mixing engines for each term.
    Rng rng{4};
    const BigInt a = random_bits(rng, 4000);
    const BigInt b = random_bits(rng, 3500);
    const ToomPlan plan = ToomPlan::make(3);
    const BigInt lhs = toom_multiply(a + b, a + b, plan);
    ParallelConfig base;
    base.k = 2;
    base.processors = 3;
    const BigInt ab = parallel_toom_multiply(a, b, base).product;
    const BigInt rhs =
        toom_multiply(a, a, plan) + (ab << 1) + toom_multiply_lazy(b, b, plan);
    EXPECT_EQ(lhs, rhs);
}

// ---------------------------------------------------------------------------
// Randomized fault schedules: for each seed, build a random valid FaultPlan
// for each FT engine and require exact products.
// ---------------------------------------------------------------------------

class RandomFaultSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFaultSweep, FtPolyRandomColumns) {
    Rng rng{GetParam() * 7 + 1};
    const int k = 2, P = 9, f = 2, wide = 2 * k - 1 + f;
    const int world = (P / (2 * k - 1)) * wide;
    const BigInt a = random_bits(rng, 1500 + rng.next_below(2000));
    const BigInt b = random_bits(rng, 1000 + rng.next_below(2000));
    FaultPlan plan;
    // Up to f random distinct columns die; pick arbitrary ranks in them.
    const int ncols = static_cast<int>(rng.next_below(f + 1));
    std::vector<bool> used(static_cast<std::size_t>(wide), false);
    for (int i = 0; i < ncols; ++i) {
        int c;
        do {
            c = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(wide)));
        } while (used[static_cast<std::size_t>(c)]);
        used[static_cast<std::size_t>(c)] = true;
        const int row = static_cast<int>(rng.next_below(3));
        plan.add("mul", row * wide + c);
        (void)world;
    }
    FtPolyConfig cfg;
    cfg.base.k = k;
    cfg.base.processors = P;
    cfg.base.digit_bits = 32;
    cfg.faults = f;
    EXPECT_EQ(ft_poly_multiply(a, b, cfg, plan).product, a * b);
}

TEST_P(RandomFaultSweep, FtLinearRandomRanks) {
    Rng rng{GetParam() * 13 + 5};
    const int k = 2, P = 9, f = 2, npts = 2 * k - 1;
    const BigInt a = random_bits(rng, 1500 + rng.next_below(1500));
    const BigInt b = random_bits(rng, 1500 + rng.next_below(1500));
    const char* phases[] = {"eval-L0", "leaf-mul", "interp-L0"};
    FaultPlan plan;
    // Per phase, pick up to f ranks per column.
    for (const char* phase : phases) {
        std::vector<int> per_col(static_cast<std::size_t>(npts), 0);
        std::vector<bool> used(static_cast<std::size_t>(P), false);
        const int count = static_cast<int>(rng.next_below(3));
        for (int i = 0; i < count; ++i) {
            const int r = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
            if (used[static_cast<std::size_t>(r)] ||
                per_col[static_cast<std::size_t>(r % npts)] >= f) {
                continue;
            }
            used[static_cast<std::size_t>(r)] = true;
            ++per_col[static_cast<std::size_t>(r % npts)];
            plan.add(phase, r);
        }
    }
    FtLinearConfig cfg;
    cfg.base.k = k;
    cfg.base.processors = P;
    cfg.base.digit_bits = 32;
    cfg.faults = f;
    EXPECT_EQ(ft_linear_multiply(a, b, cfg, plan).product, a * b);
}

TEST_P(RandomFaultSweep, CheckpointRandomRanks) {
    Rng rng{GetParam() * 17 + 3};
    const int P = 9;
    const BigInt a = random_bits(rng, 1500 + rng.next_below(1500));
    const BigInt b = random_bits(rng, 1500 + rng.next_below(1500));
    const char* phases[] = {"eval-L0", "leaf-mul", "interp-L0"};
    FaultPlan plan;
    for (const char* phase : phases) {
        std::vector<bool> hit(static_cast<std::size_t>(P), false);
        const int count = static_cast<int>(rng.next_below(3));
        for (int i = 0; i < count; ++i) {
            const int r = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
            // Respect the buddy constraint: neither buddy may also fail.
            const int left = (r + P - 1) % P, right = (r + 1) % P;
            if (hit[static_cast<std::size_t>(r)] ||
                hit[static_cast<std::size_t>(left)] ||
                hit[static_cast<std::size_t>(right)]) {
                continue;
            }
            hit[static_cast<std::size_t>(r)] = true;
            plan.add(phase, r);
        }
    }
    CheckpointConfig cfg;
    cfg.base.k = 2;
    cfg.base.processors = P;
    cfg.base.digit_bits = 32;
    EXPECT_EQ(checkpoint_toom_multiply(a, b, cfg, plan).product, a * b);
}

TEST_P(RandomFaultSweep, FtSoftRandomCorruptions) {
    Rng rng{GetParam() * 23 + 11};
    const int k = 2, P = 9, npts = 2 * k - 1;
    const BigInt a = random_bits(rng, 1500 + rng.next_below(1500));
    const BigInt b = random_bits(rng, 1500 + rng.next_below(1500));
    const char* phases[] = {"eval-L0", "leaf-mul", "interp-L0"};
    SoftFaultPlan plan;
    int injected = 0;
    for (const char* phase : phases) {
        std::vector<bool> col_used(static_cast<std::size_t>(npts), false);
        const int count = static_cast<int>(rng.next_below(3));
        for (int i = 0; i < count; ++i) {
            const int r = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
            if (col_used[static_cast<std::size_t>(r % npts)]) continue;
            col_used[static_cast<std::size_t>(r % npts)] = true;
            plan.add(phase, r);
            ++injected;
        }
    }
    FtSoftConfig cfg;
    cfg.base.k = k;
    cfg.base.processors = P;
    cfg.base.digit_bits = 32;
    auto res = ft_soft_multiply(a, b, cfg, plan);
    EXPECT_EQ(res.product, a * b);
    EXPECT_EQ(res.corruptions_corrected, injected);
}

TEST_P(RandomFaultSweep, FtMixedRandomFaults) {
    Rng rng{GetParam() * 41 + 9};
    const int k = 2, P = 9, f = 2, wide = 2 * k - 1 + f;
    const int height = P / (2 * k - 1);
    const BigInt a = random_bits(rng, 1500 + rng.next_below(1500));
    const BigInt b = random_bits(rng, 1500 + rng.next_below(1500));
    FaultPlan plan;
    // Mult-phase column kills.
    std::vector<bool> col_doomed(static_cast<std::size_t>(wide), false);
    const int kills = static_cast<int>(rng.next_below(f + 1));
    int first_alive = -1;
    for (int i = 0; i < kills; ++i) {
        const int c = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(wide)));
        if (col_doomed[static_cast<std::size_t>(c)]) continue;
        col_doomed[static_cast<std::size_t>(c)] = true;
        plan.add("mul", static_cast<int>(rng.next_below(
                            static_cast<std::uint64_t>(height))) *
                                wide +
                            c);
    }
    for (int c = 0; c < wide; ++c) {
        if (!col_doomed[static_cast<std::size_t>(c)]) {
            first_alive = c;
            break;
        }
    }
    // One eval fault anywhere, one interp fault on an alive, non-substitute
    // column.
    if (rng.next_below(2)) {
        plan.add("eval-L0", static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(height * wide))));
    }
    if (rng.next_below(2)) {
        for (int c = 0; c < wide; ++c) {
            if (!col_doomed[static_cast<std::size_t>(c)] &&
                (kills == 0 || c != first_alive)) {
                plan.add("interp-L0",
                         static_cast<int>(rng.next_below(
                             static_cast<std::uint64_t>(height))) *
                                 wide +
                             c);
                break;
            }
        }
    }
    FtMixedConfig cfg;
    cfg.base.k = k;
    cfg.base.processors = P;
    cfg.base.digit_bits = 32;
    cfg.faults = f;
    EXPECT_EQ(ft_mixed_multiply(a, b, cfg, plan).product, a * b);
}

TEST_P(RandomFaultSweep, FtMultistepRandomColumns) {
    Rng rng{GetParam() * 53 + 29};
    const int k = 2, P = 27, f = 2, l = 2;
    const int wide = 9 + f;
    const BigInt a = random_bits(rng, 2000 + rng.next_below(2000));
    const BigInt b = random_bits(rng, 2000 + rng.next_below(1500));
    FaultPlan plan;
    std::vector<bool> used(static_cast<std::size_t>(wide), false);
    const int kills = static_cast<int>(rng.next_below(f + 1));
    for (int i = 0; i < kills; ++i) {
        const int c = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(wide)));
        if (used[static_cast<std::size_t>(c)]) continue;
        used[static_cast<std::size_t>(c)] = true;
        plan.add("mul", static_cast<int>(rng.next_below(3)) * wide + c);
    }
    FtMultistepConfig cfg;
    cfg.base.k = k;
    cfg.base.processors = P;
    cfg.base.digit_bits = 32;
    cfg.faults = f;
    cfg.fused_steps = l;
    cfg.optimized_points = GetParam() % 2 == 0;
    EXPECT_EQ(ft_multistep_multiply(a, b, cfg, plan).product, a * b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFaultSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ftmul
