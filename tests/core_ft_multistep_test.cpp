#include "core/ft_multistep.hpp"

#include <gtest/gtest.h>

#include "bigint/random.hpp"

namespace ftmul {
namespace {

FtMultistepConfig make_cfg(int k, int P, int f, int l) {
    FtMultistepConfig cfg;
    cfg.base.k = k;
    cfg.base.processors = P;
    cfg.base.digit_bits = 32;
    cfg.base.base_len = 4;
    cfg.faults = f;
    cfg.fused_steps = l;
    return cfg;
}

TEST(FtMultistep, RejectsBadConfigs) {
    Rng rng{1};
    BigInt a = random_bits(rng, 500), b = random_bits(rng, 500);
    // Not enough processors for the fused width.
    EXPECT_THROW(ft_multistep_multiply(a, b, make_cfg(2, 3, 1, 2), {}),
                 std::invalid_argument);
    EXPECT_THROW(ft_multistep_multiply(a, b, make_cfg(2, 9, 1, 0), {}),
                 std::invalid_argument);
    FaultPlan plan;
    plan.add("eval-fused", 0);
    EXPECT_THROW(ft_multistep_multiply(a, b, make_cfg(2, 9, 1, 2), plan),
                 std::invalid_argument);
}

TEST(FtMultistep, RejectsOverflowingShapes) {
    // Two fused levels plus 62 inner DFS steps ask for 2^64 * 10 digits.
    Rng rng{1};
    BigInt a = random_bits(rng, 500), b = random_bits(rng, 500);
    FtMultistepConfig cfg = make_cfg(2, 9, 1, 2);
    cfg.base.forced_dfs_steps = 62;
    EXPECT_THROW(ft_multistep_multiply(a, b, cfg, {}), std::invalid_argument);
    cfg.base.forced_dfs_steps = 1;
    EXPECT_EQ(ft_multistep_multiply(a, b, cfg, {}).product, a * b);
}

TEST(FtMultistep, ExtraProcessorCountShrinksWithL) {
    // Figure 3's point: f * P/(2k-1)^l code processors.
    Rng rng{2};
    BigInt a = random_bits(rng, 2000), b = random_bits(rng, 2000);
    auto r1 = ft_multistep_multiply(a, b, make_cfg(2, 27, 1, 1), {});
    auto r2 = ft_multistep_multiply(a, b, make_cfg(2, 27, 1, 2), {});
    auto r3 = ft_multistep_multiply(a, b, make_cfg(2, 27, 1, 3), {});
    EXPECT_EQ(r1.extra_processors, 9);
    EXPECT_EQ(r2.extra_processors, 3);
    EXPECT_EQ(r3.extra_processors, 1);
    EXPECT_EQ(r1.product, a * b);
    EXPECT_EQ(r2.product, a * b);
    EXPECT_EQ(r3.product, a * b);
}

struct MsCase {
    int k;
    int P;
    int f;
    int l;
    std::vector<int> fail_ranks;
    std::size_t bits;
};

class FtMultistepSweep : public ::testing::TestWithParam<MsCase> {};

TEST_P(FtMultistepSweep, RecoversCorrectProduct) {
    const auto& tc = GetParam();
    Rng rng{static_cast<std::uint64_t>(tc.k * 11 + tc.P + tc.l)};
    BigInt a = random_bits(rng, tc.bits);
    BigInt b = random_bits(rng, tc.bits - 64);
    FaultPlan plan;
    for (int r : tc.fail_ranks) plan.add("mul", r);
    auto res = ft_multistep_multiply(a, b, make_cfg(tc.k, tc.P, tc.f, tc.l), plan);
    EXPECT_EQ(res.product, a * b);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, FtMultistepSweep,
    ::testing::Values(
        // l=1 degenerates to ft_poly behaviour.
        MsCase{2, 9, 1, 1, {0}, 2000},
        MsCase{2, 9, 1, 1, {3}, 2000},
        // l=2: 9 data columns + f redundant; kill data and code columns.
        MsCase{2, 9, 1, 2, {}, 2000},
        MsCase{2, 9, 1, 2, {0}, 2000},
        MsCase{2, 9, 1, 2, {4}, 2000},
        MsCase{2, 9, 1, 2, {9}, 2000},
        MsCase{2, 9, 2, 2, {1, 7}, 2500},
        MsCase{2, 9, 2, 2, {0, 10}, 2500},
        // Fused step above a deeper machine.
        MsCase{2, 27, 1, 2, {5}, 4000},
        MsCase{2, 27, 2, 3, {2, 20}, 4000}));

TEST(FtMultistep, FullFusionUsesFewestProcessors) {
    // l = log_{2k-1}(P): each column is one rank, extra processors = f
    // (the paper's unlimited-memory optimum, Section 5.2 remark).
    Rng rng{3};
    BigInt a = random_bits(rng, 3000), b = random_bits(rng, 2500);
    FaultPlan plan;
    plan.add("mul", 4);
    auto res = ft_multistep_multiply(a, b, make_cfg(2, 9, 1, 2), plan);
    EXPECT_EQ(res.extra_processors, 1);
    EXPECT_EQ(res.product, a * b);
}

TEST(FtMultistep, OptimizedPointsRecoverAndCostNoMore) {
    // The "optimize the redundant points" future-work knob: smallest-first
    // points must still recover, with no more critical arithmetic than the
    // random ones.
    Rng rng{11};
    BigInt a = random_bits(rng, 3000), b = random_bits(rng, 2800);
    FaultPlan plan;
    plan.add("mul", 1);
    auto base_cfg = make_cfg(2, 9, 2, 2);
    auto rand_res = ft_multistep_multiply(a, b, base_cfg, plan);
    auto opt_cfg = base_cfg;
    opt_cfg.optimized_points = true;
    auto opt_res = ft_multistep_multiply(a, b, opt_cfg, plan);
    EXPECT_EQ(rand_res.product, a * b);
    EXPECT_EQ(opt_res.product, a * b);
    EXPECT_LE(opt_res.stats.critical.flops,
              rand_res.stats.critical.flops * 11 / 10);
}

TEST(FtMultistep, DifferentSeedsStillWork) {
    Rng rng{4};
    BigInt a = random_bits(rng, 1500), b = random_bits(rng, 1500);
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
        auto cfg = make_cfg(2, 9, 2, 2);
        cfg.point_seed = seed;
        FaultPlan plan;
        plan.add("mul", 0);
        plan.add("mul", 5);
        EXPECT_EQ(ft_multistep_multiply(a, b, cfg, plan).product, a * b)
            << "seed " << seed;
    }
}

}  // namespace
}  // namespace ftmul
