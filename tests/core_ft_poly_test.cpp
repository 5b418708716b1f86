#include "core/ft_poly.hpp"

#include <gtest/gtest.h>

#include "bigint/random.hpp"

namespace ftmul {
namespace {

FtPolyConfig make_cfg(int k, int P, int f, std::size_t digit_bits = 32) {
    FtPolyConfig cfg;
    cfg.base.k = k;
    cfg.base.processors = P;
    cfg.base.digit_bits = digit_bits;
    cfg.base.base_len = 4;
    cfg.faults = f;
    return cfg;
}

TEST(FtPoly, RejectsBadConfigs) {
    Rng rng{1};
    BigInt a = random_bits(rng, 500), b = random_bits(rng, 500);
    EXPECT_THROW(ft_poly_multiply(a, b, make_cfg(2, 8, 1), {}),
                 std::invalid_argument);
    EXPECT_THROW(ft_poly_multiply(a, b, make_cfg(2, 1, 1), {}),
                 std::invalid_argument);
    EXPECT_THROW(ft_poly_multiply(a, b, make_cfg(2, 9, -1), {}),
                 std::invalid_argument);
}

TEST(FtPoly, RejectsOverflowingShapes) {
    // 62 inner DFS steps plus the coded step and one plain BFS step ask for
    // 2^64 * 12 digits.
    Rng rng{1};
    BigInt a = random_bits(rng, 500), b = random_bits(rng, 500);
    FtPolyConfig cfg = make_cfg(2, 9, 1);
    cfg.base.forced_dfs_steps = 62;
    EXPECT_THROW(ft_poly_multiply(a, b, cfg, {}), std::invalid_argument);
    cfg.base.forced_dfs_steps = 1;
    EXPECT_EQ(ft_poly_multiply(a, b, cfg, {}).product, a * b);
}

TEST(FtPoly, RejectsFaultsOutsideMulPhase) {
    Rng rng{2};
    BigInt a = random_bits(rng, 500), b = random_bits(rng, 500);
    FaultPlan plan;
    plan.add("eval-L0", 0);
    EXPECT_THROW(ft_poly_multiply(a, b, make_cfg(2, 9, 1), plan),
                 std::invalid_argument);
}

TEST(FtPoly, RejectsTooManyFailedColumns) {
    Rng rng{3};
    BigInt a = random_bits(rng, 500), b = random_bits(rng, 500);
    FaultPlan plan;
    plan.add("mul", 0);  // column 0
    plan.add("mul", 1);  // column 1
    EXPECT_THROW(ft_poly_multiply(a, b, make_cfg(2, 9, 1), plan),
                 std::invalid_argument);
}

TEST(FtPoly, FaultFreeMatchesSchoolbook) {
    Rng rng{4};
    BigInt a = random_bits(rng, 3000), b = random_bits(rng, 2500);
    for (int f : {0, 1, 2}) {
        auto res = ft_poly_multiply(a, b, make_cfg(2, 9, f), {});
        EXPECT_EQ(res.product, a * b) << "f=" << f;
        EXPECT_EQ(res.extra_processors, f * 3);  // f * P/(2k-1)
    }
}

TEST(FtPoly, ExtraProcessorCount) {
    Rng rng{5};
    BigInt a = random_bits(rng, 1000), b = random_bits(rng, 1000);
    // k=3, P=25: columns of height 5, so f poly columns cost 5f ranks.
    auto res = ft_poly_multiply(a, b, make_cfg(3, 25, 2), {});
    EXPECT_EQ(res.extra_processors, 10);
    EXPECT_EQ(res.product, a * b);
}

struct FtPolyCase {
    int k;
    int P;
    int f;
    std::vector<int> fail_ranks;  // all scheduled at "mul"
    std::size_t bits;
};

class FtPolyFaultSweep : public ::testing::TestWithParam<FtPolyCase> {};

TEST_P(FtPolyFaultSweep, RecoversCorrectProduct) {
    const auto& tc = GetParam();
    Rng rng{static_cast<std::uint64_t>(tc.k * 100 + tc.P + tc.f)};
    BigInt a = random_bits(rng, tc.bits);
    BigInt b = random_bits(rng, tc.bits - tc.bits / 4);
    FaultPlan plan;
    for (int r : tc.fail_ranks) plan.add("mul", r);
    auto res = ft_poly_multiply(a, b, make_cfg(tc.k, tc.P, tc.f), plan);
    EXPECT_EQ(res.product, a * b);
    EXPECT_EQ(res.faults_injected, static_cast<int>(tc.fail_ranks.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Faults, FtPolyFaultSweep,
    ::testing::Values(
        // k=2, P=9: grid 3x(3+f); kill a data column.
        FtPolyCase{2, 9, 1, {0}, 2000},
        FtPolyCase{2, 9, 1, {1}, 2000},
        FtPolyCase{2, 9, 1, {2}, 2000},
        // Kill the redundant column itself: interpolation falls back to the
        // base points.
        FtPolyCase{2, 9, 1, {3}, 2000},
        // Two faults in the same column count once.
        FtPolyCase{2, 9, 1, {0, 4}, 2000},
        // f=2: two distinct dead columns, in every mix.
        FtPolyCase{2, 9, 2, {0, 1}, 2500},
        FtPolyCase{2, 9, 2, {2, 4}, 2500},
        FtPolyCase{2, 9, 2, {3, 4}, 2500},
        // Deeper grid (P=27) and other k.
        FtPolyCase{2, 27, 1, {5}, 5000},
        FtPolyCase{2, 27, 2, {0, 1}, 5000},
        FtPolyCase{3, 25, 1, {2}, 4000},
        FtPolyCase{3, 25, 2, {0, 6}, 4000},
        FtPolyCase{4, 7, 1, {3}, 3000},
        FtPolyCase{3, 5, 1, {0}, 1500}));

TEST(FtPoly, SignsWithFaults) {
    Rng rng{6};
    BigInt a = random_bits(rng, 1500), b = random_bits(rng, 1200);
    FaultPlan plan;
    plan.add("mul", 2);
    auto cfg = make_cfg(2, 9, 1);
    EXPECT_EQ(ft_poly_multiply(-a, b, cfg, plan).product, -(a * b));
    EXPECT_EQ(ft_poly_multiply(-a, -b, cfg, plan).product, a * b);
}

TEST(FtPoly, WithInnerDfsSteps) {
    Rng rng{7};
    BigInt a = random_bits(rng, 32 * 9 * 16), b = random_bits(rng, 32 * 9 * 16);
    auto cfg = make_cfg(2, 9, 1);
    cfg.base.forced_dfs_steps = 2;
    FaultPlan plan;
    plan.add("mul", 1);
    auto res = ft_poly_multiply(a, b, cfg, plan);
    EXPECT_EQ(res.product, a * b);
    EXPECT_EQ(res.shape.dfs_steps, 2);
}

TEST(FtPoly, OverheadIsModestVersusParallel) {
    // Theorem 5.2 shape: FT costs (1 + o(1)) of the plain algorithm. At
    // these small sizes we only check the overhead is far below the ~2x of
    // replication-style redundancy.
    Rng rng{8};
    BigInt a = random_bits(rng, 32 * 9 * 16), b = random_bits(rng, 32 * 9 * 16);
    ParallelConfig base;
    base.k = 2;
    base.processors = 9;
    base.digit_bits = 32;
    base.base_len = 4;
    auto plain = parallel_toom_multiply(a, b, base);

    auto cfg = make_cfg(2, 9, 1);
    auto ft = ft_poly_multiply(a, b, cfg, {});
    EXPECT_EQ(ft.product, plain.product);
    // Critical-path arithmetic within 80% of plain (redundant evaluation
    // plus on-the-fly interpolation, amortized).
    EXPECT_LT(ft.stats.critical.flops, plain.stats.critical.flops * 9 / 5);
}

TEST(FtPoly, EventLogAttributesColumnKillAndSubstitution) {
    Rng rng{9};
    BigInt a = random_bits(rng, 3000), b = random_bits(rng, 3000);
    auto cfg = make_cfg(2, 9, 1);
    cfg.base.events = true;
    FaultPlan plan;
    plan.add("mul", 1);  // kills column 1 of the 3x4 wide grid
    auto res = ft_poly_multiply(a, b, cfg, plan);
    EXPECT_EQ(res.product, a * b);
    ASSERT_NE(res.events, nullptr);

    const auto faults = res.events->of_kind(EventKind::Fault);
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].rank, 1);
    EXPECT_EQ(faults[0].phase, "mul");

    // One substitute per grid row interpolates the dead column's roles;
    // each recovery names the dead row peer it replaces and burns flops on
    // the substituted interpolation.
    const auto recs = res.events->of_kind(EventKind::RecoveryEnd);
    const int height = 9 / 3;  // P / (2k-1) rows
    ASSERT_EQ(recs.size(), static_cast<std::size_t>(height));
    std::uint64_t flops = 0;
    for (const Event& e : recs) {
        ASSERT_EQ(e.ranks.size(), 1u);
        // The dead rank sits in column 1 of this substitute's row.
        EXPECT_EQ(e.ranks[0] % 4, 1);
        EXPECT_NE(e.rank, e.ranks[0]);  // someone else did the work
        flops += e.counters.flops;
    }
    EXPECT_GT(flops, 0u);
}

}  // namespace
}  // namespace ftmul
