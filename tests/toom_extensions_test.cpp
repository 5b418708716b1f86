#include <gtest/gtest.h>

#include "bigint/random.hpp"
#include "toom/sequential.hpp"
#include "toom/unbalanced.hpp"

namespace ftmul {
namespace {

TEST(Unbalanced, RejectsBadSplits) {
    EXPECT_THROW(UnbalancedPlan::make(1, 1), std::invalid_argument);
    EXPECT_THROW(UnbalancedPlan::make(0, 3), std::invalid_argument);
}

TEST(Unbalanced, PlanShapes) {
    auto plan = UnbalancedPlan::make(3, 2);  // "Toom-2.5"
    EXPECT_EQ(plan.num_points(), 4u);
    EXPECT_EQ(plan.eval_a().cols(), 3u);
    EXPECT_EQ(plan.eval_b().cols(), 2u);
    EXPECT_EQ(plan.interpolation().rows(), 4u);
}

TEST(Unbalanced, SmallKnownProduct) {
    auto plan = UnbalancedPlan::make(3, 2);
    UnbalancedOptions opts;
    opts.threshold_bits = 1;
    EXPECT_EQ(toom_multiply_unbalanced(BigInt{1000003}, BigInt{997}, plan, opts),
              BigInt{1000003} * BigInt{997});
    EXPECT_EQ(toom_multiply_unbalanced(BigInt{-7}, BigInt{9}, plan, opts),
              BigInt{-63});
    EXPECT_EQ(toom_multiply_unbalanced(BigInt{}, BigInt{9}, plan, opts),
              BigInt{});
}

struct UnbCase {
    int k1;
    int k2;
    std::size_t bits_a;
    std::size_t bits_b;
};

class UnbalancedSweep : public ::testing::TestWithParam<UnbCase> {};

TEST_P(UnbalancedSweep, MatchesSchoolbook) {
    const auto [k1, k2, bits_a, bits_b] = GetParam();
    auto plan = UnbalancedPlan::make(k1, k2);
    UnbalancedOptions opts;
    opts.threshold_bits = 256;
    Rng rng{static_cast<std::uint64_t>(k1 * 10 + k2)};
    for (int i = 0; i < 3; ++i) {
        BigInt a = random_signed_bits(rng, bits_a + rng.next_below(99));
        BigInt b = random_signed_bits(rng, bits_b + rng.next_below(99));
        EXPECT_EQ(toom_multiply_unbalanced(a, b, plan, opts), a * b)
            << "k1=" << k1 << " k2=" << k2;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UnbalancedSweep,
    ::testing::Values(UnbCase{3, 2, 6000, 4000},   // the classic 2.5-way
                      UnbCase{3, 2, 4000, 4000},   // balanced inputs still ok
                      UnbCase{4, 2, 8000, 4000}, UnbCase{4, 3, 8000, 6000},
                      UnbCase{5, 2, 10000, 4000}, UnbCase{2, 3, 4000, 6000},
                      UnbCase{5, 4, 9000, 7000}));

TEST(Unbalanced, VeryLopsidedOperands) {
    // The motivating case (Zanoni: "very unbalanced long integer
    // multiplication"): one operand much larger.
    auto plan = UnbalancedPlan::make(4, 2);
    UnbalancedOptions opts;
    opts.threshold_bits = 512;
    Rng rng{77};
    BigInt a = random_bits(rng, 20000);
    BigInt b = random_bits(rng, 9000);
    EXPECT_EQ(toom_multiply_unbalanced(a, b, plan, opts), a * b);
}

TEST(Squaring, MatchesMultiplication) {
    // Squaring runs through toom_multiply with both operands aliasing one
    // value.
    Rng rng{31};
    for (int k : {2, 3, 4}) {
        auto plan = ToomPlan::make(k);
        ToomOptions opts;
        opts.threshold_bits = 256;
        for (std::size_t bits : {std::size_t{2000}, std::size_t{9000}}) {
            BigInt a = random_signed_bits(rng, bits);
            EXPECT_EQ(toom_multiply(a, a, plan, opts), a * a)
                << "k=" << k << " bits=" << bits;
        }
    }
}

TEST(Squaring, EdgeValues) {
    auto plan = ToomPlan::make(3);
    ToomOptions opts;
    opts.threshold_bits = 64;
    const auto square = [&](const BigInt& x) {
        return toom_multiply(x, x, plan, opts);
    };
    EXPECT_EQ(square(BigInt{}), BigInt{});
    EXPECT_EQ(square(BigInt{-5}), BigInt{25});
    BigInt p = BigInt::power_of_two(5000);
    EXPECT_EQ(square(p), BigInt::power_of_two(10000));
    EXPECT_EQ(square(p - BigInt{1}), (p - BigInt{1}) * (p - BigInt{1}));
}

}  // namespace
}  // namespace ftmul
