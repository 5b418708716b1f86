#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <string>

#include "bigint/random.hpp"
#include "core/ft_common.hpp"
#include "core/layout.hpp"
#include "toom/digits.hpp"
#include "toom/lazy.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

TEST(ResolveShape, RejectsBadConfigs) {
    ParallelConfig cfg;
    cfg.k = 1;
    EXPECT_THROW(resolve_shape(cfg, 100), std::invalid_argument);
    cfg.k = 2;
    cfg.processors = 8;  // not a power of 3
    EXPECT_THROW(resolve_shape(cfg, 100), std::invalid_argument);
    cfg.processors = 9;
    cfg.digit_bits = 0;
    EXPECT_THROW(resolve_shape(cfg, 100), std::invalid_argument);
}

TEST(ResolveShape, BasicGeometry) {
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    auto s = resolve_shape(cfg, 32 * 9 * 4 * 2);  // wants 72 digits
    EXPECT_EQ(s.bfs_steps, 2);
    EXPECT_EQ(s.dfs_steps, 0);
    EXPECT_EQ(s.leaf_len % 9, 0u);
    EXPECT_EQ(s.total_digits, 4 * s.leaf_len);
    EXPECT_GE(s.total_digits * s.digit_bits, 32u * 72u);
}

TEST(ResolveShape, RejectsShapesThatOverflow) {
    // N = k^(dfs+bfs) * P digits: 2^64 * 9 wraps to 0 (the old division by
    // zero), 2^61 * 9 wraps to a bogus N, and 2^60 * 9 fits but its bit
    // offsets at 32 bits per digit do not.
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    for (int dfs : {62, 59, 58}) {
        cfg.forced_dfs_steps = dfs;
        EXPECT_THROW(resolve_shape(cfg, 80000), std::invalid_argument) << dfs;
    }
    cfg.forced_dfs_steps = 20;
    EXPECT_EQ(resolve_shape(cfg, 80000).total_digits, 9u << 22);
}

TEST(ResolveShape, MemoryLimitForcesDfs) {
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 3;
    cfg.digit_bits = 32;
    const std::size_t n = 32 * 3 * 256;
    auto unlimited = resolve_shape(cfg, n);
    EXPECT_EQ(unlimited.dfs_steps, 0);
    cfg.memory_limit_words = estimate_peak_words(unlimited) / 4;
    auto limited = resolve_shape(cfg, n);
    EXPECT_GT(limited.dfs_steps, 0);
}

TEST(ResolveShape, ForcedDfsHonored) {
    ParallelConfig cfg;
    cfg.k = 3;
    cfg.processors = 5;
    cfg.forced_dfs_steps = 2;
    auto s = resolve_shape(cfg, 10000);
    EXPECT_EQ(s.dfs_steps, 2);
    EXPECT_EQ(s.bfs_steps, 1);
    EXPECT_EQ(s.total_digits, 27 * s.leaf_len);  // k^(dfs+bfs) * leaf
}

struct ParCase {
    int k;
    int P;
    std::size_t bits;
    int forced_dfs;
};

class ParallelSweep : public ::testing::TestWithParam<ParCase> {};

TEST_P(ParallelSweep, ProductMatchesSchoolbook) {
    const auto [k, P, bits, dfs] = GetParam();
    ParallelConfig cfg;
    cfg.k = k;
    cfg.processors = P;
    cfg.digit_bits = 32;
    cfg.base_len = 4;
    cfg.forced_dfs_steps = dfs;
    Rng rng{static_cast<std::uint64_t>(k * 1000 + P * 10 + dfs)};
    BigInt a = random_bits(rng, bits);
    BigInt b = random_bits(rng, bits - bits / 3);
    auto res = parallel_toom_multiply(a, b, cfg);
    EXPECT_EQ(res.product, a * b)
        << "k=" << k << " P=" << P << " shape: " << res.shape.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelSweep,
    ::testing::Values(ParCase{2, 3, 2048, 0}, ParCase{2, 9, 4096, 0},
                      ParCase{2, 9, 4096, 2}, ParCase{2, 27, 8192, 0},
                      ParCase{3, 5, 4096, 0}, ParCase{3, 5, 4096, 1},
                      ParCase{3, 25, 10000, 0}, ParCase{4, 7, 6000, 0},
                      ParCase{2, 1, 1024, 0}, ParCase{5, 9, 5000, 0}));

TEST(Parallel, SignsAndZero) {
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 3;
    Rng rng{5};
    BigInt a = random_bits(rng, 1000);
    BigInt b = random_bits(rng, 900);
    EXPECT_EQ(parallel_toom_multiply(-a, b, cfg).product, -(a * b));
    EXPECT_EQ(parallel_toom_multiply(a, -b, cfg).product, -(a * b));
    EXPECT_EQ(parallel_toom_multiply(-a, -b, cfg).product, a * b);
    EXPECT_EQ(parallel_toom_multiply(BigInt{}, b, cfg).product, BigInt{});
}

TEST(Parallel, AgreesWithSequentialVariants) {
    ParallelConfig cfg;
    cfg.k = 3;
    cfg.processors = 5;
    Rng rng{6};
    BigInt a = random_bits(rng, 7777);
    BigInt b = random_bits(rng, 7000);
    auto par = parallel_toom_multiply(a, b, cfg);
    auto plan = ToomPlan::make(3);
    EXPECT_EQ(par.product, toom_multiply(a, b, plan));
}

TEST(Parallel, StatsArePopulated) {
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    Rng rng{7};
    BigInt a = random_bits(rng, 4096);
    BigInt b = random_bits(rng, 4096);
    auto res = parallel_toom_multiply(a, b, cfg);
    EXPECT_GT(res.stats.critical.flops, 0u);
    EXPECT_GT(res.stats.critical.words, 0u);
    EXPECT_GT(res.stats.critical.latency, 0u);
    EXPECT_GT(res.stats.peak_memory_words, 0u);
    // BFS steps produce the level phases.
    EXPECT_TRUE(res.stats.per_phase.count("eval-L0"));
    EXPECT_TRUE(res.stats.per_phase.count("xfwd-L0"));
    EXPECT_TRUE(res.stats.per_phase.count("leaf-mul"));
}

TEST(Parallel, StepOrderValidation) {
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    Rng rng{11};
    BigInt a = random_bits(rng, 1000), b = random_bits(rng, 1000);
    cfg.step_order = "BX";
    EXPECT_THROW(parallel_toom_multiply(a, b, cfg), std::invalid_argument);
    cfg.step_order = "B";  // needs two 'B's for P = 9
    EXPECT_THROW(parallel_toom_multiply(a, b, cfg), std::invalid_argument);
}

TEST(Parallel, StepOrderRejectsOverflowingShapes) {
    // The step order reaches the same shape check as forced_dfs_steps: 62
    // 'D's ask for 2^64 * 9 digits, and 'B's count as levels too.
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    Rng rng{12};
    BigInt a = random_bits(rng, 1000), b = random_bits(rng, 1000);
    cfg.step_order = std::string(62, 'D');
    EXPECT_THROW(parallel_toom_multiply(a, b, cfg), std::invalid_argument);
    cfg.step_order = "BB" + std::string(60, 'D');
    EXPECT_THROW(parallel_toom_multiply(a, b, cfg), std::invalid_argument);
    cfg.step_order = "BB";
    EXPECT_EQ(parallel_toom_multiply(a, b, cfg).product, a * b);
}

class StepOrderSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(StepOrderSweep, EveryScheduleComputesTheProduct) {
    // Any interleaving of the same B/D multiset is correct; only costs
    // differ (Ballard et al.'s optimality claim is about cost, not
    // correctness).
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    cfg.step_order = GetParam();
    Rng rng{12};
    BigInt a = random_bits(rng, 4000), b = random_bits(rng, 3500);
    auto res = parallel_toom_multiply(a, b, cfg);
    EXPECT_EQ(res.product, a * b) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Orders, StepOrderSweep,
                         ::testing::Values("BB", "DBB", "BDB", "BBD", "DBDB",
                                           "BDDB", "BBDD"));

TEST(Parallel, DfsFirstMinimizesPeakMemory) {
    // The cited scheduling result (Ballard et al.): DFS steps exist to fit
    // the memory bound, and they only help if taken *before* the BFS steps
    // — BFS-first expands the working set at the top where memory is
    // tightest. (BFS-first moves fewer words, because each DFS step grows
    // the total data volume by (2k-1)/k; the memory bound is what forces
    // the DFS-first order — exactly the Table 2 trade.)
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    Rng rng{13};
    BigInt a = random_bits(rng, 32 * 9 * 32), b = random_bits(rng, 32 * 9 * 32);
    cfg.step_order = "DDBB";
    auto dfs_first = parallel_toom_multiply(a, b, cfg);
    cfg.step_order = "BBDD";
    auto bfs_first = parallel_toom_multiply(a, b, cfg);
    EXPECT_EQ(dfs_first.product, bfs_first.product);
    EXPECT_LT(dfs_first.stats.peak_memory_words,
              bfs_first.stats.peak_memory_words);
    EXPECT_LE(bfs_first.stats.critical.words, dfs_first.stats.critical.words);
}

TEST(Parallel, DfsReducesPeakMemory) {
    // Lemma 3.1's point: DFS steps shrink the per-processor footprint.
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    Rng rng{8};
    BigInt a = random_bits(rng, 32 * 9 * 64);
    BigInt b = random_bits(rng, 32 * 9 * 64);
    cfg.forced_dfs_steps = 0;
    auto noDfs = parallel_toom_multiply(a, b, cfg);
    cfg.forced_dfs_steps = 2;
    auto twoDfs = parallel_toom_multiply(a, b, cfg);
    EXPECT_EQ(noDfs.product, twoDfs.product);
    EXPECT_LT(twoDfs.stats.peak_memory_words, noDfs.stats.peak_memory_words);
}

TEST(Parallel, DfsIncreasesBandwidth) {
    // Table 2 vs Table 1: the limited-memory algorithm moves more words.
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    Rng rng{9};
    BigInt a = random_bits(rng, 32 * 9 * 64);
    BigInt b = random_bits(rng, 32 * 9 * 64);
    cfg.forced_dfs_steps = 0;
    auto noDfs = parallel_toom_multiply(a, b, cfg);
    cfg.forced_dfs_steps = 2;
    auto twoDfs = parallel_toom_multiply(a, b, cfg);
    EXPECT_GT(twoDfs.stats.critical.words, noDfs.stats.critical.words);
}

// Product assembly: signed_product, the last step of every machine engine,
// against the Horner recomposition of the unsliced result it replaced.
BigInt horner_product(const std::vector<std::vector<BigInt>>& slices,
                      std::size_t digit_bits, const BigInt& a,
                      const BigInt& b) {
    const BigInt mag = recompose_digits(unslice(slices, 1), digit_bits);
    return a.sign() * b.sign() < 0 ? -mag : mag;
}

std::vector<std::vector<BigInt>> cyclic_slices(const std::vector<BigInt>& full,
                                               std::size_t p) {
    std::vector<std::vector<BigInt>> slices;
    for (std::size_t j = 0; j < p; ++j) slices.push_back(slice_of(full, 1, p, j));
    return slices;
}

/// Check signed_product on @p full (cyclically sliced over P) under all four
/// operand-sign combinations; the operands contribute only their signs.
void expect_assembles(const std::vector<BigInt>& full, std::size_t p,
                      std::size_t db, const std::string& what) {
    const auto slices = cyclic_slices(full, p);
    for (const BigInt& a : {BigInt{3}, BigInt{-3}}) {
        for (const BigInt& b : {BigInt{5}, BigInt{-5}}) {
            EXPECT_EQ(core_detail::signed_product(slices, db, a, b),
                      horner_product(slices, db, a, b))
                << what << " P " << p << " db " << db << " signs "
                << a.sign() << "," << b.sign();
        }
    }
}

TEST(SignedProduct, AssemblesTrueProductUnderEverySign) {
    // The digits of a real |a*b|, then the same value with mixed-sign
    // coefficients: every other position lends 2^db down to the one below.
    Rng rng{31};
    for (std::size_t p : {1u, 3u, 9u}) {
        for (std::size_t db : {32u, 33u, 64u, 128u}) {
            const BigInt a = random_bits(rng, 700);
            const BigInt b = random_bits(rng, 650);
            const BigInt prod = a * b;
            const std::size_t len =
                (prod.bit_length() / db / p + 1) * p;
            std::vector<BigInt> digits = split_digits(prod, db, len);
            const auto slices = cyclic_slices(digits, p);
            EXPECT_EQ(core_detail::signed_product(slices, db, a, b), prod);
            EXPECT_EQ(core_detail::signed_product(slices, db, -a, b), -prod);
            EXPECT_EQ(core_detail::signed_product(slices, db, a, -b), -prod);
            EXPECT_EQ(core_detail::signed_product(slices, db, -a, -b), prod);
            for (std::size_t t = 0; t + 1 < len; t += 2) {
                digits[t] += BigInt::power_of_two(db);
                digits[t + 1] -= BigInt{1};
            }
            EXPECT_EQ(
                core_detail::signed_product(cyclic_slices(digits, p), db, -a, b),
                -prod);
            expect_assembles(digits, p, db, "lent");
        }
    }
}

TEST(SignedProduct, MatchesHornerAcrossCoefficientWidths) {
    // Mixed-sign coefficients of each width, negated as a whole when their
    // sum is negative (a product magnitude never is).
    Rng rng{32};
    for (std::size_t p : {1u, 3u, 9u}) {
        for (std::size_t db : {32u, 33u, 64u, 128u}) {
            for (std::size_t w : {db - 1, db, db + 1, 2 * db + 5}) {
                std::vector<BigInt> full(6 * p);
                for (BigInt& c : full) c = random_signed_bits(rng, w);
                if (recompose_digits(full, db).is_negative()) {
                    for (BigInt& c : full) c = -c;
                }
                expect_assembles(full, p, db, "w " + std::to_string(w));
                const BigInt ones = BigInt::power_of_two(w) - BigInt{1};
                expect_assembles(std::vector<BigInt>(6 * p, ones), p, db,
                                 "all-ones w " + std::to_string(w));
            }
        }
    }
}

TEST(SignedProduct, ZeroAndSingleCoefficient) {
    for (std::size_t p : {1u, 3u, 9u}) {
        for (std::size_t db : {32u, 33u, 64u, 128u}) {
            const std::vector<BigInt> zeros(4 * p);
            expect_assembles(zeros, p, db, "zeros");
            EXPECT_TRUE(core_detail::signed_product(cyclic_slices(zeros, p), db,
                                                    BigInt{-1}, BigInt{1})
                            .is_zero());
            std::vector<BigInt> one(4 * p);
            one[4 * p - 2] = BigInt::power_of_two(db + 1) - BigInt{1};
            expect_assembles(one, p, db, "single");
        }
    }
}

// The Kronecker leaf must agree with its reference, the lazy Toom
// convolution (paper Algorithm 2), coefficient for coefficient, plus the
// zero pad.
class LeafMultiply : public ::testing::TestWithParam<std::size_t> {
protected:
    static void expect_matches_oracle(int k, std::vector<BigInt> a,
                                      std::vector<BigInt> b) {
        ParallelConfig cfg;
        cfg.k = k;
        cfg.processors = 2 * k - 1;
        cfg.digit_bits = 32;
        const ResolvedShape shape = resolve_shape(cfg, 32 * 64);
        const ToomPlan plan = ToomPlan::make(k);
        std::vector<BigInt> want =
            toom_convolve(plan, a, b, shape.base_len);
        want.emplace_back();
        const std::vector<BigInt> got =
            core_detail::leaf_multiply(plan, a, b);
        ASSERT_EQ(got.size(), 2 * a.size());
        EXPECT_EQ(got, want);
    }
};

std::vector<BigInt> signed_digits(Rng& rng, std::size_t n, std::size_t bits) {
    std::vector<BigInt> v(n);
    for (BigInt& d : v) {
        d = random_below_2pow(rng, bits);
        if (rng.next_below(2) == 0) d = -d;
    }
    return v;
}

TEST_P(LeafMultiply, RandomSignedMatchesToomConvolve) {
    const std::size_t len = GetParam();
    Rng rng{100 + len};
    for (int k : {2, 3}) {
        expect_matches_oracle(k, signed_digits(rng, len, 34),
                              signed_digits(rng, len, 34));
    }
}

TEST_P(LeafMultiply, ZeroOperands) {
    const std::size_t len = GetParam();
    Rng rng{200 + len};
    const std::vector<BigInt> zeros(len);
    expect_matches_oracle(2, zeros, zeros);
    expect_matches_oracle(2, signed_digits(rng, len, 40), zeros);
    expect_matches_oracle(2, zeros, signed_digits(rng, len, 40));
}

TEST_P(LeafMultiply, ExtremeCoefficients) {
    // Every coefficient at +-(2^w - 1): the convolution sums reach the slot
    // bound, and alternating signs make the balanced unpack borrow.
    const std::size_t len = GetParam();
    const BigInt top = BigInt::power_of_two(34) - BigInt{1};
    std::vector<BigInt> pos(len, top), alt(len), neg(len, -top);
    for (std::size_t i = 0; i < len; ++i) alt[i] = i % 2 == 0 ? top : -top;
    expect_matches_oracle(2, pos, pos);
    expect_matches_oracle(2, neg, pos);
    expect_matches_oracle(2, alt, neg);
    expect_matches_oracle(3, alt, alt);
}

TEST_P(LeafMultiply, AsymmetricWidths) {
    const std::size_t len = GetParam();
    Rng rng{300 + len};
    expect_matches_oracle(2, signed_digits(rng, len, 200),
                          signed_digits(rng, len, 3));
    expect_matches_oracle(2, signed_digits(rng, len, 1),
                          signed_digits(rng, len, 130));
}

INSTANTIATE_TEST_SUITE_P(Lengths, LeafMultiply,
                         ::testing::Values(1, 2, 3, 7, 36, 630));

}  // namespace
}  // namespace ftmul
