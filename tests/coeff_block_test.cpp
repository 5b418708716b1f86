// Differential tests of the coefficient-block kernels against the BigInt
// references they replace on the distributed path: evaluation and
// interpolation against ToomPlan / InterpOperator on vector<BigInt>, the
// Kronecker leaf against schoolbook convolution, the wire format against
// serialize_vec. Strides 1, 2 and 17 limbs are the 32-, 64- and 1024-bit
// digit shapes; every kernel sees the extreme values of its stride and has
// one case that must throw std::overflow_error instead of wrapping.

#include "core/coeff_block.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "bigint/random.hpp"
#include "bigint/serialize.hpp"
#include "core/config.hpp"
#include "core/kronecker.hpp"
#include "core/layout.hpp"
#include "core/parallel.hpp"
#include "toom/digits.hpp"
#include "toom/plan.hpp"
#include "toom/points.hpp"

namespace ftmul {
namespace {

constexpr std::size_t kStrides[] = {1, 2, 17};

/// The largest and smallest value of an s-limb coefficient.
BigInt top_of(std::size_t s) {
    return BigInt::power_of_two(64 * s - 1) - BigInt{1};
}
BigInt bottom_of(std::size_t s) { return -BigInt::power_of_two(64 * s - 1); }

/// @p n random values below 2^bits in magnitude, with +-(2^bits - 1) and,
/// when @p with_min, -2^bits mixed in.
std::vector<BigInt> values(Rng& rng, std::size_t n, std::size_t bits,
                           bool with_min = true) {
    std::vector<BigInt> v(n);
    const BigInt top = BigInt::power_of_two(bits) - BigInt{1};
    for (std::size_t i = 0; i < n; ++i) {
        switch (i % 5) {
            case 0: v[i] = top; break;
            case 1: v[i] = with_min ? -top - BigInt{1} : -top; break;
            case 2: v[i] = -top; break;
            default: v[i] = random_signed_bits(rng, rng.next_below(bits) + 1);
        }
    }
    return v;
}

TEST(CoeffBlock, BigIntRoundTripAtTheStrideExtremes) {
    Rng rng{1};
    for (std::size_t s : kStrides) {
        std::vector<BigInt> v = values(rng, 23, 64 * s - 1);
        v.push_back(BigInt{});
        v.push_back(top_of(s));
        v.push_back(bottom_of(s));
        const CoeffBlock b = from_bigints(v, s);
        EXPECT_EQ(b.stride(), s);
        EXPECT_EQ(to_bigints(b), v) << "stride " << s;
        // The narrowest stride of these values is s itself.
        EXPECT_EQ(from_bigints(v), b);
        EXPECT_THROW(from_bigints(std::vector<BigInt>{top_of(s) + BigInt{1}}, s),
                     std::overflow_error);
        EXPECT_THROW(
            from_bigints(std::vector<BigInt>{bottom_of(s) - BigInt{1}}, s),
            std::overflow_error);
    }
}

TEST(CoeffBlock, FramesAreByteIdenticalToSerializeVec) {
    Rng rng{2};
    for (std::size_t s : kStrides) {
        std::vector<BigInt> v = values(rng, 40, 64 * s - 1);
        v[7] = BigInt{};
        const CoeffBlock b = from_bigints(v, s);
        std::vector<std::uint64_t> words;
        encode_frame(b, CoeffRuns::range(0, v.size()), words);
        EXPECT_EQ(words, serialize_vec(v)) << "stride " << s;
        EXPECT_EQ(framed_words(b, CoeffRuns::range(0, v.size())), words.size());

        // A strided pick frames exactly the BigInts it names.
        const CoeffRuns pick{3, 12, 2, 5};
        std::vector<BigInt> picked;
        for (std::size_t e = 0; e < pick.count; ++e) picked.push_back(v[pick.at(e)]);
        words.clear();
        encode_frame(b, pick, words);
        EXPECT_EQ(words, serialize_vec(picked));

        // Decoding scatters the frame back into the same positions.
        CoeffBlock back(v.size(), s);
        decode_frame(words, back, pick);
        for (std::size_t e = 0; e < pick.count; ++e) {
            EXPECT_EQ(to_bigints(back)[pick.at(e)], v[pick.at(e)]);
        }
        // A wider block decodes the same values.
        CoeffBlock wide(v.size(), s + 1);
        decode_frame(serialize_vec(v), wide, CoeffRuns::range(0, v.size()));
        EXPECT_EQ(to_bigints(wide), v);
    }
}

TEST(CoeffBlock, DecodeRejectsMismatchesAndOverflow) {
    const std::vector<BigInt> v{BigInt{5}, -BigInt::power_of_two(63)};
    const auto words = serialize_vec(v);
    CoeffBlock three(3, 1);
    EXPECT_THROW(decode_frame(words, three, CoeffRuns::range(0, 3)),
                 std::runtime_error);
    CoeffBlock two(2, 1);
    decode_frame(words, two, CoeffRuns::range(0, 2));
    EXPECT_EQ(to_bigints(two), v);
    // 2^63 does not fit one limb.
    const auto wide = serialize_vec(std::vector<BigInt>{BigInt::power_of_two(63)});
    CoeffBlock one(1, 1);
    EXPECT_THROW(decode_frame(wide, one, CoeffRuns::range(0, 1)),
                 std::overflow_error);
    auto truncated = words;
    truncated.pop_back();
    EXPECT_THROW(decode_frame(truncated, two, CoeffRuns::range(0, 2)),
                 std::runtime_error);
}

TEST(CoeffBlock, CopyConvertsStridesAndChecksNarrowing) {
    Rng rng{3};
    const std::vector<BigInt> v = values(rng, 10, 60);
    const CoeffBlock narrow = from_bigints(v, 1);
    CoeffBlock wide(10, 3);
    copy_coeffs(narrow, CoeffRuns::range(0, 10), wide, CoeffRuns::range(0, 10));
    EXPECT_EQ(to_bigints(wide), v);
    CoeffBlock back(10, 1);
    copy_coeffs(wide, CoeffRuns::range(0, 10), back, CoeffRuns::range(0, 10));
    EXPECT_EQ(back, narrow);
    const CoeffBlock big = from_bigints(std::vector<BigInt>{top_of(2)}, 2);
    CoeffBlock small(1, 1);
    EXPECT_THROW(
        copy_coeffs(big, CoeffRuns::range(0, 1), small, CoeffRuns::range(0, 1)),
        std::overflow_error);
}

// ---- evaluation ----------------------------------------------------------------

TEST(CoeffBlockKernels, EvaluateMatchesToomPlan) {
    Rng rng{4};
    const std::size_t block_len = 7;
    for (int k : {2, 3}) {
        for (std::size_t f : {0u, 1u, 2u}) {
            const ToomPlan plan = ToomPlan::make(k, f);
            const auto& m = plan.eval_matrix();
            for (std::size_t s : kStrides) {
                const std::vector<BigInt> in = values(
                    rng, static_cast<std::size_t>(k) * block_len, 64 * s - 1);
                std::vector<BigInt> want(plan.num_points() * block_len);
                plan.evaluate_blocks(in, want, block_len);
                const std::size_t so = stride_for_bits(64 * s + growth_bits(m));
                CoeffBlock out(want.size(), so);
                evaluate_blocks(m, from_bigints(in, s), out, block_len);
                EXPECT_EQ(to_bigints(out), want)
                    << "k " << k << " f " << f << " stride " << s;

                // A subset of rows, as the DFS step evaluates them.
                const std::size_t rows[] = {plan.num_points() - 1, 0};
                std::vector<BigInt> want2(2 * block_len);
                plan.evaluate_blocks(in, want2, block_len, rows);
                CoeffBlock out2(want2.size(), so);
                evaluate_blocks(m, from_bigints(in, s), out2, block_len, rows);
                EXPECT_EQ(to_bigints(out2), want2);

                // The same map as a BigInt matrix (the fused multistep
                // evaluation) takes the same values.
                Matrix<BigInt> mb(m.rows(), m.cols());
                for (std::size_t i = 0; i < m.rows(); ++i) {
                    for (std::size_t j = 0; j < m.cols(); ++j) mb(i, j) = m(i, j);
                }
                CoeffBlock out3(want.size(), so);
                evaluate_blocks(mb, from_bigints(in, s), out3, block_len);
                EXPECT_EQ(out3, out);
            }
        }
    }
}

TEST(CoeffBlockKernels, EvaluateThrowsInsteadOfWrapping) {
    // Point 1 adds the k blocks: two top values overflow their own stride.
    const ToomPlan plan = ToomPlan::make(2);
    for (std::size_t s : kStrides) {
        const std::vector<BigInt> in{top_of(s), top_of(s)};
        CoeffBlock out(3, s);
        EXPECT_THROW(evaluate_blocks(plan.eval_matrix(), from_bigints(in, s),
                                     out, 1),
                     std::overflow_error)
            << "stride " << s;
    }
}

// ---- interpolation -------------------------------------------------------------

/// The values of random product coefficients at the plan's base points —
/// interpolation inputs whose divisions are exact — with the coefficients
/// drawn up to @p bits, extremes included.
struct InterpCase {
    std::vector<BigInt> coeffs;    ///< 2k-1 blocks of block_len
    std::vector<BigInt> children;  ///< their values at the base points
};

InterpCase interp_case(Rng& rng, const ToomPlan& plan, std::size_t block_len,
                       std::size_t bits) {
    const std::size_t n = plan.num_base_points();
    const std::vector<EvalPoint> pts(plan.points().begin(),
                                     plan.points().begin() +
                                         static_cast<std::ptrdiff_t>(n));
    const Matrix<BigInt> v = evaluation_matrix(pts, n - 1);
    InterpCase c;
    c.coeffs = values(rng, n * block_len, bits);
    c.children.assign(n * block_len, BigInt{});
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t t = 0; t < block_len; ++t) {
            for (std::size_t i = 0; i < n; ++i) {
                c.children[j * block_len + t] +=
                    v(j, i) * c.coeffs[i * block_len + t];
            }
        }
    }
    return c;
}

TEST(CoeffBlockKernels, InterpolateMatchesInterpOperator) {
    Rng rng{5};
    const std::size_t block_len = 5;
    for (int k : {2, 3}) {
        for (std::size_t f : {0u, 1u, 2u}) {
            const ToomPlan plan = ToomPlan::make(k, f);
            // The redundant points' operators: interpolate from the last
            // 2k-1 points, as a polynomial-code recovery does.
            std::vector<std::size_t> survivors(plan.num_base_points());
            for (std::size_t i = 0; i < survivors.size(); ++i) {
                survivors[i] = i + f;
            }
            const InterpOperator op = plan.interpolation_for(survivors);
            const ToomPlan shifted = ToomPlan::from_points(
                k, std::vector<EvalPoint>(
                       plan.points().begin() + static_cast<std::ptrdiff_t>(f),
                       plan.points().end()));
            for (std::size_t s : kStrides) {
                // Coefficients reach the extremes of stride s; their values
                // at the points need the wider child stride.
                const InterpCase c =
                    interp_case(rng, shifted, block_len, 64 * s - 1);
                const CoeffBlock children = from_bigints(c.children);
                const std::size_t sc = children.stride();
                std::vector<BigInt> want(c.coeffs.size());
                op.apply_blocks(c.children, want, block_len);
                ASSERT_EQ(want, c.coeffs);

                CoeffBlock out(want.size(), s);
                apply_blocks(op, children, out, block_len);
                EXPECT_EQ(to_bigints(out), want)
                    << "k " << k << " f " << f << " stride " << s;

                // The DFS form: stream every column into the accumulator,
                // then divide once. The numerators need the interpolation's
                // growth on top of the children's stride.
                CoeffBlock acc(want.size(),
                               stride_for_bits(64 * sc +
                                               growth_bits(op.numerators())));
                for (std::size_t j = 0; j < op.cols(); ++j) {
                    CoeffBlock child(block_len, sc);
                    copy_coeffs(children, CoeffRuns::range(j * block_len, block_len),
                                child, CoeffRuns::range(0, block_len));
                    accumulate_column(op, j, child, acc, block_len);
                }
                finalize_blocks(op, acc, block_len);
                EXPECT_EQ(to_bigints(acc), want)
                    << "k " << k << " f " << f << " stride " << s;
            }
        }
    }
}

TEST(CoeffBlockKernels, InterpolateThrowsInsteadOfWrapping) {
    Rng rng{6};
    const ToomPlan plan = ToomPlan::make(2);
    const InterpCase c = interp_case(rng, plan, 3, 100);
    const CoeffBlock children = from_bigints(c.children, 2);
    CoeffBlock out(c.coeffs.size(), 1);  // 100-bit results need two limbs
    EXPECT_THROW(apply_blocks(plan.interpolation(), children, out, 3),
                 std::overflow_error);
    CoeffBlock acc(c.coeffs.size(), 1);
    CoeffBlock child(3, 2);
    copy_coeffs(children, CoeffRuns::range(0, 3), child, CoeffRuns::range(0, 3));
    EXPECT_THROW(accumulate_column(plan.interpolation(), 0, child, acc, 3),
                 std::overflow_error);
}

// ---- fold ------------------------------------------------------------------------

TEST(CoeffBlockKernels, FoldMatchesBigIntOverlapAdd) {
    Rng rng{7};
    for (std::size_t s : kStrides) {
        const std::size_t rc = 6;
        const std::vector<std::size_t> offsets{0, 3, 6};
        // Values one bit short of the stride: any two of them add safely.
        const std::vector<BigInt> v = values(rng, 3 * rc, 64 * s - 2);
        std::vector<BigInt> want(12);
        for (std::size_t i = 0; i < 3; ++i) {
            for (std::size_t t = 0; t < rc; ++t) {
                want[offsets[i] + t] += v[i * rc + t];
            }
        }
        EXPECT_EQ(to_bigints(fold_blocks(from_bigints(v, s), offsets, rc, 12)),
                  want)
            << "stride " << s;
        // Disjoint blocks carry the stride's extremes through unchanged.
        const std::vector<BigInt> ext{top_of(s), bottom_of(s)};
        const std::vector<std::size_t> apart{0, 1};
        EXPECT_EQ(to_bigints(fold_blocks(from_bigints(ext, s), apart, 1, 2)),
                  ext);
        // Two tops on one position overflow, as do two bottoms.
        const std::vector<std::size_t> same{0, 0};
        const std::vector<BigInt> tops{top_of(s), top_of(s)};
        EXPECT_THROW(fold_blocks(from_bigints(tops, s), same, 1, 1),
                     std::overflow_error);
        const std::vector<BigInt> bottoms{bottom_of(s), bottom_of(s)};
        EXPECT_THROW(fold_blocks(from_bigints(bottoms, s), same, 1, 1),
                     std::overflow_error);
    }
}

// ---- leaf ------------------------------------------------------------------------

TEST(CoeffBlockKernels, KroneckerLeafMatchesSchoolbook) {
    Rng rng{8};
    for (std::size_t s : kStrides) {
        for (std::size_t len : {1u, 2u, 9u, 40u}) {
            const std::vector<BigInt> a = values(rng, len, 64 * s - 1);
            const std::vector<BigInt> b = values(rng, len, 64 * s - 1);
            const std::vector<BigInt> want = convolve_schoolbook(a, b);
            EXPECT_EQ(kronecker_convolve(a, b), want)
                << "stride " << s << " len " << len;

            // The machine leaf: blocks at stride s, a result block at the
            // slot's stride padded to twice the input length.
            const ToomPlan plan = ToomPlan::make(3);
            const CoeffBlock ba = from_bigints(a, s);
            const CoeffBlock bb = from_bigints(b, s);
            const std::size_t so = stride_for_bits(kronecker_slot_bits(ba, bb));
            std::vector<BigInt> padded = want;
            padded.emplace_back();
            EXPECT_EQ(to_bigints(core_detail::leaf_multiply(plan, ba, bb, so)),
                      padded);
        }
        // All extremes at once: every product term reaches the slot bound
        // and the signs alternate the unpack's borrows.
        const std::vector<BigInt> lo(5, bottom_of(s));
        std::vector<BigInt> alt(5);
        for (std::size_t i = 0; i < alt.size(); ++i) {
            alt[i] = i % 2 == 0 ? top_of(s) : bottom_of(s);
        }
        EXPECT_EQ(kronecker_convolve(lo, alt), convolve_schoolbook(lo, alt));
        EXPECT_EQ(kronecker_convolve(lo, lo), convolve_schoolbook(lo, lo));
    }
}

TEST(CoeffBlockKernels, KroneckerLeafThrowsInsteadOfWrapping) {
    for (std::size_t s : kStrides) {
        const CoeffBlock a = from_bigints(std::vector<BigInt>(4, top_of(s)), s);
        CoeffBlock out(8, s);  // the products need about twice the stride
        EXPECT_THROW(kronecker_convolve(a, a, out), std::overflow_error)
            << "stride " << s;
    }
}

// ---- split and strides ----------------------------------------------------------

TEST(CoeffBlockKernels, SplitMatchesExtractBits) {
    Rng rng{9};
    for (std::size_t db : {32u, 64u, 1024u}) {
        ParallelConfig cfg;
        cfg.processors = 9;
        cfg.digit_bits = db;
        const BigInt v = -random_bits(rng, 40 * db + 7);
        const ResolvedShape shape = resolve_shape(cfg, v.bit_length());
        const std::size_t s = stride_for_bits(db + 1);
        for (int j : {0, 4, 8}) {
            std::vector<BigInt> want;
            for (std::size_t t : owned_positions(shape.total_digits, 1, 9,
                                                 static_cast<std::size_t>(j))) {
                want.push_back(v.extract_bits(t * db, db));
            }
            EXPECT_EQ(to_bigints(core_detail::local_input_digits(v, shape, 9, j, s)),
                      want)
                << "db " << db << " rank " << j;
        }
        if (db % 64 == 0) {
            // A digit of db bits needs a sign bit above it.
            EXPECT_THROW(core_detail::local_input_digits(v, shape, 9, 0,
                                                         db / 64),
                         std::overflow_error);
        }
    }
}

TEST(CoeffBlockKernels, StridesFollowTheShape) {
    // The large-mul shape: 80,000 bits, k=2, P=9, 32-bit digits. Two levels
    // of 1-bit evaluation growth keep operands in one limb; 630-digit leaf
    // products plus the interpolation's growth need two.
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    const ResolvedShape shape = resolve_shape(cfg, 80000);
    const ToomPlan plan = ToomPlan::make(2);
    EXPECT_EQ(shape.leaf_len, 630u);
    EXPECT_EQ(growth_bits(plan.eval_matrix()), 1u);
    const BlockStrides st = block_strides(shape, plan);
    EXPECT_EQ(st.operand, 1u);
    EXPECT_EQ(st.product, 2u);
    cfg.digit_bits = 1024;
    const BlockStrides wide = block_strides(resolve_shape(cfg, 80000), plan);
    EXPECT_EQ(wide.operand, 17u);
    EXPECT_EQ(wide.product, 33u);
}

}  // namespace
}  // namespace ftmul
