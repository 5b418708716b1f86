#include "core/kronecker.hpp"

#include <gtest/gtest.h>

#include "bigint/ops_counter.hpp"
#include "bigint/random.hpp"
#include "core/ft_poly.hpp"
#include "core/layout.hpp"
#include "toom/digits.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

TEST(Kronecker, SlotBits) {
    // A non-negative polynomial is sized as a signed one: the unsigned bound
    // 2 * bits + ceil(log2 n) plus one sign bit.
    const std::vector<BigInt> one{BigInt{255}};
    EXPECT_EQ(kronecker_signed_slot_bits(one, one), 18u);
    const std::vector<BigInt> two{BigInt{255}, BigInt{0}};
    EXPECT_EQ(kronecker_signed_slot_bits(two, two), 19u);
    const std::vector<BigInt> hundred(100, BigInt{65535});
    EXPECT_EQ(kronecker_signed_slot_bits(hundred, hundred), 40u);
}

TEST(Kronecker, PackUnpackRoundTrip) {
    Rng rng{1};
    std::vector<BigInt> coeffs(17);
    for (auto& c : coeffs) {
        c = BigInt{static_cast<std::int64_t>(rng.next_below(1u << 20))};
    }
    const BigInt packed = kronecker_pack_signed(coeffs, 21);
    EXPECT_EQ(kronecker_unpack_signed(packed, 21, 17), coeffs);
}

TEST(Kronecker, PackRejectsOutOfRange) {
    // A 10-bit slot holds non-negative coefficients below 2^9: the top bit
    // is the sign.
    std::vector<BigInt> bad{BigInt{1 << 10}};
    EXPECT_THROW(kronecker_pack_signed(bad, 10), std::invalid_argument);
    std::vector<BigInt> sign_bit{BigInt{1 << 9}};
    EXPECT_THROW(kronecker_pack_signed(sign_bit, 10), std::invalid_argument);
    std::vector<BigInt> top{BigInt{(1 << 9) - 1}, BigInt{-1}};
    EXPECT_EQ(kronecker_unpack_signed(kronecker_pack_signed(top, 10), 10, 2),
              top);
}

TEST(Kronecker, KnownProduct) {
    // (1 + 2x)(3 + 4x) = 3 + 10x + 8x^2
    std::vector<BigInt> a{1, 2}, b{3, 4};
    auto c = kronecker_convolve(a, b);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c[0], BigInt{3});
    EXPECT_EQ(c[1], BigInt{10});
    EXPECT_EQ(c[2], BigInt{8});
}

class KroneckerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KroneckerSweep, MatchesSchoolbookConvolution) {
    Rng rng{GetParam()};
    const std::size_t la = 1 + rng.next_below(300);
    const std::size_t lb = 1 + rng.next_below(300);
    const std::size_t coeff_bits = 4 + rng.next_below(28);
    std::vector<BigInt> a(la), b(lb);
    for (auto& v : a) v = random_below_2pow(rng, coeff_bits);
    for (auto& v : b) v = random_below_2pow(rng, coeff_bits);
    EXPECT_EQ(kronecker_convolve(a, b), convolve_schoolbook(a, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KroneckerSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Kronecker, RidesTheToomEngine) {
    Rng rng{5};
    std::vector<BigInt> a(256), b(256);
    for (auto& v : a) v = random_below_2pow(rng, 12);
    for (auto& v : b) v = random_below_2pow(rng, 12);
    const ToomPlan plan = ToomPlan::make(3);
    ToomOptions opts;
    opts.threshold_bits = 512;
    auto via_toom =
        kronecker_convolve(a, b, [&](const BigInt& x, const BigInt& y) {
            return toom_multiply(x, y, plan, opts);
        });
    EXPECT_EQ(via_toom, convolve_schoolbook(a, b));

    // The inputs of examples/poly_multiply: 701 coefficients in [0, 8192)
    // through default-threshold Toom-3.
    Rng example_rng{13};
    std::vector<BigInt> f(701), g(701);
    for (std::size_t i = 0; i < f.size(); ++i) {
        f[i] = BigInt{static_cast<std::int64_t>(example_rng.next_below(8192))};
        g[i] = BigInt{static_cast<std::int64_t>(example_rng.next_below(8192))};
    }
    EXPECT_EQ(kronecker_convolve(f, g,
                                 [&](const BigInt& x, const BigInt& y) {
                                     return toom_multiply(x, y, plan);
                                 }),
              convolve_schoolbook(f, g));
}

TEST(Kronecker, RidesTheFaultTolerantParallelEngine) {
    // The payoff: a polynomial product executed by the FT parallel machine
    // while a processor column dies.
    Rng rng{6};
    std::vector<BigInt> a(128), b(128);
    for (auto& v : a) v = random_below_2pow(rng, 10);
    for (auto& v : b) v = random_below_2pow(rng, 10);
    FtPolyConfig cfg;
    cfg.base.k = 2;
    cfg.base.processors = 9;
    cfg.base.digit_bits = 32;
    cfg.faults = 1;
    FaultPlan plan;
    plan.add("mul", 2);
    auto via_ft =
        kronecker_convolve(a, b, [&](const BigInt& x, const BigInt& y) {
            return ft_poly_multiply(x, y, cfg, plan).product;
        });
    EXPECT_EQ(via_ft, convolve_schoolbook(a, b));
}

TEST(KroneckerSigned, SlotBitsFromActualCoefficients) {
    const std::vector<BigInt> a{BigInt{-255}, BigInt{3}};  // 8 bits
    const std::vector<BigInt> b{BigInt{1}, BigInt{0}, BigInt{-15}};  // 4 bits
    // 8 + 4 + bit_width(min(2, 3)) = 2, plus the sign bit.
    EXPECT_EQ(kronecker_signed_slot_bits(a, b), 15u);
    const std::vector<BigInt> zeros(4);
    EXPECT_EQ(kronecker_signed_slot_bits(zeros, zeros), 4u);
}

TEST(KroneckerSigned, PackRejectsOutOfRange) {
    std::vector<BigInt> bad{BigInt{-(1 << 9)}};
    EXPECT_THROW(kronecker_pack_signed(bad, 10), std::invalid_argument);
    EXPECT_THROW(kronecker_pack_signed(bad, 0), std::invalid_argument);
    EXPECT_THROW(kronecker_unpack_signed(BigInt{1}, 0, 1),
                 std::invalid_argument);
    std::vector<BigInt> ok{BigInt{-(1 << 9) + 1}};
    EXPECT_EQ(kronecker_unpack_signed(kronecker_pack_signed(ok, 10), 10, 1),
              ok);
}

TEST(KroneckerSigned, RoundTripBorrowsAcrossEverySlot) {
    // Slot widths on and off limb boundaries; every negative coefficient
    // borrows from the slot above it, so the running carry crosses every
    // slot boundary, including the all-ones slot values a borrow turns into
    // 2^slot.
    Rng rng{3};
    for (std::size_t slot : {2u, 3u, 7u, 63u, 64u, 65u, 128u, 131u}) {
        const BigInt edge = BigInt::power_of_two(slot - 1) - BigInt{1};
        for (int pattern = 0; pattern < 4; ++pattern) {
            std::vector<BigInt> coeffs(37);
            for (std::size_t i = 0; i < coeffs.size(); ++i) {
                switch (pattern) {
                    case 0: coeffs[i] = i % 2 == 0 ? -edge : edge; break;
                    case 1: coeffs[i] = -edge; break;
                    case 2: coeffs[i] = i % 3 == 0 ? BigInt{} : -BigInt{1}; break;
                    default:
                        coeffs[i] = random_below_2pow(rng, slot - 1);
                        if (rng.next_below(2) == 0) coeffs[i] = -coeffs[i];
                }
            }
            const BigInt packed = kronecker_pack_signed(coeffs, slot);
            EXPECT_EQ(kronecker_unpack_signed(packed, slot, coeffs.size()),
                      coeffs)
                << "slot " << slot << " pattern " << pattern;
        }
    }
}

TEST(KroneckerSigned, PackChargesLinearWork) {
    // Pack and unpack are limb walks: doubling the length roughly doubles
    // the charge (the old shift-and-add pack grew quadratically).
    Rng rng{4};
    const auto charge = [&](std::size_t n) {
        std::vector<BigInt> v(n);
        for (BigInt& c : v) c = -random_below_2pow(rng, 40);
        const std::uint64_t before = OpsCounter::get();
        const BigInt packed = kronecker_pack_signed(v, 90);
        (void)kronecker_unpack_signed(packed, 90, n);
        return OpsCounter::get() - before;
    };
    const std::uint64_t small = charge(1000);
    const std::uint64_t large = charge(4000);
    EXPECT_LE(large, 5 * small);
}

// Product assembly: kronecker_assemble against the Horner recomposition of
// the unsliced vector, the value it replaces on the machine engines' path.
// The slices enter as blocks of the narrowest stride that holds each.
BigInt assemble(const std::vector<std::vector<BigInt>>& slices,
                std::size_t digit_bits) {
    std::vector<CoeffBlock> blocks;
    for (const auto& s : slices) blocks.push_back(from_bigints(s));
    return kronecker_assemble(blocks, digit_bits);
}

BigInt horner_assemble(const std::vector<std::vector<BigInt>>& slices,
                       std::size_t digit_bits) {
    return recompose_digits(unslice(slices, 1), digit_bits);
}

/// P slices of @p per coefficients each, filled by @p gen(position).
template <typename Gen>
std::vector<std::vector<BigInt>> make_slices(std::size_t p, std::size_t per,
                                             Gen&& gen) {
    std::vector<std::vector<BigInt>> slices(p, std::vector<BigInt>(per));
    for (std::size_t i = 0; i < per; ++i) {
        for (std::size_t j = 0; j < p; ++j) slices[j][i] = gen(i * p + j);
    }
    return slices;
}

TEST(KroneckerAssemble, MatchesHornerAcrossWidthsAndSigns) {
    // Coefficients just under, at and over the digit width, and wide enough
    // to overlap the next two digits; non-negative and mixed-sign.
    Rng rng{21};
    for (std::size_t p : {1u, 3u, 9u}) {
        for (std::size_t db : {32u, 33u, 64u, 128u}) {
            for (std::size_t w : {db - 1, db, db + 1, 2 * db + 5}) {
                for (std::size_t per : {1u, 7u, 40u}) {
                    const auto unsigned_slices = make_slices(
                        p, per, [&](std::size_t) { return random_bits(rng, w); });
                    EXPECT_EQ(assemble(unsigned_slices, db),
                              horner_assemble(unsigned_slices, db))
                        << "P " << p << " db " << db << " w " << w;
                    const auto signed_slices = make_slices(
                        p, per,
                        [&](std::size_t) { return random_signed_bits(rng, w); });
                    EXPECT_EQ(assemble(signed_slices, db),
                              horner_assemble(signed_slices, db))
                        << "P " << p << " db " << db << " w " << w;
                }
            }
        }
    }
}

TEST(KroneckerAssemble, ZeroAndSingleCoefficient) {
    for (std::size_t p : {1u, 3u, 9u}) {
        for (std::size_t db : {32u, 33u, 64u, 128u}) {
            const auto zeros =
                make_slices(p, 5, [](std::size_t) { return BigInt{}; });
            EXPECT_TRUE(assemble(zeros, db).is_zero());
            const std::size_t len = 5 * p;
            for (std::size_t at : {std::size_t{0}, len / 2, len - 1}) {
                for (const BigInt& c :
                     {BigInt{1}, BigInt{-7},
                      BigInt::power_of_two(2 * db + 4) - BigInt{1}}) {
                    const auto one = make_slices(p, 5, [&](std::size_t t) {
                        return t == at ? c : BigInt{};
                    });
                    EXPECT_EQ(assemble(one, db), c << (at * db))
                        << "P " << p << " db " << db << " at " << at;
                    EXPECT_EQ(assemble(one, db),
                              horner_assemble(one, db));
                }
            }
        }
    }
}

TEST(KroneckerAssemble, AllOnesCarriesRippleAcrossLimbs) {
    // Every coefficient 2^w - 1 with w > digit_bits: overlapping all-ones
    // runs make each add carry across many limbs. Negated, the same walk
    // runs in the negative buffer.
    for (std::size_t p : {1u, 3u, 9u}) {
        for (std::size_t db : {32u, 33u, 64u, 128u}) {
            for (std::size_t w : {db - 1, db, db + 1, 2 * db + 5}) {
                const BigInt ones = BigInt::power_of_two(w) - BigInt{1};
                const auto pos =
                    make_slices(p, 11, [&](std::size_t) { return ones; });
                EXPECT_EQ(assemble(pos, db), horner_assemble(pos, db))
                    << "P " << p << " db " << db << " w " << w;
                const auto neg =
                    make_slices(p, 11, [&](std::size_t) { return -ones; });
                EXPECT_EQ(assemble(neg, db), horner_assemble(neg, db))
                    << "P " << p << " db " << db << " w " << w;
            }
        }
    }
}

TEST(KroneckerAssemble, ChargesLinearWork) {
    // Doubling the coefficient count at most ~doubles the charge; the Horner
    // loop it replaces grows ~4x.
    Rng rng{22};
    const auto charge = [&](std::size_t n) {
        const auto slices = make_slices(9, n / 9, [&](std::size_t) {
            return random_signed_bits(rng, 69);
        });
        const std::uint64_t before = OpsCounter::get();
        (void)assemble(slices, 32);
        return OpsCounter::get() - before;
    };
    const std::uint64_t small = charge(2502);
    const std::uint64_t large = charge(5004);
    EXPECT_GT(small, 0u);
    EXPECT_LE(static_cast<double>(large), 2.2 * static_cast<double>(small));
}

class KroneckerConvolveSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KroneckerConvolveSweep, MatchesSchoolbookOnSignedCoefficients) {
    Rng rng{GetParam()};
    const std::size_t la = 1 + rng.next_below(200);
    const std::size_t lb = 1 + rng.next_below(200);
    const std::size_t wa = rng.next_below(100);
    const std::size_t wb = rng.next_below(100);
    std::vector<BigInt> a(la), b(lb);
    for (auto& v : a) v = random_signed_bits(rng, wa);
    for (auto& v : b) v = random_signed_bits(rng, wb);
    EXPECT_EQ(kronecker_convolve(a, b), convolve_schoolbook(a, b));
    const ToomPlan plan = ToomPlan::make(3);
    EXPECT_EQ(kronecker_convolve(a, b,
                                 [&](const BigInt& x, const BigInt& y) {
                                     return toom_multiply(x, y, plan);
                                 }),
              convolve_schoolbook(a, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KroneckerConvolveSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace ftmul
