// Tests of the benchmark harness: percentiles (plain, stratified, and the
// choice of quiet chunks), the residue oracle, span self times and the
// seeded input and fault streams.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bigint/random.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using ftmul::BigInt;

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

TEST(Percentile, NearestRank) {
    EXPECT_EQ(nearest_rank(100, 50), 50u);
    EXPECT_EQ(nearest_rank(100, 90), 90u);
    EXPECT_EQ(nearest_rank(20, 50), 10u);
    EXPECT_EQ(nearest_rank(999, 99), 990u);
    EXPECT_EQ(nearest_rank(3, 1), 1u);
    EXPECT_EQ(nearest_rank(3, 100), 3u);
    EXPECT_EQ(percentile(one_to(100), 50), 50.0);
    EXPECT_EQ(percentile(one_to(100), 90), 90.0);
    EXPECT_EQ(percentile(one_to(1000), 99), 990.0);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
    EXPECT_EQ(percentile(one_to(20), 50), 10.0);
    EXPECT_FALSE(percentile(one_to(19), 50).has_value());
    EXPECT_TRUE(percentile(one_to(100), 90).has_value());
    EXPECT_FALSE(percentile(one_to(99), 90).has_value());
    EXPECT_FALSE(percentile(one_to(100), 91).has_value());
    EXPECT_FALSE(percentile(one_to(999), 99).has_value());
    EXPECT_FALSE(percentile({}, 50).has_value());
}

bool is_prime(std::uint64_t n) {
    auto mulmod = [n](std::uint64_t a, std::uint64_t b) {
        return static_cast<std::uint64_t>(
            static_cast<unsigned __int128>(a) * b % n);
    };
    auto powmod = [&](std::uint64_t a, std::uint64_t e) {
        std::uint64_t r = 1;
        for (; e; e >>= 1, a = mulmod(a, a)) {
            if (e & 1) r = mulmod(r, a);
        }
        return r;
    };
    std::uint64_t d = n - 1;
    int s = 0;
    for (; d % 2 == 0; d /= 2) ++s;
    // These bases make Miller-Rabin deterministic below 2^64.
    for (std::uint64_t a : {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}) {
        std::uint64_t x = powmod(a, d);
        if (x == 1 || x == n - 1) continue;
        bool composite = true;
        for (int r = 1; r < s && composite; ++r) {
            x = mulmod(x, x);
            if (x == n - 1) composite = false;
        }
        if (composite) return false;
    }
    return true;
}

std::vector<StratifiedSample> in_stratum(const std::vector<double>& v,
                                         const std::string& stratum,
                                         double share) {
    std::vector<StratifiedSample> out;
    for (double x : v) out.push_back({x, stratum, share});
    return out;
}

TEST(Percentile, StratifiedMatchesNearestRankAtSampleShares) {
    for (int n : {20, 21, 100, 1000}) {
        for (double q : {50.0, 90.0, 99.0}) {
            EXPECT_EQ(stratified_percentile(in_stratum(one_to(n), "s", 1), q),
                      percentile(one_to(n), q))
                << n << " " << q;
        }
    }
    // Two strata whose shares follow their counts: the plain percentile.
    std::vector<StratifiedSample> s = in_stratum(one_to(30), "a", 30);
    const std::vector<StratifiedSample> b = in_stratum({100, 200}, "b", 2);
    s.insert(s.end(), b.begin(), b.end());
    std::vector<double> all = one_to(30);
    all.insert(all.end(), {100, 200});
    EXPECT_EQ(stratified_percentile(s, 50), percentile(all, 50));
}

TEST(Percentile, StratifiedReweightsToTheGivenShares) {
    // 10 fast samples and 30 slow ones, but the population is half each:
    // the median is the last fast sample, not a slow one.
    std::vector<StratifiedSample> s =
        in_stratum({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, "fast", 0.5);
    std::vector<double> slow;
    for (int i = 0; i < 30; ++i) slow.push_back(100 + i);
    const std::vector<StratifiedSample> t = in_stratum(slow, "slow", 0.5);
    s.insert(s.end(), t.begin(), t.end());
    EXPECT_EQ(stratified_percentile(s, 50), 10.0);
    // At a 10% fast share the slow samples supply the other 40 points of
    // the 50: 0.4 / 0.9 of 30 samples rounds up to the 14th, 113.
    for (StratifiedSample& x : s) x.share = x.stratum == "fast" ? 0.1 : 0.9;
    EXPECT_EQ(stratified_percentile(s, 50), 113.0);
    // Still needs ten samples beyond it.
    for (StratifiedSample& x : s) x.share = x.stratum == "fast" ? 0.01 : 0.99;
    EXPECT_FALSE(stratified_percentile(s, 99).has_value());
}

TEST(Percentile, FastestChunksKeepTheLowestMedians) {
    // Medians 5, 50, 2, 7 (the outlier in chunk 0 does not move its median).
    const std::vector<std::vector<double>> chunks = {
        {4, 5, 900}, {50, 40, 60}, {2}, {7, 7, 6, 8}};
    EXPECT_EQ(fastest_chunks(chunks, 2),
              (std::vector<bool>{true, false, true, false}));
    EXPECT_EQ(fastest_chunks(chunks, 3),
              (std::vector<bool>{true, false, true, true}));
    EXPECT_EQ(fastest_chunks({{1}, {1}, {1}}, 1),
              (std::vector<bool>{true, false, false}));
    EXPECT_THROW(fastest_chunks({{1}, {}}, 1), std::invalid_argument);
}

TEST(Oracle, BasketIsPrime) {
    for (std::uint64_t m : kOraclePrimes) EXPECT_TRUE(is_prime(m)) << m;
}

BigInt from_u64(std::uint64_t v) {
    return BigInt::from_parts(v == 0 ? 0 : 1, ftmul::detail::Limbs{v});
}

TEST(Oracle, ResidueMatchesBigIntRemainder) {
    ftmul::Rng rng(7);
    for (int i = 0; i < 20; ++i) {
        const BigInt x = ftmul::random_signed_bits(rng, 64 + 97 * i);
        for (std::uint64_t m : kOraclePrimes) {
            EXPECT_EQ(from_u64(residue(x, m)),
                      BigInt::mod_floor(x, from_u64(m)));
        }
    }
}

TEST(Oracle, CatchesOneFlippedLimb) {
    ftmul::Rng rng(11);
    const BigInt a = ftmul::random_bits(rng, 5000);
    const BigInt b = ftmul::random_signed_bits(rng, 4000);
    const BigInt p = reference_product(a, b);
    ASSERT_TRUE(residues_agree(a, b, p));
    ASSERT_TRUE(product_ok(a, b, p, p));
    for (std::size_t limb = 0; limb < p.limb_count(); limb += 17) {
        for (int bit : {0, 31, 63}) {
            ftmul::detail::Limbs mag = p.magnitude();
            mag[limb] ^= std::uint64_t{1} << bit;
            const BigInt bad = BigInt::from_parts(p.sign(), mag);
            EXPECT_FALSE(residues_agree(a, b, bad))
                << "limb " << limb << " bit " << bit;
            EXPECT_FALSE(product_ok(a, b, bad, p));
        }
    }
    EXPECT_FALSE(residues_agree(a, b, -p));
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
    std::vector<Span> spans(5);
    spans[0] = {"op", 0, 100, -1, 1};
    spans[1] = {"a", 10, 30, 0, 1};
    spans[2] = {"b", 20, 50, 0, 1};   // overlaps a: counted once
    spans[3] = {"c", 70, 80, 0, 1};
    spans[4] = {"d", 72, 75, 3, 1};   // grandchild: not the op's child
    const std::vector<std::uint64_t> self = self_times_ns(spans);
    EXPECT_EQ(self[0], 100u - 40u - 10u);
    EXPECT_EQ(self[1], 20u);
    EXPECT_EQ(self[3], 7u);
    EXPECT_EQ(self[4], 3u);
}

TEST(Spans, DisabledRecorderRecordsNothing) {
    SpanRecorder rec;
    { ScopedSpan s(rec, "x", -1, 0); }
    EXPECT_TRUE(rec.spans().empty());
    rec.enable(true);
    {
        ScopedSpan outer(rec, "outer", -1, 3);
        ScopedSpan inner(rec, "inner", outer.id(), 3);
    }
    const std::vector<Span> spans = rec.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
    EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
}

TEST(Streams, RequestStreamReproducesByteForByte) {
    const auto s1 = request_stream(42, 150, 2.0, 128, 12000);
    const auto s2 = request_stream(42, 150, 2.0, 128, 12000);
    ASSERT_FALSE(s1.empty());
    EXPECT_EQ(serialize_requests(42, s1), serialize_requests(42, s2));
    const auto s3 = request_stream(43, 150, 2.0, 128, 12000);
    EXPECT_NE(serialize_requests(42, s1), serialize_requests(43, s3));
}

TEST(Streams, RequestStreamShape) {
    const auto s = request_stream(5, 150, 20.0, 128, 12000);
    // Poisson count: mean 3000, standard deviation ~55.
    EXPECT_GT(s.size(), 2700u);
    EXPECT_LT(s.size(), 3300u);
    std::size_t fast = 0, redundant = 0;
    std::uint64_t last = 0;
    for (const RequestSpec& r : s) {
        EXPECT_GE(r.bits_a, 128u);
        EXPECT_LE(r.bits_a, 12000u);
        EXPECT_GE(r.arrival_us, last);
        EXPECT_LT(r.arrival_us, 20000000u);
        last = r.arrival_us;
        fast += r.cls == ftmul::ReliabilityClass::Fast;
        redundant += r.cls == ftmul::ReliabilityClass::FastRedundant;
    }
    EXPECT_NEAR(static_cast<double>(fast) / s.size(), 0.5, 0.05);
    EXPECT_NEAR(static_cast<double>(redundant) / s.size(), 0.2, 0.05);
}

TEST(Streams, FaultStreamReproducesByteForByte) {
    for (ftmul::FtEngine e :
         {ftmul::FtEngine::Poly, ftmul::FtEngine::Linear,
          ftmul::FtEngine::Mixed, ftmul::FtEngine::Replication}) {
        ftmul::ResilientConfig cfg;
        cfg.engine = e;
        cfg.base.digit_bits = 32;
        const ftmul::FaultInjectorConfig fic = recovery_fault_config(cfg);
        const ftmul::FaultInjector i1(9), i2(9), other(10);
        std::string a, b, c;
        for (std::uint64_t t = 0; t < 50; ++t) {
            a += serialize_faults(i1.draw(fic, t));
            b += serialize_faults(i2.draw(fic, t));
            c += serialize_faults(other.draw(fic, t));
        }
        EXPECT_EQ(a, b) << ftmul::to_string(e);
        EXPECT_NE(a, c) << ftmul::to_string(e);
        EXPECT_NE(a.find("hard "), std::string::npos) << ftmul::to_string(e);
    }
}

TEST(Streams, HardFaultProbabilityMatchesTheInjector) {
    for (ftmul::FtEngine e :
         {ftmul::FtEngine::Poly, ftmul::FtEngine::Replication}) {
        ftmul::ResilientConfig cfg;
        cfg.engine = e;
        cfg.base.digit_bits = 32;
        const ftmul::FaultInjectorConfig fic = recovery_fault_config(cfg);
        const ftmul::FaultInjector inj(3);
        constexpr int kTrials = 4000;
        int hit = 0;
        for (int t = 0; t < kTrials; ++t) {
            hit += inj.draw(fic, t).hard.total_faults() > 0;
        }
        const double p = hard_fault_probability(fic);
        EXPECT_GT(p, 0.05) << ftmul::to_string(e);
        // Four standard deviations of the sampled share.
        EXPECT_NEAR(static_cast<double>(hit) / kTrials, p,
                    4 * std::sqrt(p * (1 - p) / kTrials))
            << ftmul::to_string(e);
    }
}

}  // namespace
}  // namespace perfbench
