#include "core/layout.hpp"

#include <gtest/gtest.h>

#include "bigint/random.hpp"
#include "runtime/machine.hpp"

namespace ftmul {
namespace {

TEST(Layout, OwnedPositionsCyclic) {
    // len=12, bs=2, m=3: rank 1 owns chunks {2,3}, {8,9}.
    auto pos = owned_positions(12, 2, 3, 1);
    EXPECT_EQ(pos, (std::vector<std::size_t>{2, 3, 8, 9}));
    // bs=1 degenerates to round-robin.
    EXPECT_EQ(owned_positions(6, 1, 3, 0), (std::vector<std::size_t>{0, 3}));
}

TEST(Layout, SlicesPartitionTheVector) {
    const std::size_t len = 24, bs = 2, m = 4;
    std::vector<bool> seen(len, false);
    for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t t : owned_positions(len, bs, m, j)) {
            EXPECT_FALSE(seen[t]);
            seen[t] = true;
        }
    }
    for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Layout, SliceUnsliceRoundTrip) {
    Rng rng{3};
    const std::size_t len = 36, bs = 3, m = 4;
    std::vector<BigInt> full(len);
    for (auto& v : full) v = random_signed_bits(rng, 30);
    std::vector<std::vector<BigInt>> slices;
    for (std::size_t j = 0; j < m; ++j) slices.push_back(slice_of(full, bs, m, j));
    EXPECT_EQ(unslice(slices, bs), full);
}

TEST(Layout, ColumnSubgroup) {
    Group g = Group::strided(0, 9);
    Group col1 = column_subgroup(g, 3, 1);
    EXPECT_EQ(col1.members, (std::vector<int>{1, 4, 7}));
}

TEST(Layout, ExchangeForwardBackwardInverse) {
    // 9 ranks in a 3x3 grid; verify that the fused forward exchange places
    // every rank's new slices consistently with the block-cyclic law, and
    // the backward exchange inverts it. The b operand carries the negated
    // values at a wider stride, so signs and strides travel the wire too.
    const int P = 9;
    const std::size_t npts = 3, bs = 1;
    const std::size_t s = 6;  // per-block slice length
    const std::size_t len_over_k = s * P;  // one evaluated block's length

    // Build the conceptual evaluated blocks: block i position t = 1000*i + t.
    std::vector<std::vector<BigInt>> blocks(npts);
    for (std::size_t i = 0; i < npts; ++i) {
        blocks[i].resize(len_over_k);
        for (std::size_t t = 0; t < len_over_k; ++t) {
            blocks[i][t] = BigInt{static_cast<std::int64_t>(1000 * i + t)};
        }
    }
    const auto negated = [](std::vector<BigInt> v) {
        for (BigInt& x : v) x = -x;
        return v;
    };

    Machine machine(P);
    machine.run([&](Rank& rank) {
        Group g = Group::strided(0, P);
        const auto j = static_cast<std::size_t>(rank.id());
        // Local evaluated slices, as local evaluation would produce them.
        std::vector<BigInt> eval_local;
        for (std::size_t i = 0; i < npts; ++i) {
            for (std::size_t t : owned_positions(len_over_k, bs, P, j)) {
                eval_local.push_back(blocks[i][t]);
            }
        }
        auto [mine_a, mine_b] = exchange_forward_pair(
            rank, g, npts, bs, from_bigints(eval_local, 1),
            from_bigints(negated(eval_local), 2), 11, 12);

        // Expected: new layout (bs'=3, m'=3 over my column subgroup) of my
        // column's block.
        const std::size_t col = j % npts, row = j / npts;
        std::vector<BigInt> expect;
        for (std::size_t t :
             owned_positions(len_over_k, bs * npts, P / npts, row)) {
            expect.push_back(blocks[col][t]);
        }
        EXPECT_EQ(to_bigints(mine_a), expect) << "rank " << rank.id();
        EXPECT_EQ(to_bigints(mine_b), negated(expect)) << "rank " << rank.id();
        EXPECT_EQ(mine_b.stride(), 2u);

        // Backward: pretend each column's child result is simply its block
        // (same length); after the inverse exchange every rank must hold its
        // old-layout slice of all three "child results".
        auto back = exchange_backward(rank, g, npts, bs, std::move(mine_a), 13);
        EXPECT_EQ(to_bigints(back), eval_local) << "rank " << rank.id();
        auto back_b =
            exchange_backward(rank, g, npts, bs, std::move(mine_b), 14);
        EXPECT_EQ(to_bigints(back_b), negated(eval_local))
            << "rank " << rank.id();
    });
}

TEST(Layout, ExchangeRejectsBadSizes) {
    Machine machine(3);
    machine.run([&](Rank& rank) {
        Group g = Group::strided(0, 3);
        const CoeffBlock good(3, 1);
        const CoeffBlock bad(4, 1);  // not divisible by npts=3
        EXPECT_THROW(exchange_forward_pair(rank, g, 3, 1, bad, good, 13, 14),
                     std::invalid_argument);
        EXPECT_THROW(exchange_forward_pair(rank, g, 3, 1, good, bad, 13, 14),
                     std::invalid_argument);
        const CoeffBlock bad2(5, 1);  // not divisible by bs*npts=3
        EXPECT_THROW(exchange_backward(rank, g, 3, 1, bad2, 15),
                     std::invalid_argument);
    });
}

}  // namespace
}  // namespace ftmul
