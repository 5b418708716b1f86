#include "runtime/machine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <thread>

#include "bigint/random.hpp"
#include "runtime/collectives.hpp"
#include "runtime/group.hpp"

namespace ftmul {
namespace {

Group whole_world(int p) { return Group::strided(0, p); }

TEST(Machine, RunsEveryRank) {
    Machine m(8);
    std::atomic<int> count{0};
    m.run([&](Rank& r) {
        EXPECT_EQ(r.size(), 8);
        EXPECT_GE(r.id(), 0);
        EXPECT_LT(r.id(), 8);
        count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 8);
}

TEST(Machine, RejectsNonPositiveSize) {
    EXPECT_THROW(Machine(0), std::invalid_argument);
}

TEST(Machine, PointToPointRoundTrip) {
    Machine m(2);
    m.run([&](Rank& r) {
        if (r.id() == 0) {
            r.send(1, 7, {10, 20, 30});
            auto back = r.recv(1, 8);
            EXPECT_EQ(back, (std::vector<std::uint64_t>{99}));
        } else {
            auto got = r.recv(0, 7);
            EXPECT_EQ(got, (std::vector<std::uint64_t>{10, 20, 30}));
            r.send(0, 8, {99});
        }
    });
}

TEST(Machine, TagMatchingSeparatesStreams) {
    Machine m(2);
    m.run([&](Rank& r) {
        if (r.id() == 0) {
            r.send(1, 1, {111});
            r.send(1, 2, {222});
        } else {
            // Receive in reverse tag order: matching must be by tag.
            EXPECT_EQ(r.recv(0, 2), (std::vector<std::uint64_t>{222}));
            EXPECT_EQ(r.recv(0, 1), (std::vector<std::uint64_t>{111}));
        }
    });
}

TEST(Machine, BigIntWireRoundTrip) {
    Machine m(2);
    m.run([&](Rank& r) {
        std::vector<BigInt> vals{BigInt{-5}, BigInt::power_of_two(100), BigInt{}};
        if (r.id() == 0) {
            r.send_bigints(1, 3, vals);
        } else {
            EXPECT_EQ(r.recv_bigints(0, 3), vals);
        }
    });
}

TEST(Machine, RecvTimeoutThrows) {
    Machine m(2);
    m.set_recv_timeout(std::chrono::milliseconds(50));
    EXPECT_THROW(m.run([&](Rank& r) {
        if (r.id() == 0) (void)r.recv(1, 5);  // nobody sends
    }),
                 RecvTimeout);
}

TEST(Machine, CountsWordsAndMessages) {
    Machine m(2);
    m.run([&](Rank& r) {
        r.phase("talk");
        if (r.id() == 0) {
            r.send(1, 1, std::vector<std::uint64_t>(100, 42));
        } else {
            (void)r.recv(0, 1);
        }
    });
    const auto& talk = m.stats().per_phase.at("talk");
    EXPECT_EQ(talk.words, 100u);
    EXPECT_EQ(talk.msgs, 1u);
    EXPECT_EQ(m.stats().aggregate.words, 100u);
}

TEST(Machine, CountsFlopsPerPhase) {
    Machine m(2);
    m.run([&](Rank& r) {
        r.phase("idle");
        r.phase("work");
        if (r.id() == 0) {
            Rng rng{1};
            BigInt a = random_bits(rng, 6400), b = random_bits(rng, 6400);
            BigInt c = a * b;
            (void)c;
        }
    });
    EXPECT_GE(m.stats().per_phase.at("work").flops, 100u * 100u);
    EXPECT_LE(m.stats().per_phase.at("idle").flops, 10u);
}

TEST(Machine, CriticalPathIsMaxPerPhase) {
    Machine m(4);
    m.run([&](Rank& r) {
        r.phase("lopsided");
        if (r.id() == 2) {
            r.send(3, 1, std::vector<std::uint64_t>(500, 1));
        }
        if (r.id() == 3) (void)r.recv(2, 1);
    });
    // Critical path counts the busiest rank, not the sum.
    EXPECT_EQ(m.stats().per_phase.at("lopsided").words, 500u);
    EXPECT_EQ(m.stats().critical.words, 500u);
}

TEST(Machine, PeakMemoryTracked) {
    Machine m(3);
    m.run([&](Rank& r) {
        r.note_memory(static_cast<std::uint64_t>(100 * (r.id() + 1)));
        r.note_memory(50);  // lower: must not shrink the peak
    });
    EXPECT_EQ(m.stats().peak_memory_words, 300u);
}

TEST(Machine, FaultPlanQueries) {
    FaultPlan plan;
    plan.add("mul", 3);
    plan.add("mul", 5);
    plan.add("eval", 1);
    EXPECT_TRUE(plan.fails_at("mul", 3));
    EXPECT_FALSE(plan.fails_at("mul", 4));
    EXPECT_EQ(plan.failing_at("mul").size(), 2u);
    EXPECT_EQ(plan.failing_at("nothing").size(), 0u);
    EXPECT_EQ(plan.total_faults(), 3u);
    EXPECT_FALSE(plan.empty());

    Machine m(6, plan);
    std::atomic<int> fault_hits{0};
    m.run([&](Rank& r) {
        if (r.phase("eval")) fault_hits.fetch_add(1);
        if (r.phase("mul")) fault_hits.fetch_add(1);
    });
    EXPECT_EQ(fault_hits.load(), 3);
}

TEST(Machine, RethrowsRankExceptions) {
    Machine m(3);
    EXPECT_THROW(m.run([&](Rank& r) {
        if (r.id() == 1) throw std::runtime_error("boom");
    }),
                 std::runtime_error);
}

TEST(Machine, FailsFastWhenOneRankThrows) {
    // Rank 1 dies while rank 0 is blocked receiving from it: the run must
    // rethrow rank 1's error promptly instead of waiting out the timeout.
    Machine m(2);
    m.set_recv_timeout(std::chrono::milliseconds(30000));
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(m.run([&](Rank& r) {
        if (r.id() == 1) throw std::runtime_error("boom");
        (void)r.recv(1, 1);  // would block forever
    }),
                 std::runtime_error);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
              10);
}

TEST(Machine, StatsResetBetweenRuns) {
    Machine m(2);
    m.run([&](Rank& r) {
        r.phase("a");
        if (r.id() == 0) r.send(1, 1, {1, 2, 3});
        if (r.id() == 1) (void)r.recv(0, 1);
    });
    EXPECT_EQ(m.stats().aggregate.words, 3u);
    m.run([&](Rank&) {});
    EXPECT_EQ(m.stats().aggregate.words, 0u);
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

class CollectivesSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesSweep, BroadcastDeliversToAll) {
    const int p = GetParam();
    Machine m(p);
    m.run([&](Rank& r) {
        std::vector<BigInt> data;
        if (r.id() == 0) data = {BigInt{17}, BigInt{-4}};
        bcast(r, whole_world(p), 0, data, 1);
        ASSERT_EQ(data.size(), 2u);
        EXPECT_EQ(data[0], BigInt{17});
        EXPECT_EQ(data[1], BigInt{-4});
    });
}

TEST_P(CollectivesSweep, ReduceSumsEverything) {
    const int p = GetParam();
    Machine m(p);
    m.run([&](Rank& r) {
        std::vector<BigInt> local{BigInt{r.id() + 1}, BigInt{2 * (r.id() + 1)}};
        auto sum = reduce_sum(r, whole_world(p), 0, local, 2);
        if (r.id() == 0) {
            const std::int64_t total = static_cast<std::int64_t>(p) * (p + 1) / 2;
            ASSERT_EQ(sum.size(), 2u);
            EXPECT_EQ(sum[0], BigInt{total});
            EXPECT_EQ(sum[1], BigInt{2 * total});
        } else {
            EXPECT_TRUE(sum.empty());
        }
    });
}

TEST_P(CollectivesSweep, AllReduceAgreesEverywhere) {
    const int p = GetParam();
    Machine m(p);
    m.run([&](Rank& r) {
        auto sum = allreduce_sum(r, whole_world(p),
                                 {BigInt{r.id()}}, 3);
        const std::int64_t total = static_cast<std::int64_t>(p) * (p - 1) / 2;
        ASSERT_EQ(sum.size(), 1u);
        EXPECT_EQ(sum[0], BigInt{total});
    });
}

TEST_P(CollectivesSweep, GatherCollectsInOrder) {
    const int p = GetParam();
    Machine m(p);
    m.run([&](Rank& r) {
        auto all = gather(r, whole_world(p), 0, {BigInt{10 * r.id()}}, 4);
        if (r.id() == 0) {
            ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
            for (int i = 0; i < p; ++i) {
                ASSERT_EQ(all[static_cast<std::size_t>(i)].size(), 1u);
                EXPECT_EQ(all[static_cast<std::size_t>(i)][0], BigInt{10 * i});
            }
        }
    });
}

TEST_P(CollectivesSweep, AllGatherDeliversEverywhere) {
    const int p = GetParam();
    Machine m(p);
    m.run([&](Rank& r) {
        // Variable-length contributions stress the length framing.
        std::vector<BigInt> mine(static_cast<std::size_t>(r.id() % 3 + 1),
                                 BigInt{r.id()});
        auto all = allgather(r, whole_world(p), mine, 5);
        ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) {
            ASSERT_EQ(all[static_cast<std::size_t>(i)].size(),
                      static_cast<std::size_t>(i % 3 + 1));
            EXPECT_EQ(all[static_cast<std::size_t>(i)][0], BigInt{i});
        }
    });
}

TEST_P(CollectivesSweep, AllToAllTransposes) {
    const int p = GetParam();
    Machine m(p);
    m.run([&](Rank& r) {
        std::vector<std::vector<BigInt>> blocks(static_cast<std::size_t>(p));
        for (int d = 0; d < p; ++d) {
            blocks[static_cast<std::size_t>(d)] = {BigInt{r.id() * 100 + d}};
        }
        auto got = alltoall(r, whole_world(p), std::move(blocks), 6);
        ASSERT_EQ(got.size(), static_cast<std::size_t>(p));
        for (int s = 0; s < p; ++s) {
            ASSERT_EQ(got[static_cast<std::size_t>(s)].size(), 1u);
            EXPECT_EQ(got[static_cast<std::size_t>(s)][0],
                      BigInt{s * 100 + r.id()});
        }
    });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, CollectivesSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 9, 16));

TEST(Collectives, SubgroupsOperateConcurrently) {
    // Two disjoint column groups doing different reduces at once.
    Machine m(8);
    m.run([&](Rank& r) {
        Group g = r.id() < 4 ? Group::strided(0, 4) : Group::strided(4, 4);
        auto sum = allreduce_sum(r, g, {BigInt{1}}, 7);
        EXPECT_EQ(sum[0], BigInt{4});
    });
}

TEST(Collectives, StridedGroupReduce) {
    // Row/column-style strided membership, non-zero root.
    Machine m(9);
    m.run([&](Rank& r) {
        // Columns of a 3x3 grid: {c, c+3, c+6}.
        const int col = r.id() % 3;
        Group g = Group::strided(col, 3, 3);
        auto sum = reduce_sum(r, g, col + 3, {BigInt{r.id()}}, 8);
        if (r.id() == col + 3) {
            EXPECT_EQ(sum[0], BigInt{col + (col + 3) + (col + 6)});
        }
    });
}

TEST(Collectives, BarrierCompletes) {
    Machine m(5);
    m.run([&](Rank& r) { barrier(r, whole_world(5), 9); });
}

TEST(Collectives, LatencyScalesLogarithmically) {
    // Lemma 2.5 shape check: broadcast latency along the critical path grows
    // like log P, not P.
    auto latency_for = [](int p) {
        Machine m(p);
        m.run([&](Rank& r) {
            r.phase("bcast");
            std::vector<BigInt> data{BigInt{1}};
            bcast(r, Group::strided(0, p), 0, data, 1);
        });
        return m.stats().per_phase.at("bcast").latency;
    };
    const auto l8 = latency_for(8);
    const auto l64 = latency_for(64);
    EXPECT_LE(l64, 2 * l8 + 2);  // log growth: 64 ranks ~ double of 8 ranks
    EXPECT_GT(l64, l8);
}

TEST(Collectives, ReduceWordCostMatchesLemma) {
    // Lemma 2.5: a reduce of W words moves O(W) words per rank along the
    // critical path (binomial tree: every rank sends its vector once).
    const int p = 8;
    const std::size_t w = 64;
    Machine m(p);
    m.run([&](Rank& r) {
        r.phase("reduce");
        std::vector<BigInt> local(w, BigInt{1});
        (void)reduce_sum(r, Group::strided(0, p), 0, std::move(local), 2);
    });
    const auto& c = m.stats().per_phase.at("reduce");
    // Each BigInt{1} serializes to 3 words; critical path sees ~2 child
    // messages worth of traffic at the busiest internal node.
    EXPECT_GE(c.words, w * 3);
    EXPECT_LE(c.words, w * 3 * 4);
}


TEST(Machine, ThreadPoolReusesWorkerThreadsAcrossRuns) {
    Machine m(4);
    std::array<std::thread::id, 4> first{};
    std::array<std::thread::id, 4> second{};
    m.run([&](Rank& r) {
        first[static_cast<std::size_t>(r.id())] = std::this_thread::get_id();
    });
    m.run([&](Rank& r) {
        second[static_cast<std::size_t>(r.id())] = std::this_thread::get_id();
    });
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(first[i], second[i]) << "rank " << i;
    }
    // Distinct ranks must still be distinct threads.
    for (std::size_t i = 1; i < 4; ++i) EXPECT_NE(first[0], first[i]);
}

TEST(Machine, SpawnPerRunUsesFreshThreads) {
    // A fresh Machine per run spawns and joins its own workers.
    std::array<std::thread::id, 2> first{};
    std::array<std::thread::id, 2> second{};
    {
        Machine m(2);
        m.run([&](Rank& r) {
            first[static_cast<std::size_t>(r.id())] = std::this_thread::get_id();
        });
    }
    {
        Machine m(2);
        m.run([&](Rank& r) {
            second[static_cast<std::size_t>(r.id())] =
                std::this_thread::get_id();
        });
    }
    // Joined-and-respawned threads may reuse an id, so only sanity-check
    // that the run completed with distinct per-rank threads.
    EXPECT_NE(first[0], first[1]);
    EXPECT_NE(second[0], second[1]);
}

TEST(Machine, MailboxesCleanAcrossPooledRuns) {
    Machine m(2);
    // First run deliberately leaves an unconsumed message in rank 1's box.
    m.run([&](Rank& r) {
        if (r.id() == 0) r.send(1, 5, {111, 222});
    });
    // Fresh mailboxes per run: the second run must see only its own traffic.
    m.run([&](Rank& r) {
        if (r.id() == 0) {
            r.send(1, 5, {7});
        } else {
            EXPECT_EQ(r.recv(0, 5), (std::vector<std::uint64_t>{7}));
        }
    });
}

TEST(Machine, PooledRunsAccumulateStatsLikeSpawned) {
    const auto body = [](Rank& r) {
        r.phase("work");
        BigInt x{r.id() + 1};
        for (int i = 0; i < 4; ++i) x += x;
        r.note_memory(4);
    };
    // One Machine reused across runs (parked workers) against a fresh
    // Machine per run (fresh workers): the executor must be invisible to
    // the cost model.
    Machine pooled(3);
    pooled.run(body);
    pooled.run(body);
    RunStats spawned;
    for (int run = 0; run < 2; ++run) {
        Machine fresh(3);
        fresh.run(body);
        spawned = fresh.stats();
    }
    EXPECT_EQ(pooled.stats().aggregate.flops, spawned.aggregate.flops);
    EXPECT_EQ(pooled.stats().critical.flops, spawned.critical.flops);
}

}  // namespace
}  // namespace ftmul
