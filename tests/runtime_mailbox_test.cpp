// Sharded-mailbox unit tests: FIFO per (src, tag), tag separation, slot
// reclamation (the seed's queue-map leak, fixed), table growth, abort and
// timeout behavior — plus machine-level regression tests that pin the
// bounded-slot guarantee and compare against the seed plane kept in
// bench/seed_plane.hpp, plugged in through the Machine's mailbox factory.

#include "runtime/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "../bench/seed_plane.hpp"
#include "runtime/machine.hpp"

namespace ftmul {
namespace {

using namespace std::chrono_literals;

PayloadBuf make_payload(std::initializer_list<std::uint64_t> words) {
    return PayloadBuf::adopt(std::vector<std::uint64_t>(words));
}

TEST(Mailbox, FifoPerSourceAndTag) {
    Mailbox mb(4);
    mb.push(1, 7, make_payload({10}));
    mb.push(1, 7, make_payload({20}));
    mb.push(2, 7, make_payload({30}));
    EXPECT_EQ(mb.pop(1, 7, 1s)[0], 10u);
    EXPECT_EQ(mb.pop(2, 7, 1s)[0], 30u);
    EXPECT_EQ(mb.pop(1, 7, 1s)[0], 20u);
}

TEST(Mailbox, TagsMatchIndependently) {
    Mailbox mb(2);
    mb.push(0, 1, make_payload({111}));
    mb.push(0, 2, make_payload({222}));
    // Pop in reverse tag order: matching must be by tag, not arrival.
    EXPECT_EQ(mb.pop(0, 2, 1s)[0], 222u);
    EXPECT_EQ(mb.pop(0, 1, 1s)[0], 111u);
}

TEST(Mailbox, DrainedSlotsAreReclaimed) {
    // The seed's std::map mailbox never erased a (src, tag) queue: the map
    // grew by one node per distinct tag for the life of the run. The
    // sharded table must reclaim drained slots, keeping live_slots bounded
    // by the number of *in-flight* pairs, not the number ever used.
    Mailbox mb(2);
    for (int tag = 0; tag < 1000; ++tag) {
        mb.push(1, tag, make_payload({static_cast<std::uint64_t>(tag)}));
        EXPECT_EQ(mb.pop(1, tag, 1s)[0], static_cast<std::uint64_t>(tag));
        ASSERT_EQ(mb.live_slots(), 0u) << "slot leaked at tag " << tag;
    }
}

TEST(Mailbox, LegacyMailboxLeaksSlotsByDesign) {
    // Documents the baseline the fix is measured against: the preserved
    // legacy transport holds one map node per (src, tag) pair forever.
    seed::LegacyMailbox mb;
    for (int tag = 0; tag < 100; ++tag) {
        mb.push(1, tag, make_payload({1}));
        mb.pop(1, tag, 1s);
    }
    EXPECT_EQ(mb.live_slots(), 100u);
}

TEST(Mailbox, TableGrowsUnderManyConcurrentTags) {
    // More in-flight tags than the initial table size forces growth and
    // rehash; everything must still match and then reclaim down to zero.
    Mailbox mb(2);
    constexpr int kTags = 64;
    for (int tag = 0; tag < kTags; ++tag) {
        mb.push(0, tag, make_payload({static_cast<std::uint64_t>(tag * 3)}));
    }
    EXPECT_EQ(mb.live_slots(), static_cast<std::size_t>(kTags));
    for (int tag = kTags - 1; tag >= 0; --tag) {
        EXPECT_EQ(mb.pop(0, tag, 1s)[0], static_cast<std::uint64_t>(tag * 3));
    }
    EXPECT_EQ(mb.live_slots(), 0u);
}

TEST(Mailbox, PushBatchPreservesPerTagFifo) {
    Mailbox mb(2);
    std::vector<TaggedPayload> batch;
    batch.push_back({5, make_payload({1})});
    batch.push_back({6, make_payload({2})});
    batch.push_back({5, make_payload({3})});
    mb.push_batch(1, std::move(batch));
    EXPECT_EQ(mb.pop(1, 5, 1s)[0], 1u);
    EXPECT_EQ(mb.pop(1, 5, 1s)[0], 3u);
    EXPECT_EQ(mb.pop(1, 6, 1s)[0], 2u);
    EXPECT_EQ(mb.live_slots(), 0u);
}

TEST(Mailbox, PopTimesOut) {
    Mailbox mb(2);
    EXPECT_THROW(mb.pop(0, 9, 10ms), RecvTimeout);
}

TEST(Mailbox, AbortWakesBlockedPop) {
    Mailbox mb(2);
    std::thread killer([&] {
        std::this_thread::sleep_for(20ms);
        mb.abort();
    });
    EXPECT_THROW(mb.pop(1, 3, 10s), RunAborted);
    killer.join();
    // Aborted mailboxes stay aborted: a later pop fails immediately.
    EXPECT_THROW(mb.pop(1, 3, 10s), RunAborted);
}

// ---------------------------------------------------------------------------
// Machine-level regression: bounded slots and identical semantics under
// both data planes.
// ---------------------------------------------------------------------------

TEST(MachineDataPlane, PooledMailboxSlotsStayBounded) {
    Machine m(2);
    m.run([&](Rank& r) {
        const int peer = 1 - r.id();
        for (int round = 0; round < 200; ++round) {
            // A fresh tag every round: the seed mailbox would hold 200 dead
            // queues per source by the end.
            r.send(peer, round, {static_cast<std::uint64_t>(round)});
            auto got = r.recv(peer, round);
            ASSERT_EQ(got.size(), 1u);
            ASSERT_EQ(got[0], static_cast<std::uint64_t>(round));
        }
    });
    EXPECT_EQ(m.mailbox_live_slots(0), 0u);
    EXPECT_EQ(m.mailbox_live_slots(1), 0u);
}

TEST(MachineDataPlane, LegacyPlaneRoundTripStillWorks) {
    Machine m(2, {}, seed::make_mailbox);
    m.run([&](Rank& r) {
        if (r.id() == 0) {
            r.send(1, 7, {10, 20, 30});
            EXPECT_EQ(r.recv(1, 8), (std::vector<std::uint64_t>{99}));
        } else {
            EXPECT_EQ(r.recv(0, 7), (std::vector<std::uint64_t>{10, 20, 30}));
            r.send(0, 8, {99});
        }
    });
    // The legacy mailbox keeps its drained queues — that is the behavior
    // the sharded rewrite fixes and the A/B benchmark measures against.
    EXPECT_EQ(m.mailbox_live_slots(0), 1u);
    EXPECT_EQ(m.mailbox_live_slots(1), 1u);
}

TEST(MachineDataPlane, ChargesAreIdenticalAcrossPlanes) {
    // The whole point of the data-plane work: wall-clock changes, the cost
    // model does not. Run the same exchange under both planes and compare
    // every deterministic counter.
    auto run_once = [](bool legacy) {
        Machine m(4, {}, legacy ? seed::make_mailbox : MailboxFactory{});
        m.run([&](Rank& r) {
            const int peer = r.id() ^ 1;
            std::vector<BigInt> vals;
            for (int i = 0; i < 5; ++i) {
                vals.push_back(BigInt{(r.id() + 1) * 1000 + i} << 700);
            }
            if (legacy) {
                seed::send_bigints(r, peer, 3, vals);
            } else {
                r.send_bigints(peer, 3, vals);
            }
            auto got = legacy ? seed::recv_bigints(r, peer, 3)
                              : r.recv_bigints(peer, 3);
            EXPECT_EQ(got.size(), vals.size());
        });
        return m.stats();
    };
    const RunStats pooled = run_once(/*legacy=*/false);
    const RunStats legacy = run_once(/*legacy=*/true);
    EXPECT_EQ(pooled.aggregate.msgs, legacy.aggregate.msgs);
    EXPECT_EQ(pooled.aggregate.words, legacy.aggregate.words);
    EXPECT_EQ(pooled.aggregate.flops, legacy.aggregate.flops);
    EXPECT_EQ(pooled.critical.msgs, legacy.critical.msgs);
    EXPECT_EQ(pooled.critical.words, legacy.critical.words);
    EXPECT_EQ(pooled.critical.latency, legacy.critical.latency);
}

TEST(MachineDataPlane, MailboxFactoryBuildsEveryRanksBoxPerRun) {
    constexpr int kWorld = 3;
    std::atomic<int> built{0};
    std::atomic<int> wrong_world{0};
    Machine m(kWorld, {}, [&](int world) {
        if (world != kWorld) wrong_world.fetch_add(1);
        built.fetch_add(1);
        return seed::make_mailbox(world);
    });
    EXPECT_EQ(built.load(), kWorld);
    for (int run = 1; run <= 2; ++run) {
        m.run([&](Rank& r) {
            r.send((r.id() + 1) % kWorld, 4, {7});
            EXPECT_EQ(r.recv((r.id() + kWorld - 1) % kWorld, 4),
                      (std::vector<std::uint64_t>{7}));
        });
        EXPECT_EQ(built.load(), kWorld * (run + 1))
            << "each run starts on fresh boxes from the factory";
        // The injected seed boxes carried the ring: each kept its one
        // drained (src, tag) queue, which the sharded Mailbox reclaims.
        for (int r = 0; r < kWorld; ++r) {
            EXPECT_EQ(m.mailbox_live_slots(r), 1u) << "rank " << r;
        }
    }
    EXPECT_EQ(wrong_world.load(), 0);
}

}  // namespace
}  // namespace ftmul
