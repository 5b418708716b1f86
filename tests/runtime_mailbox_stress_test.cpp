// Concurrency stress for the sharded mailbox + message pool, written to be
// run under ThreadSanitizer (the CI tsan job builds and runs this binary):
// many concurrent senders per mailbox, aborts racing blocked pops, and
// pooled buffers recycling across threads with the poison check proving no
// payload is touched after it is handed back.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "../bench/seed_plane.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/machine.hpp"
#include "runtime/msg_pool.hpp"

namespace ftmul {
namespace {

using namespace std::chrono_literals;

TEST(MailboxStress, ConcurrentSendersDrainInOrder) {
    // One consumer, world_size-1 producers, each producer its own source
    // rank (the machine's invariant: sends are single-producer per
    // (src, dst) pair). Every (src, tag) stream must arrive FIFO and every
    // slot must be reclaimed once drained.
    constexpr int kSources = 7;
    constexpr int kTags = 5;
    constexpr int kPerStream = 50;
    Mailbox mb(kSources + 1);

    std::vector<std::thread> senders;
    for (int src = 1; src <= kSources; ++src) {
        senders.emplace_back([&mb, src] {
            for (int seq = 0; seq < kPerStream; ++seq) {
                for (int tag = 0; tag < kTags; ++tag) {
                    PayloadBuf b = MsgPool::instance().acquire(64);
                    b.storage().assign(
                        8, static_cast<std::uint64_t>(src) << 32 |
                               static_cast<std::uint64_t>(tag) << 16 |
                               static_cast<std::uint64_t>(seq));
                    mb.push(src, tag, std::move(b));
                }
            }
        });
    }
    for (int src = 1; src <= kSources; ++src) {
        for (int tag = 0; tag < kTags; ++tag) {
            for (int seq = 0; seq < kPerStream; ++seq) {
                PayloadBuf got = mb.pop(src, tag, 30s);
                ASSERT_EQ(got.size(), 8u);
                const std::uint64_t want =
                    static_cast<std::uint64_t>(src) << 32 |
                    static_cast<std::uint64_t>(tag) << 16 |
                    static_cast<std::uint64_t>(seq);
                ASSERT_EQ(got[0], want);
            }
        }
    }
    for (auto& t : senders) t.join();
    EXPECT_EQ(mb.live_slots(), 0u);
}

TEST(MailboxStress, AbortRacesBlockedPops) {
    // Consumers park on sources that will never deliver; abort() must wake
    // every one of them with RunAborted, never a timeout or a hang.
    Mailbox mb(8);
    std::atomic<int> aborted{0};
    std::vector<std::thread> consumers;
    for (int src = 1; src < 8; ++src) {
        consumers.emplace_back([&, src] {
            try {
                mb.pop(src, 42, 30s);
            } catch (const RunAborted&) {
                aborted.fetch_add(1);
            }
        });
    }
    std::this_thread::sleep_for(10ms);
    mb.abort();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(aborted.load(), 7);
}

TEST(MailboxStress, PooledBuffersRecycleAcrossThreadsUnpoisoned) {
    // Payloads are produced on sender threads, consumed (and returned to
    // the pool) on this thread, then recycled back to senders through the
    // shared spill pool. The pool's always-on poison check converts any
    // write-after-return into a counted failure; this loop must finish with
    // zero.
    const std::uint64_t poison_before = MsgPool::stats().poison_failures;
    constexpr int kRounds = 400;
    Mailbox mb(3);
    std::thread sender_a([&] {
        for (int i = 0; i < kRounds; ++i) {
            PayloadBuf b = MsgPool::instance().acquire(256);
            b.storage().assign(200, static_cast<std::uint64_t>(i));
            mb.push(1, 0, std::move(b));
        }
    });
    std::thread sender_b([&] {
        for (int i = 0; i < kRounds; ++i) {
            PayloadBuf b = MsgPool::instance().acquire(256);
            b.storage().assign(200, ~static_cast<std::uint64_t>(i));
            mb.push(2, 0, std::move(b));
        }
    });
    for (int i = 0; i < kRounds; ++i) {
        PayloadBuf a = mb.pop(1, 0, 30s);
        ASSERT_EQ(a[0], static_cast<std::uint64_t>(i));
        PayloadBuf b = mb.pop(2, 0, 30s);
        ASSERT_EQ(b[0], ~static_cast<std::uint64_t>(i));
        // Both buffers die here and go back to the pool for the senders.
    }
    sender_a.join();
    sender_b.join();
    EXPECT_EQ(MsgPool::stats().poison_failures, poison_before);
    EXPECT_EQ(mb.live_slots(), 0u);
}

TEST(MailboxStress, MachineScaleMixedTraffic) {
    // Full-machine smoke under the stress binary: all ranks exchange
    // BigInt frames and raw words simultaneously on overlapping tags —
    // plenty of cross-shard contention for TSan to chew on.
    Machine m(8);
    m.run([&](Rank& r) {
        std::vector<BigInt> vals;
        for (int i = 0; i < 4; ++i) {
            vals.push_back(BigInt{static_cast<std::int64_t>(r.id() * 10 + i)}
                           << 900);
        }
        for (int peer = 0; peer < r.size(); ++peer) {
            if (peer == r.id()) continue;
            r.send_bigints(peer, 1, vals);
            r.send(peer, 2, {static_cast<std::uint64_t>(r.id())});
        }
        for (int peer = 0; peer < r.size(); ++peer) {
            if (peer == r.id()) continue;
            auto got = r.recv_bigints(peer, 1);
            ASSERT_EQ(got.size(), 4u);
            ASSERT_EQ(got[3], BigInt{static_cast<std::int64_t>(peer * 10 + 3)}
                                  << 900);
            auto raw = r.recv(peer, 2);
            ASSERT_EQ(raw[0], static_cast<std::uint64_t>(peer));
        }
    });
    for (int rk = 0; rk < 8; ++rk) {
        EXPECT_EQ(m.mailbox_live_slots(rk), 0u);
    }
}

TEST(MailboxStress, GuardedRetransmitTrafficUnderContention) {
    // The retransmit protocol under load: all ranks exchange all-to-all
    // traffic while the injection shim corrupts, drops, duplicates and
    // reorders frames — sender retention shards, NACK round-trips and the
    // receiver's stash all race across 8 threads for TSan to check. Every
    // payload must still arrive byte-exact and every injected loss must be
    // accounted for (in-stream or by the post-run residue sweep).
    Machine m(8);
    m.set_transport_guard(true);
    TransportFaultModel model;
    model.seed = 4242;
    model.corrupt_rate = 0.1;
    model.drop_rate = 0.1;
    model.dup_rate = 0.1;
    model.reorder_rate = 0.1;
    m.set_transport_faults(model);
    m.run([&](Rank& r) {
        constexpr int kRounds = 20;
        for (int round = 0; round < kRounds; ++round) {
            for (int peer = 0; peer < r.size(); ++peer) {
                if (peer == r.id()) continue;
                r.send(peer, 3,
                       {static_cast<std::uint64_t>(r.id()),
                        static_cast<std::uint64_t>(round)});
            }
            for (int peer = 0; peer < r.size(); ++peer) {
                if (peer == r.id()) continue;
                auto got = r.recv(peer, 3);
                ASSERT_EQ(got.size(), 2u);
                ASSERT_EQ(got[0], static_cast<std::uint64_t>(peer));
                ASSERT_EQ(got[1], static_cast<std::uint64_t>(round));
            }
        }
    });
    const TransportStats s = m.transport_stats();
    EXPECT_GT(s.injected_total(), 0u);
    EXPECT_EQ(s.injected_corrupt + s.injected_drop, s.detected_losses());
    EXPECT_EQ(s.retransmits, s.injected_corrupt + s.injected_drop);
}

TEST(MailboxStress, DrainResidueReclaimsEverything) {
    // drain_residue must hand back every queued frame exactly once, in
    // deterministic (src, tag, FIFO) order, and leave zero live slots —
    // for both mailbox implementations.
    const auto fill = [](MailboxBase& mb) {
        for (int src = 2; src >= 0; --src) {
            for (int tag : {9, 4}) {
                for (std::uint64_t seq = 0; seq < 3; ++seq) {
                    PayloadBuf b = MsgPool::instance().acquire(8);
                    b.storage().assign(
                        1, static_cast<std::uint64_t>(src) << 32 |
                               static_cast<std::uint64_t>(tag) << 16 | seq);
                    mb.push(src, tag, std::move(b));
                }
            }
        }
    };
    Mailbox sharded(3);
    seed::LegacyMailbox legacy;
    for (MailboxBase* mb : {static_cast<MailboxBase*>(&sharded),
                            static_cast<MailboxBase*>(&legacy)}) {
        fill(*mb);
        const std::vector<ResidueFrame> out = mb->drain_residue();
        ASSERT_EQ(out.size(), 3u * 2u * 3u);
        std::size_t i = 0;
        for (int src = 0; src < 3; ++src) {
            for (int tag : {4, 9}) {  // ascending tag within a source
                for (std::uint64_t seq = 0; seq < 3; ++seq, ++i) {
                    EXPECT_EQ(out[i].src, src);
                    EXPECT_EQ(out[i].tag, tag);
                    ASSERT_EQ(out[i].buf.size(), 1u);
                    EXPECT_EQ(out[i].buf[0],
                              static_cast<std::uint64_t>(src) << 32 |
                                  static_cast<std::uint64_t>(tag) << 16 |
                                  seq);
                }
            }
        }
        EXPECT_EQ(mb->live_slots(), 0u);
        EXPECT_TRUE(mb->drain_residue().empty());
    }
}

}  // namespace
}  // namespace ftmul
