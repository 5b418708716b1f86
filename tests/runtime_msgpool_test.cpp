// MsgPool unit tests: size-class rounding, thread-local vs. shared-pool
// recycling, trim(), adaptive spill depths, stats accounting and the
// use-after-return poison check. Complements the machine-level data-plane
// tests in runtime_mailbox_test.cpp.

#include "runtime/msg_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace ftmul {
namespace {

/// Tests observe deltas against a snapshot, not absolute counts: the pool
/// and its stats are process-wide and other tests in this binary use them.
struct StatsDelta {
    MsgPool::Stats base = MsgPool::stats();
    std::uint64_t acquires() const { return MsgPool::stats().acquires - base.acquires; }
    std::uint64_t local_hits() const { return MsgPool::stats().local_hits - base.local_hits; }
    std::uint64_t global_hits() const { return MsgPool::stats().global_hits - base.global_hits; }
    std::uint64_t fresh_allocs() const { return MsgPool::stats().fresh_allocs - base.fresh_allocs; }
    std::uint64_t returns() const { return MsgPool::stats().returns - base.returns; }
    std::uint64_t dropped() const { return MsgPool::stats().dropped - base.dropped; }
    std::uint64_t poison_failures() const { return MsgPool::stats().poison_failures - base.poison_failures; }
};

TEST(MsgPool, SizeClassRounding) {
    MsgPool& pool = MsgPool::instance();
    pool.trim();
    // Every capacity request is rounded up to a power of two, never below
    // the minimum class.
    EXPECT_EQ(pool.acquire(1).storage().capacity(),
              std::size_t{1} << MsgPool::kMinClass);
    EXPECT_EQ(pool.acquire(33).storage().capacity(), std::size_t{64});
    EXPECT_EQ(pool.acquire(64).storage().capacity(), std::size_t{64});
    EXPECT_EQ(pool.acquire(65).storage().capacity(), std::size_t{128});
}

TEST(MsgPool, RecycleServesThreadLocalCache) {
    MsgPool& pool = MsgPool::instance();
    pool.trim();
    StatsDelta d;
    { PayloadBuf b = pool.acquire(100); }  // returned at scope exit
    EXPECT_EQ(d.fresh_allocs(), 1u);
    EXPECT_EQ(d.returns(), 1u);
    PayloadBuf again = pool.acquire(100);
    EXPECT_EQ(d.local_hits(), 1u);
    EXPECT_EQ(d.fresh_allocs(), 1u) << "recycle must not allocate";
    EXPECT_TRUE(again.pooled());
    EXPECT_TRUE(again.empty()) << "recycled buffers come back cleared";
}

TEST(MsgPool, SteadyStateAllocatesNothing) {
    MsgPool& pool = MsgPool::instance();
    pool.trim();
    { PayloadBuf warm = pool.acquire(4096); }
    StatsDelta d;
    for (int i = 0; i < 1000; ++i) {
        PayloadBuf b = pool.acquire(4096);
        b.storage().push_back(static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(d.fresh_allocs(), 0u);
    EXPECT_EQ(d.local_hits(), 1000u);
}

TEST(MsgPool, CrossThreadReturnReachesSpillPool) {
    MsgPool& pool = MsgPool::instance();
    pool.trim();
    StatsDelta d;
    // A worker acquires-and-returns more buffers than its local depth can
    // hold; the overflow lands in the shared spill pool where this thread
    // can pick it up.
    std::thread worker([&] {
        std::vector<PayloadBuf> held;
        for (int i = 0; i < 8; ++i) held.push_back(pool.acquire(512));
        held.clear();
    });
    worker.join();
    PayloadBuf b = pool.acquire(512);
    EXPECT_EQ(d.global_hits(), 1u);
    EXPECT_EQ(d.poison_failures(), 0u);
}

TEST(MsgPool, TrimDropsCachedBuffers) {
    MsgPool& pool = MsgPool::instance();
    pool.trim();
    { PayloadBuf b = pool.acquire(2048); }
    pool.trim();
    StatsDelta d;
    PayloadBuf b = pool.acquire(2048);
    EXPECT_EQ(d.fresh_allocs(), 1u) << "trim must drop the cached buffer";
    EXPECT_EQ(d.local_hits() + d.global_hits(), 0u);
}

TEST(MsgPool, AdoptedAndReleasedBuffersBypassThePool) {
    MsgPool& pool = MsgPool::instance();
    pool.trim();
    StatsDelta d;
    {
        PayloadBuf a = PayloadBuf::adopt({1, 2, 3});
        EXPECT_FALSE(a.pooled());
    }
    {
        PayloadBuf b = pool.acquire(128);
        std::vector<std::uint64_t> v = b.release();
        EXPECT_FALSE(b.pooled());
        v.push_back(7);  // caller owns the storage outright now
    }
    EXPECT_EQ(d.returns(), 0u);
}

TEST(MsgPool, ReturnedBuffersArePoisoned) {
    MsgPool& pool = MsgPool::instance();
    pool.trim();
    PayloadBuf b = pool.acquire(64);
    b.storage().assign(64, 42);
    // The pool keeps the storage alive on the thread free list, so reading
    // through the stale pointer observes the poison prefix it wrote.
    const std::uint64_t* stale = b.storage().data();
    { PayloadBuf sink = std::move(b); }
    for (std::size_t i = 0; i < MsgPool::kPoisonPrefixWords; ++i) {
        EXPECT_EQ(stale[i], MsgPool::kPoisonWord) << i;
    }
#ifdef NDEBUG
    // Corrupt the poison pattern the way a use-after-return bug would; the
    // next acquire of this class must detect it. (Debug builds assert-abort
    // on detection, so the counter check only runs with NDEBUG.)
    StatsDelta d;
    const_cast<std::uint64_t*>(stale)[0] = 0x1234;
    PayloadBuf again = pool.acquire(64);
    EXPECT_EQ(d.poison_failures(), 1u);
    pool.trim();
#endif
}

TEST(MsgPool, AdaptiveSpillDepthsGrowMonotonicallyWithWorldSize) {
    const auto [small0, large0] = MsgPool::spill_depths();

    // Nonsense worlds change nothing.
    MsgPool::instance().note_world_size(0);
    MsgPool::instance().note_world_size(-3);
    EXPECT_EQ(MsgPool::spill_depths(), std::make_pair(small0, large0));

    // A big machine raises both depths (2*P^2 small / 4*P large, capped);
    // a smaller one afterwards never lowers them again.
    MsgPool::instance().note_world_size(27);
    const auto [small1, large1] = MsgPool::spill_depths();
    EXPECT_GE(small1, std::min<std::size_t>(2 * 27 * 27, 8192));
    EXPECT_GE(large1, std::min<std::size_t>(4 * 27, 512));
    EXPECT_GE(small1, small0);
    EXPECT_GE(large1, large0);

    MsgPool::instance().note_world_size(3);
    EXPECT_EQ(MsgPool::spill_depths(), std::make_pair(small1, large1));
}

}  // namespace
}  // namespace ftmul
