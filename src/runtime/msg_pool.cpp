#include "runtime/msg_pool.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <mutex>

namespace ftmul {

namespace {

struct PoolStats {
    std::atomic<std::uint64_t> acquires{0};
    std::atomic<std::uint64_t> local_hits{0};
    std::atomic<std::uint64_t> global_hits{0};
    std::atomic<std::uint64_t> fresh_allocs{0};
    std::atomic<std::uint64_t> returns{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> poison_failures{0};
};
PoolStats g_stats;

constexpr std::size_t kNumClasses = MsgPool::kMaxClass + 1;
constexpr std::size_t kLocalDepth = 4;  ///< buffers cached per thread/class

/// Shared spill-pool depth per class. Small classes go deep — an all-to-all
/// over P ranks keeps O(P^2) payloads in flight, and the producing thread
/// never gets its buffers back directly (consumers return them), so the
/// spill pool is the recycling path that keeps steady-state allocations at
/// zero. Large classes stay shallow to bound worst-case hoarding (class 12
/// = 4096 words = 32 KiB; 512 of those is 16 MiB). The depths start at the
/// historical fixed 512/64 split and grow adaptively as Machines report
/// their world sizes (note_world_size).
std::atomic<std::size_t> g_depth_small{512};
std::atomic<std::size_t> g_depth_large{64};

std::size_t global_depth(std::size_t c) {
    return c <= MsgPool::kSmallDepthClassMax
               ? g_depth_small.load(std::memory_order_relaxed)
               : g_depth_large.load(std::memory_order_relaxed);
}

void raise_to(std::atomic<std::size_t>& depth, std::size_t v) noexcept {
    std::size_t cur = depth.load(std::memory_order_relaxed);
    while (cur < v && !depth.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
}

/// Generation counter: trim() bumps it, and thread caches from an older
/// generation drop their contents on next use instead of serving stale
/// buffers the test/bench wanted gone.
std::atomic<std::uint64_t> g_generation{0};

std::size_t class_of(std::size_t capacity_words) {
    const std::size_t c = capacity_words <= 1
                              ? 0
                              : static_cast<std::size_t>(
                                    std::bit_width(capacity_words - 1));
    return c < MsgPool::kMinClass ? MsgPool::kMinClass : c;
}

struct GlobalClass {
    std::mutex mu;
    std::vector<std::vector<std::uint64_t>> bufs;
};

GlobalClass& global_class(std::size_t c) {
    static GlobalClass classes[kNumClasses];
    return classes[c];
}

struct ThreadCache {
    std::uint64_t generation = 0;
    std::size_t count[kNumClasses] = {};
    std::vector<std::uint64_t> bufs[kNumClasses][kLocalDepth];

    void refresh() {
        const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
        if (generation == gen) return;
        generation = gen;
        for (std::size_t c = 0; c < kNumClasses; ++c) {
            for (std::size_t i = 0; i < count[c]; ++i) {
                std::vector<std::uint64_t>().swap(bufs[c][i]);
            }
            count[c] = 0;
        }
    }
};

ThreadCache& thread_cache() {
    static thread_local ThreadCache cache;
    return cache;
}

/// Cached buffers sit in the pool holding a short poison pattern (inside
/// size(), so sanitizer container annotations stay happy). acquire()
/// verifies the pattern before reuse: a mismatch means someone wrote
/// through a stale pointer after returning the buffer.
void poison(std::vector<std::uint64_t>& v) {
    const std::size_t n =
        std::min(v.capacity(), MsgPool::kPoisonPrefixWords);
    v.assign(n, MsgPool::kPoisonWord);
}

bool poison_intact(std::vector<std::uint64_t>& v) {
    bool ok = true;
    for (const std::uint64_t w : v) ok = ok && w == MsgPool::kPoisonWord;
    v.clear();
    return ok;
}

}  // namespace

PayloadBuf::~PayloadBuf() { give_back(); }

void PayloadBuf::give_back() noexcept {
    if (!pooled_) return;
    pooled_ = false;
    MsgPool::instance().give_back(std::move(v_));
}

MsgPool& MsgPool::instance() {
    static MsgPool pool;
    return pool;
}

void MsgPool::trim() {
    g_generation.fetch_add(1, std::memory_order_acq_rel);
    for (std::size_t c = 0; c < kNumClasses; ++c) {
        GlobalClass& gc = global_class(c);
        std::lock_guard<std::mutex> lock(gc.mu);
        gc.bufs.clear();
    }
}

PayloadBuf MsgPool::acquire(std::size_t capacity_words) {
    g_stats.acquires.fetch_add(1, std::memory_order_relaxed);
    const std::size_t c = class_of(capacity_words);
    if (c <= kMaxClass) {
        ThreadCache& cache = thread_cache();
        cache.refresh();
        if (cache.count[c] > 0) {
            std::vector<std::uint64_t> v =
                std::move(cache.bufs[c][--cache.count[c]]);
            g_stats.local_hits.fetch_add(1, std::memory_order_relaxed);
            if (!poison_intact(v)) {
                g_stats.poison_failures.fetch_add(1,
                                                  std::memory_order_relaxed);
                assert(false && "MsgPool: payload written after return");
            }
            return PayloadBuf(std::move(v), /*pooled=*/true);
        }
        GlobalClass& gc = global_class(c);
        std::unique_lock<std::mutex> lock(gc.mu);
        if (!gc.bufs.empty()) {
            std::vector<std::uint64_t> v = std::move(gc.bufs.back());
            gc.bufs.pop_back();
            lock.unlock();
            g_stats.global_hits.fetch_add(1, std::memory_order_relaxed);
            if (!poison_intact(v)) {
                g_stats.poison_failures.fetch_add(1,
                                                  std::memory_order_relaxed);
                assert(false && "MsgPool: payload written after return");
            }
            return PayloadBuf(std::move(v), /*pooled=*/true);
        }
    }
    g_stats.fresh_allocs.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::uint64_t> v;
    v.reserve(c <= kMaxClass ? (std::size_t{1} << c) : capacity_words);
    return PayloadBuf(std::move(v), /*pooled=*/true);
}

void MsgPool::give_back(std::vector<std::uint64_t>&& v) noexcept {
    const std::size_t cap = v.capacity();
    const std::size_t c = class_of(cap);
    // Only cache buffers whose capacity is exactly a pooled class size, so
    // every buffer in class c can serve any request rounded up to 2^c.
    if (c > kMaxClass || cap != (std::size_t{1} << c)) {
        g_stats.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    poison(v);
    ThreadCache& cache = thread_cache();
    cache.refresh();
    if (cache.count[c] < kLocalDepth) {
        cache.bufs[c][cache.count[c]++] = std::move(v);
        g_stats.returns.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    GlobalClass& gc = global_class(c);
    {
        std::lock_guard<std::mutex> lock(gc.mu);
        if (gc.bufs.size() < global_depth(c)) {
            gc.bufs.push_back(std::move(v));
            g_stats.returns.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
    g_stats.dropped.fetch_add(1, std::memory_order_relaxed);
}

void MsgPool::note_world_size(int world) noexcept {
    if (world <= 0) return;
    const auto w = static_cast<std::size_t>(world);
    // 2*P^2 small buffers covers a full all-to-all's in-flight frames with
    // slack for the return path; 4*P bounds large-buffer hoarding. Growth
    // is monotonic and floored at the historical 512/64, so small worlds
    // keep the exact pre-adaptive behavior.
    raise_to(g_depth_small, std::min<std::size_t>(2 * w * w, 8192));
    raise_to(g_depth_large, std::min<std::size_t>(4 * w, 512));
}

std::pair<std::size_t, std::size_t> MsgPool::spill_depths() noexcept {
    return {g_depth_small.load(std::memory_order_relaxed),
            g_depth_large.load(std::memory_order_relaxed)};
}

MsgPool::Stats MsgPool::stats() noexcept {
    Stats s;
    s.acquires = g_stats.acquires.load(std::memory_order_relaxed);
    s.local_hits = g_stats.local_hits.load(std::memory_order_relaxed);
    s.global_hits = g_stats.global_hits.load(std::memory_order_relaxed);
    s.fresh_allocs = g_stats.fresh_allocs.load(std::memory_order_relaxed);
    s.returns = g_stats.returns.load(std::memory_order_relaxed);
    s.dropped = g_stats.dropped.load(std::memory_order_relaxed);
    s.poison_failures =
        g_stats.poison_failures.load(std::memory_order_relaxed);
    return s;
}

void MsgPool::reset_stats() noexcept {
    g_stats.acquires.store(0, std::memory_order_relaxed);
    g_stats.local_hits.store(0, std::memory_order_relaxed);
    g_stats.global_hits.store(0, std::memory_order_relaxed);
    g_stats.fresh_allocs.store(0, std::memory_order_relaxed);
    g_stats.returns.store(0, std::memory_order_relaxed);
    g_stats.dropped.store(0, std::memory_order_relaxed);
    g_stats.poison_failures.store(0, std::memory_order_relaxed);
}

}  // namespace ftmul
