#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace ftmul {

class MsgPool;

/// Move-only owner of one message payload: a recycled word buffer handed out
/// by MsgPool. Destruction returns the storage to the pool (thread-local
/// free list first, global spill pool second), so the steady-state
/// send/recv path performs no heap allocation. Buffers wrapped with adopt()
/// or moved out with release() are "unpooled": they free/keep their storage
/// normally, which is how the vector-based send()/recv() overloads and
/// BigInt limb adoption route around the pool.
class PayloadBuf {
public:
    PayloadBuf() = default;
    ~PayloadBuf();

    PayloadBuf(PayloadBuf&& o) noexcept
        : v_(std::move(o.v_)), pooled_(std::exchange(o.pooled_, false)) {}
    PayloadBuf& operator=(PayloadBuf&& o) noexcept {
        if (this != &o) {
            give_back();
            v_ = std::move(o.v_);
            pooled_ = std::exchange(o.pooled_, false);
        }
        return *this;
    }
    PayloadBuf(const PayloadBuf&) = delete;
    PayloadBuf& operator=(const PayloadBuf&) = delete;

    /// Wrap an existing vector without pooling its storage.
    static PayloadBuf adopt(std::vector<std::uint64_t> words) {
        return PayloadBuf(std::move(words), /*pooled=*/false);
    }

    std::uint64_t* data() noexcept { return v_.data(); }
    const std::uint64_t* data() const noexcept { return v_.data(); }
    std::size_t size() const noexcept { return v_.size(); }
    bool empty() const noexcept { return v_.empty(); }
    std::uint64_t operator[](std::size_t i) const noexcept { return v_[i]; }
    std::uint64_t& operator[](std::size_t i) noexcept { return v_[i]; }
    std::span<const std::uint64_t> words() const noexcept {
        return {v_.data(), v_.size()};
    }

    void append(const std::uint64_t* p, std::size_t n) {
        v_.insert(v_.end(), p, p + n);
    }

    /// Direct access to the backing vector, for the serializer's writer
    /// path (bigint/serialize.hpp appends into a plain vector so the bigint
    /// layer never depends on the runtime). The capacity stays pooled.
    std::vector<std::uint64_t>& storage() noexcept { return v_; }

    /// Move the storage out; the buffer becomes empty and unpooled, and the
    /// extracted vector is owned by the caller (pool recycling ends here —
    /// used by the vector recv() overload and by BigInt limb adoption).
    std::vector<std::uint64_t> release() noexcept {
        pooled_ = false;
        return std::move(v_);
    }

    bool pooled() const noexcept { return pooled_; }

private:
    friend class MsgPool;
    PayloadBuf(std::vector<std::uint64_t>&& v, bool pooled)
        : v_(std::move(v)), pooled_(pooled) {}

    void give_back() noexcept;

    std::vector<std::uint64_t> v_;
    bool pooled_ = false;
};

/// Process-wide pool of size-classed, recycled payload buffers —
/// LimbArena's design applied to the message data plane. Each size class
/// holds buffers of capacity 2^c words; a thread first hits its own small
/// free list (no lock), then the shared spill pool (per-class mutex), and
/// only allocates fresh storage when both are empty. Returned buffers are
/// prefix-poisoned so a use-after-return write is detected at the next
/// acquire (always on: the check touches a bounded number of words).
///
/// Statistics are plain relaxed atomics (one increment per message, not per
/// word) and are always live so the A/B benchmark and the acceptance tests
/// can verify the allocation count without enabling the metrics registry;
/// the registry mirrors them through a snapshot collector.
class MsgPool {
public:
    /// The process-wide pool used by Machine/Rank and the collectives.
    static MsgPool& instance();

    /// An empty buffer with capacity for at least @p capacity_words.
    PayloadBuf acquire(std::size_t capacity_words);

    /// A buffer of exactly @p size_words zero-initialized words.
    PayloadBuf acquire_sized(std::size_t size_words) {
        PayloadBuf b = acquire(size_words);
        b.storage().resize(size_words);
        return b;
    }

    /// Drop every cached buffer (thread caches are dropped lazily as their
    /// threads next touch the pool; the shared spill pool empties now).
    void trim();

    /// Adaptive spill-depth sizing: a P-rank all-to-all keeps O(P^2) small
    /// frames in flight, so Machine construction reports its world size and
    /// the per-class spill depths grow monotonically to cover the largest
    /// machine seen — small classes toward 2*P^2 (capped), large classes
    /// toward 4*P — never below the fixed 512/64 the pool started with.
    void note_world_size(int world) noexcept;

    /// Current (small-class, large-class) spill depths.
    static std::pair<std::size_t, std::size_t> spill_depths() noexcept;

    struct Stats {
        std::uint64_t acquires = 0;      ///< pooled acquire() calls
        std::uint64_t local_hits = 0;    ///< served by the thread free list
        std::uint64_t global_hits = 0;   ///< served by the shared spill pool
        std::uint64_t fresh_allocs = 0;  ///< heap allocations (pool misses)
        std::uint64_t returns = 0;       ///< buffers handed back for reuse
        std::uint64_t dropped = 0;       ///< returns freed (full/oversize)
        std::uint64_t poison_failures = 0;  ///< use-after-return detections
    };
    static Stats stats() noexcept;
    static void reset_stats() noexcept;

    // Size classes: capacities 2^kMinClass .. 2^kMaxClass words; larger
    // buffers are allocated exactly and never cached.
    static constexpr std::size_t kMinClass = 5;   // 32 words = 256 B
    static constexpr std::size_t kMaxClass = 22;  // 4 Mi words = 32 MiB
    /// Largest class counted as "small" for spill-depth purposes (4096
    /// words = 32 KiB; deep pools of larger buffers would hoard memory).
    static constexpr std::size_t kSmallDepthClassMax = 12;
    static constexpr std::uint64_t kPoisonWord = 0xDEADBEEFDEADBEEFull;
    static constexpr std::size_t kPoisonPrefixWords = 16;

private:
    friend class PayloadBuf;
    MsgPool() = default;
    void give_back(std::vector<std::uint64_t>&& v) noexcept;
};

}  // namespace ftmul
