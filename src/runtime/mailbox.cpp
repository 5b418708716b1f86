#include "runtime/mailbox.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <string>

namespace ftmul {

namespace {

constexpr std::size_t kInitialTableSize = 8;  // power of two

std::size_t tag_hash(int tag) {
    // Fibonacci hashing; tags are small dense ints per engine phase, so a
    // multiplicative mix spreads them across the table.
    return static_cast<std::size_t>(static_cast<std::uint64_t>(
                                        static_cast<std::uint32_t>(tag)) *
                                    0x9E3779B97F4A7C15ull >>
                                    32);
}

}  // namespace

/// One (src, tag) queue: a flat FIFO popped by index. `head` chases
/// `q.size()`; when they meet the slot is drained and erased, its vector
/// recycled through the shard's spare so steady-state queuing reuses the
/// same storage instead of reallocating per cycle.
struct Mailbox::Slot {
    int tag = 0;
    bool used = false;
    std::size_t head = 0;
    std::vector<PayloadBuf> q;
};

/// Per-source-rank shard. Sends are single-producer per (src, dst) in this
/// machine and each mailbox has a single owning receiver, so a shard sees
/// one pusher and one popper — the mutex is held for a handful of
/// instructions and never contended across sources.
struct Mailbox::Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Slot> table{kInitialTableSize};
    std::size_t used = 0;
    std::vector<PayloadBuf> spare;  ///< recycled queue storage
};

Mailbox::Mailbox(int world_size) {
    shards_.reserve(static_cast<std::size_t>(world_size));
    for (int i = 0; i < world_size; ++i) {
        shards_.push_back(std::make_unique<Shard>());
    }
}

Mailbox::~Mailbox() = default;

Mailbox::Slot* Mailbox::find_slot(Shard& s, int tag) const {
    const std::size_t mask = s.table.size() - 1;
    std::size_t i = tag_hash(tag) & mask;
    while (s.table[i].used) {
        if (s.table[i].tag == tag) return &s.table[i];
        i = (i + 1) & mask;
    }
    return nullptr;
}

void Mailbox::grow_table(Shard& s) {
    std::vector<Slot> old = std::move(s.table);
    s.table = std::vector<Slot>(old.size() * 2);
    const std::size_t mask = s.table.size() - 1;
    for (Slot& slot : old) {
        if (!slot.used) continue;
        std::size_t i = tag_hash(slot.tag) & mask;
        while (s.table[i].used) i = (i + 1) & mask;
        s.table[i] = std::move(slot);
    }
}

Mailbox::Slot& Mailbox::find_or_insert(Shard& s, int tag) {
    // Keep load factor under 1/2 so linear probes stay short.
    if ((s.used + 1) * 2 > s.table.size()) grow_table(s);
    const std::size_t mask = s.table.size() - 1;
    std::size_t i = tag_hash(tag) & mask;
    while (s.table[i].used) {
        if (s.table[i].tag == tag) return s.table[i];
        i = (i + 1) & mask;
    }
    Slot& slot = s.table[i];
    slot.tag = tag;
    slot.used = true;
    slot.head = 0;
    if (slot.q.capacity() == 0 && s.spare.capacity() != 0) {
        // Adopt recycled queue storage (capacity survives the clear()).
        slot.q = std::move(s.spare);
        s.spare = std::vector<PayloadBuf>();
    }
    ++s.used;
    return slot;
}

void Mailbox::erase_slot(Shard& s, std::size_t idx) {
    const std::size_t mask = s.table.size() - 1;
    // Recycle the drained queue's storage before vacating the slot.
    s.table[idx].q.clear();
    if (s.spare.capacity() < s.table[idx].q.capacity()) {
        s.spare = std::move(s.table[idx].q);
    }
    s.table[idx].q = std::vector<PayloadBuf>();
    s.table[idx].used = false;
    s.table[idx].head = 0;
    --s.used;
    // Backward-shift deletion keeps probe chains intact without tombstones:
    // walk the chain after idx and pull back any entry whose ideal position
    // precedes the hole.
    std::size_t hole = idx;
    std::size_t j = idx;
    while (true) {
        j = (j + 1) & mask;
        if (!s.table[j].used) break;
        const std::size_t ideal = tag_hash(s.table[j].tag) & mask;
        if (((j - ideal) & mask) >= ((j - hole) & mask)) {
            s.table[hole] = std::move(s.table[j]);
            s.table[j].used = false;
            s.table[j].q = std::vector<PayloadBuf>();
            s.table[j].head = 0;
            hole = j;
        }
    }
}

void Mailbox::push(int src, int tag, PayloadBuf payload) {
    Shard& s = *shards_[static_cast<std::size_t>(src)];
    {
        std::lock_guard<std::mutex> lock(s.mu);
        find_or_insert(s, tag).q.push_back(std::move(payload));
    }
    s.cv.notify_one();
}

void Mailbox::push_batch(int src, std::vector<TaggedPayload> items) {
    if (items.empty()) return;
    Shard& s = *shards_[static_cast<std::size_t>(src)];
    {
        std::lock_guard<std::mutex> lock(s.mu);
        for (TaggedPayload& it : items) {
            find_or_insert(s, it.tag).q.push_back(std::move(it.buf));
        }
    }
    s.cv.notify_one();
}

void Mailbox::abort() {
    aborted_.store(true, std::memory_order_release);
    for (auto& s : shards_) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->cv.notify_all();
    }
}

PayloadBuf Mailbox::pop(int src, int tag, std::chrono::milliseconds timeout) {
    Shard& s = *shards_[static_cast<std::size_t>(src)];
    std::unique_lock<std::mutex> lock(s.mu);
    Slot* slot = nullptr;
    if (!s.cv.wait_for(lock, timeout, [&] {
            if (aborted_.load(std::memory_order_acquire)) return true;
            slot = find_slot(s, tag);
            return slot != nullptr && slot->head < slot->q.size();
        })) {
        throw RecvTimeout("recv timed out waiting for src=" +
                          std::to_string(src) +
                          " tag=" + std::to_string(tag));
    }
    if (aborted_.load(std::memory_order_acquire)) throw RunAborted{};
    PayloadBuf out = std::move(slot->q[slot->head]);
    ++slot->head;
    if (slot->head == slot->q.size()) {
        erase_slot(s, static_cast<std::size_t>(slot - s.table.data()));
    }
    return out;
}

std::size_t Mailbox::live_slots() const {
    std::size_t total = 0;
    for (const auto& s : shards_) {
        std::lock_guard<std::mutex> lock(s->mu);
        total += s->used;
    }
    return total;
}

std::vector<ResidueFrame> Mailbox::drain_residue() {
    std::vector<ResidueFrame> out;
    for (std::size_t src = 0; src < shards_.size(); ++src) {
        Shard& s = *shards_[src];
        std::lock_guard<std::mutex> lock(s.mu);
        // The open-addressed table's slot order depends on hashing; collect
        // per shard and sort by tag so the sweep order is deterministic.
        std::vector<ResidueFrame> local;
        for (Slot& slot : s.table) {
            if (!slot.used) continue;
            for (std::size_t i = slot.head; i < slot.q.size(); ++i) {
                local.push_back({static_cast<int>(src), slot.tag,
                                 std::move(slot.q[i])});
            }
            slot.q.clear();
            slot.head = 0;
            slot.used = false;
        }
        s.used = 0;
        std::stable_sort(local.begin(), local.end(),
                         [](const ResidueFrame& a, const ResidueFrame& b) {
                             return a.tag < b.tag;
                         });
        for (ResidueFrame& f : local) out.push_back(std::move(f));
    }
    return out;
}

}  // namespace ftmul
