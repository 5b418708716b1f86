#pragma once

// The seed data plane as a header-only fixture: the A/B baseline that
// bench_collectives_ab times the production transport against, and the
// reference the mailbox regression tests compare with. It consists of
//
//   * LegacyMailbox — one mutex and condition variable over a std::map keyed
//     by (src, tag), payloads as plain vectors, drained entries never
//     reclaimed; plugged into a Machine through its mailbox factory:
//
//         Machine m(P, {}, seed::make_mailbox);
//
//   * BigInt messaging through an intermediate serialize_vec() vector on
//     send and a deserialize_vec() copy on receive (send_bigints /
//     recv_bigints);
//
//   * tree collectives that decode and re-serialize at every hop (bcast,
//     reduce_sum, allreduce_sum, gather, allgather).
//
// Every helper charges exactly what its production counterpart in
// runtime/machine.hpp and runtime/collectives.hpp charges: same messages,
// same words, same latency rounds.

#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/serialize.hpp"
#include "runtime/group.hpp"
#include "runtime/machine.hpp"
#include "runtime/mailbox.hpp"

namespace ftmul::seed {

/// The seed mailbox, preserved verbatim in behavior.
class LegacyMailbox final : public MailboxBase {
public:
    void push(int src, int tag, PayloadBuf payload) override {
        {
            std::lock_guard<std::mutex> lock(mu_);
            queues_[{src, tag}].push_back(std::move(payload).release());
        }
        cv_.notify_all();
    }

    void push_batch(int src, std::vector<TaggedPayload> items) override {
        for (TaggedPayload& it : items) {
            push(src, it.tag, std::move(it.buf));
        }
    }

    void abort() override {
        {
            std::lock_guard<std::mutex> lock(mu_);
            aborted_ = true;
        }
        cv_.notify_all();
    }

    PayloadBuf pop(int src, int tag,
                   std::chrono::milliseconds timeout) override {
        std::unique_lock<std::mutex> lock(mu_);
        const auto key = std::make_pair(src, tag);
        if (!cv_.wait_for(lock, timeout, [&] {
                if (aborted_) return true;
                auto it = queues_.find(key);
                return it != queues_.end() && !it->second.empty();
            })) {
            throw RecvTimeout("recv timed out waiting for src=" +
                              std::to_string(src) +
                              " tag=" + std::to_string(tag));
        }
        if (aborted_) throw RunAborted{};
        auto& q = queues_[key];
        PayloadBuf out = PayloadBuf::adopt(std::move(q.front()));
        q.pop_front();
        return out;
    }

    std::size_t live_slots() const override {
        std::lock_guard<std::mutex> lock(mu_);
        return queues_.size();
    }

    std::vector<ResidueFrame> drain_residue() override {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<ResidueFrame> out;
        // The map is ordered by (src, tag) already.
        for (auto& [key, q] : queues_) {
            for (auto& words : q) {
                out.push_back({key.first, key.second,
                               PayloadBuf::adopt(std::move(words))});
            }
        }
        queues_.clear();
        return out;
    }

private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::pair<int, int>, std::deque<std::vector<std::uint64_t>>>
        queues_;
    bool aborted_ = false;
};

/// MailboxFactory for Machine: every rank gets a LegacyMailbox.
inline std::unique_ptr<MailboxBase> make_mailbox(int /*world_size*/) {
    return std::make_unique<LegacyMailbox>();
}

/// Seed BigInt send: a fresh serialize_vec() vector per message.
inline void send_bigints(Rank& self, int dst, int tag,
                         std::span<const BigInt> values) {
    self.send(dst, tag, serialize_vec(values));
}

/// Seed BigInt receive: decode by copy, the payload is freed.
inline std::vector<BigInt> recv_bigints(Rank& self, int src, int tag) {
    return deserialize_vec(self.recv(src, tag));
}

namespace detail {

/// Binary tree over group positions rotated so the root sits at position 0
/// (the same shape the production collectives use).
struct Tree {
    const Group& g;
    int root;
    std::size_t self;

    Tree(const Group& group, int root_rank, int self_rank)
        : g(group),
          root(root_rank),
          self((group.index_of(self_rank) + group.size() -
                group.index_of(root_rank)) %
               group.size()) {}

    int rank_at(std::size_t pos) const {
        return g.members[(pos + g.index_of(root)) % g.size()];
    }
    bool has_parent() const { return self != 0; }
    int parent() const { return rank_at((self - 1) / 2); }
    std::vector<int> children() const {
        std::vector<int> out;
        if (2 * self + 1 < g.size()) out.push_back(rank_at(2 * self + 1));
        if (2 * self + 2 < g.size()) out.push_back(rank_at(2 * self + 2));
        return out;
    }
    std::uint64_t depth() const {
        return static_cast<std::uint64_t>(std::bit_width(g.size()));
    }
};

}  // namespace detail

/// Seed bcast: decode at every hop, re-serialize per child.
inline void bcast(Rank& self, const Group& g, int root,
                  std::vector<BigInt>& data, int tag) {
    const detail::Tree tree(g, root, self.id());
    if (tree.has_parent()) data = recv_bigints(self, tree.parent(), tag);
    for (int child : tree.children()) send_bigints(self, child, tag, data);
    self.add_latency(tree.depth());
}

inline std::vector<BigInt> reduce_sum(Rank& self, const Group& g, int root,
                                      std::vector<BigInt> local, int tag) {
    const detail::Tree tree(g, root, self.id());
    for (int child : tree.children()) {
        std::vector<BigInt> v = recv_bigints(self, child, tag);
        if (v.empty()) continue;
        if (local.empty()) {
            local = std::move(v);
            continue;
        }
        if (local.size() != v.size()) {
            throw std::invalid_argument("reduce: vector length mismatch");
        }
        for (std::size_t i = 0; i < local.size(); ++i) local[i] += v[i];
    }
    self.add_latency(tree.depth());
    if (tree.has_parent()) {
        send_bigints(self, tree.parent(), tag, local);
        return {};
    }
    return local;
}

inline std::vector<BigInt> allreduce_sum(Rank& self, const Group& g,
                                         std::vector<BigInt> local, int tag) {
    const int root = g.members.front();
    std::vector<BigInt> sum = reduce_sum(self, g, root, std::move(local), tag);
    bcast(self, g, root, sum, tag);
    return sum;
}

inline std::vector<std::vector<BigInt>> gather(Rank& self, const Group& g,
                                               int root,
                                               std::vector<BigInt> local,
                                               int tag) {
    if (self.id() != root) {
        send_bigints(self, root, tag, local);
        self.add_latency(1);
        return {};
    }
    std::vector<std::vector<BigInt>> out(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
        const int member = g.members[i];
        out[i] = member == root ? std::move(local)
                                : recv_bigints(self, member, tag);
    }
    self.add_latency(g.size() > 1 ? g.size() - 1 : 1);
    return out;
}

/// Seed allgather: gather, then two separate seed bcasts (section lengths
/// and the flat concatenation) where production fuses them into bcast_pair.
inline std::vector<std::vector<BigInt>> allgather(Rank& self, const Group& g,
                                                  std::vector<BigInt> local,
                                                  int tag) {
    const int root = g.members.front();
    auto gathered = gather(self, g, root, std::move(local), tag);
    std::vector<BigInt> flat;
    std::vector<BigInt> lengths;
    if (self.id() == root) {
        for (const auto& v : gathered) {
            lengths.emplace_back(static_cast<std::int64_t>(v.size()));
            flat.insert(flat.end(), v.begin(), v.end());
        }
    }
    bcast(self, g, root, lengths, tag);
    bcast(self, g, root, flat, tag);
    std::vector<std::vector<BigInt>> out(g.size());
    std::size_t pos = 0;
    for (std::size_t i = 0; i < g.size(); ++i) {
        const auto len = static_cast<std::size_t>(lengths[i].to_int64());
        out[i].assign(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                      flat.begin() + static_cast<std::ptrdiff_t>(pos + len));
        pos += len;
    }
    return out;
}

}  // namespace ftmul::seed
