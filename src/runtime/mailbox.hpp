#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/msg_pool.hpp"

namespace ftmul {

/// Thrown when a receive waits past the deadlock-detection timeout; turns a
/// communication-protocol bug into a test failure instead of a hang.
class RecvTimeout : public std::runtime_error {
public:
    explicit RecvTimeout(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown out of a blocked receive when another rank aborted the run, so the
/// whole machine fails fast instead of cascading into timeouts.
class RunAborted : public std::runtime_error {
public:
    RunAborted() : std::runtime_error("run aborted by another rank") {}
};

/// One logical message queued for delivery: the matching tag plus its
/// payload buffer.
struct TaggedPayload {
    int tag = 0;
    PayloadBuf buf;
};

/// One frame still queued after a run finished, with its (src, tag)
/// routing — the unit of the transport guard's post-run residue sweep.
struct ResidueFrame {
    int src = 0;
    int tag = 0;
    PayloadBuf buf;
};

/// One rank's incoming-message queue. Messages are matched by (source, tag)
/// and delivered FIFO per matching pair, like an MPI receive queue.
/// push_batch delivers several messages from one sender under a single lock
/// acquisition and wakeup — the transport under the fused collectives.
class MailboxBase {
public:
    virtual ~MailboxBase() = default;

    virtual void push(int src, int tag, PayloadBuf payload) = 0;
    virtual void push_batch(int src, std::vector<TaggedPayload> items) = 0;

    /// Wake any blocked pop and make it throw RunAborted.
    virtual void abort() = 0;

    virtual PayloadBuf pop(int src, int tag,
                           std::chrono::milliseconds timeout) = 0;

    /// Live (src, tag) queue slots currently held — drained slots must be
    /// reclaimed, so this stays bounded by the number of in-flight
    /// (src, tag) pairs no matter how many send/recv cycles have run.
    virtual std::size_t live_slots() const = 0;

    /// Remove and return every frame still queued, in deterministic
    /// (src, tag, FIFO) order. The transport guard sweeps this residue
    /// after the rank threads joined: duplicate frames of single-message
    /// streams and fire-and-forget traffic no recv consumed land here and
    /// still get inspected and attributed.
    virtual std::vector<ResidueFrame> drain_residue() = 0;
};

/// The zero-copy data plane's mailbox: sharded per source rank (sends are
/// single-producer per (src, dst) in this machine), each shard guarding a
/// small flat open-addressed tag table with its own mutex. Compared to the
/// seed's single-mutex std::map<(src,tag)> design this removes the global
/// lock, the per-pop O(log n) lookup and the red-black-tree node churn, and
/// it reclaims drained queue slots instead of leaking them for the life of
/// the run.
class Mailbox final : public MailboxBase {
public:
    explicit Mailbox(int world_size);
    ~Mailbox() override;

    void push(int src, int tag, PayloadBuf payload) override;
    void push_batch(int src, std::vector<TaggedPayload> items) override;
    void abort() override;
    PayloadBuf pop(int src, int tag,
                   std::chrono::milliseconds timeout) override;
    std::size_t live_slots() const override;
    std::vector<ResidueFrame> drain_residue() override;

private:
    struct Shard;
    struct Slot;

    Slot* find_slot(Shard& s, int tag) const;
    Slot& find_or_insert(Shard& s, int tag);
    void erase_slot(Shard& s, std::size_t idx);
    static void grow_table(Shard& s);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<bool> aborted_{false};
};

/// Builds one rank's mailbox for a machine of the given world size — the
/// Machine's single transport injection point (tests and benches plug in
/// alternative MailboxBase implementations through it).
using MailboxFactory =
    std::function<std::unique_ptr<MailboxBase>(int world_size)>;

}  // namespace ftmul
