#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "runtime/costs.hpp"
#include "runtime/events.hpp"
#include "runtime/fault.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/metrics.hpp"
#include "runtime/msg_pool.hpp"
#include "runtime/transport.hpp"

namespace ftmul {

class Machine;
class ThreadPool;

/// Per-processor execution context handed to the SPMD body: identity,
/// point-to-point messaging, phase/cost bookkeeping and fault queries.
///
/// Phases: algorithms call phase("name") at every bulk-synchronous step.
/// Arithmetic performed since the previous phase switch (measured through
/// the BigInt OpsCounter) and all traffic is charged to the current phase;
/// the Machine later combines equal-named phases across ranks with max() to
/// produce critical-path totals.
class Rank {
public:
    int id() const noexcept { return id_; }
    int size() const noexcept { return size_; }

    /// Begin a new cost phase. Also the fault trigger point: returns true
    /// when the fault plan kills this rank *here* — the caller must then act
    /// as a failed processor (drop data, skip work until its replacement is
    /// re-filled by the algorithm's recovery protocol).
    bool phase(std::string_view name);

    /// Does the plan fail this rank at the given phase (without switching)?
    bool fails_at(std::string_view name) const;

    const FaultPlan& fault_plan() const;

    void send(int dst, int tag, std::vector<std::uint64_t> payload);
    std::vector<std::uint64_t> recv(int src, int tag);

    /// Zero-copy core of send/recv: payloads travel as pooled PayloadBufs
    /// end to end. The vector overloads above wrap these for compatibility
    /// (they adopt/release the storage, bypassing the pool).
    void send_buf(int dst, int tag, PayloadBuf payload);
    PayloadBuf recv_buf(int src, int tag);

    /// Deliver several messages to one destination under a single mailbox
    /// lock acquisition and wakeup. Each element is charged and logged as
    /// its own message, in order — the cost model sees the exact same
    /// msgs/words/events as the equivalent send loop; only the transport
    /// is fused.
    void send_batch(int dst, std::vector<TaggedPayload> msgs);

    /// Typed conveniences over the word-level wire format.
    void send_bigints(int dst, int tag, std::span<const BigInt> values);
    std::vector<BigInt> recv_bigints(int src, int tag);

    /// Frame @p values into a (pooled) payload without sending — for
    /// assembling send_batch message lists. Charges nothing.
    PayloadBuf frame_bigints(std::span<const BigInt> values);

    /// send_batch over BigInt spans: one batched delivery to @p dst, one
    /// logical (charged) message per (tag, values) item.
    void send_bigints_batch(
        int dst,
        std::span<const std::pair<int, std::span<const BigInt>>> items);

    /// Record a local working-set high-water mark, in words.
    void note_memory(std::uint64_t words);

    /// Record a Fault event at the current phase without switching phases.
    /// phase() already emits one automatically when the plan kills this rank;
    /// this entry point is for algorithms that halt a rank without reaching
    /// its scheduled phase (e.g. replication dooms the whole replica).
    void note_fault();

    /// Bracket a recovery protocol for event accounting: RecoveryBegin is
    /// emitted now, RecoveryEnd on end_recovery() with the F/BW/L this rank
    /// spent in between (across any phase switches the recovery spans) and
    /// the dead ranks being rebuilt. No-ops when the event log is off.
    void begin_recovery(std::span<const int> dead_ranks);
    void end_recovery();

    /// Charge extra critical-path message rounds (used by tree collectives,
    /// which are log-depth even though each rank sends O(1) messages).
    void add_latency(std::uint64_t rounds) { current_.latency += rounds; }

    /// Raw access for tests.
    const CostCounters& current_counters() const noexcept { return current_; }

private:
    friend class Machine;
    Rank(Machine& m, int id, int size) : machine_(m), id_(id), size_(size) {}

    void flush_flops();
    void close_phase();
    void emit(Event e);

    /// The ungated blocking receive (mailbox pop + deadlock diagnostic +
    /// MessageRecv event) — one *frame*, which under the transport guard may
    /// be a duplicate, out of order, corrupt or a drop tombstone.
    PayloadBuf recv_frame(int src, int tag);

    /// Guarded receive: verify / dedup / reorder-stash frames and drive the
    /// NACK/retransmit protocol until the in-order intact payload for the
    /// (src, tag) stream is in hand. Throws TransportFault when the bounded
    /// recovery fails.
    PayloadBuf recv_buf_guarded(int src, int tag);

    /// Recover sealed frame (src -> this, tag, seq) from the sender-side
    /// retention store, charging the NACK round trip; verified + stripped.
    PayloadBuf fetch_retransmit(int src, int tag, std::uint64_t seq,
                                int& attempts, TransportFaultKind why);

    /// The injection shim between send and Mailbox::push: applies the
    /// armed TransportFaultModel's action for this frame, then delivers.
    void deliver_frame(int dst, int tag, PayloadBuf frame);

    /// Release reorder-stashed frames (in program order). Runs before any
    /// blocking operation and at body end, so a deferred frame can never
    /// deadlock its receiver.
    void flush_reorder_stash();

    /// Advance the (src, tag) stream's contiguous-delivery watermark to
    /// @p delivered frames: apply the cumulative ack to the sender-side
    /// retention (evicting every frame below the watermark) and, when the
    /// un-published backlog reaches the machine's ack interval, charge a
    /// standalone ack frame to this rank — the flow-control path for
    /// streams with no reverse traffic to piggyback on.
    void advance_watermark(int src, int tag, std::uint64_t delivered);

    /// The ack word to piggyback on a frame headed to @p dst: the reverse
    /// stream dst -> this with the largest un-published delivered backlog
    /// (lowest tag on ties), marked published. 0 when nothing to report.
    std::uint64_t pick_piggyback_ack(int dst);

    void emit_transport(const char* note, int peer, int tag,
                        std::uint64_t words);

    Machine& machine_;
    int id_;
    int size_;
    std::string current_phase_ = "startup";
    CostCounters current_{};
    CostCounters lifetime_{};  ///< closed-phase total, for recovery deltas
    std::vector<std::pair<std::string, CostCounters>> ledger_;
    std::uint64_t peak_memory_ = 0;
    bool in_recovery_ = false;
    CostCounters recovery_base_{};
    std::vector<int> recovery_dead_;

    // Transport-guard state, touched only by this rank's thread.
    std::map<std::pair<int, int>, std::uint64_t> send_seq_;  ///< (dst,tag)
    std::map<std::pair<int, int>, std::uint64_t> recv_seq_;  ///< (src,tag)
    /// Watermark last published (piggybacked or standalone) per incoming
    /// (src, tag) stream; the gap to recv_seq_ is the un-acked backlog.
    std::map<std::pair<int, int>, std::uint64_t> ack_published_;
    std::map<int, std::uint64_t> link_msg_;  ///< frames shimmed, per dst
    /// Verified in-order-pending payloads that arrived ahead of their
    /// stream position, keyed (src, tag, seq); already stripped.
    std::map<std::tuple<int, int, std::uint64_t>, PayloadBuf> recv_stash_;
    /// Frames the shim's Reorder action deferred, in program order.
    std::vector<std::pair<std::pair<int, int>, PayloadBuf>> reorder_stash_;
};

/// A simulated P-processor distributed-memory machine: each rank runs the
/// SPMD body on its own thread with a private mailbox; there is no shared
/// algorithm state. Rank r of every run executes on the same parked worker
/// of a persistent pool. Costs are gathered per rank per phase and combined
/// into RunStats after the join.
class Machine {
public:
    /// @param world_size number of processors (standard + code processors).
    /// @param plan deterministic hard-fault schedule (may be empty).
    /// @param make_mailbox builds each rank's mailbox at construction and at
    ///        every run start; empty = the sharded Mailbox.
    explicit Machine(int world_size, FaultPlan plan = {},
                     MailboxFactory make_mailbox = {});
    ~Machine();

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    int size() const noexcept { return size_; }
    const FaultPlan& fault_plan() const noexcept { return plan_; }

    /// Execute the SPMD body on every rank and join. Any exception thrown by
    /// a rank (other than a scheduled fault) is rethrown here.
    void run(const std::function<void(Rank&)>& body);

    /// Costs of the last run.
    const RunStats& stats() const noexcept { return stats_; }

    /// Deadlock-detection receive timeout (default 60 s).
    void set_recv_timeout(std::chrono::milliseconds t) { timeout_ = t; }

    /// Live (src, tag) queue slots in @p rank's mailbox — regression hook
    /// for the seed's slot-leak bug (drained slots must be reclaimed).
    std::size_t mailbox_live_slots(int rank) const;

    /// Arm (or disarm) the frame-integrity transport guard for subsequent
    /// runs (default off — the exact seed data plane, byte-identical
    /// charges). When on, every frame is sealed with the five-word
    /// magic/checksum/seq/route/ack trailer (runtime/transport.hpp),
    /// retained on the sender side for retransmission, verified +
    /// deduplicated + reordered back into stream order on receive, and the
    /// trailer words are charged to the cost model deterministically.
    void set_transport_guard(bool on) noexcept { transport_guard_ = on; }
    bool transport_guard() const noexcept { return transport_guard_; }

    /// Arm the transport-fault injection shim (between send and
    /// Mailbox::push) for subsequent runs; implies the guard. Pass an
    /// inactive model to disarm injection but keep the guard.
    void set_transport_faults(const TransportFaultModel& model);
    const TransportFaultModel& transport_faults() const noexcept {
        return transport_model_;
    }

    /// Hard cap on frames retained per (src, dst, tag) stream for
    /// retransmission (default 64). With the ack window this is a fallback
    /// bound only: the receiver's cumulative watermark normally evicts
    /// retained frames as soon as they are contiguously delivered, so live
    /// retention tracks the true in-flight window. Recovering a frame the
    /// cap already evicted raises TransportFault(RetainMiss).
    void set_transport_retain_depth(std::size_t depth) noexcept {
        retain_depth_ = depth;
    }

    /// Cap on each receiver-side stash (the reorder deferral stash and the
    /// ahead-of-order receive stash, independently; default 4096 entries).
    /// Exceeding it raises TransportFault(StashOverflow) instead of growing
    /// without limit under adversarial reorder rates.
    void set_transport_stash_limit(std::size_t limit) noexcept {
        stash_limit_ = limit;
    }

    /// Un-published backlog (delivered frames not yet covered by a
    /// piggybacked ack) at which a receiver charges a standalone ack frame
    /// for a quiet stream (default 16; keep it below the retain depth so
    /// the fallback cap never has to evict un-acked frames).
    void set_transport_ack_interval(std::uint64_t interval) noexcept {
        ack_interval_ = interval == 0 ? 1 : interval;
    }

    /// Ack-propagation delay in rounds (default 0 = instant): retention
    /// eviction applies the receiver's watermark minus this lag, modeling
    /// acknowledgments that take a configurable number of rounds to reach
    /// the sender. The NACK/retransmit path only ever gains margin from the
    /// lag — frames survive in retention at least as long as before.
    void set_transport_ack_delay(std::uint64_t rounds) noexcept {
        ack_delay_ = rounds;
    }
    std::uint64_t transport_ack_delay() const noexcept { return ack_delay_; }

    /// Retention stream map nodes currently live across all shards — the
    /// accounting hook for the stream-node leak fixed in this layer: the
    /// ack watermark erases drained nodes, and the post-run sweep releases
    /// the rest, so after run() this is always 0.
    std::size_t live_streams() const;

    /// High-water marks of the live retention footprint during the last (or
    /// running) run. Maintained with relaxed atomics — exact for
    /// well-synchronized traffic (the tests' ping-pong ledgers), a close
    /// bound otherwise — and therefore surfaced here and through the
    /// metrics gauges, never in byte-compared reports.
    std::uint64_t transport_retained_peak_frames() const noexcept;
    std::uint64_t transport_retained_peak_words() const noexcept;

    /// Transport accounting of the last (or running) run; zeroed at every
    /// run start, all zeros when the guard is off.
    TransportStats transport_stats() const noexcept;

    /// Turn on the structured event log for subsequent runs (see
    /// runtime/events.hpp); cleared and re-armed at each run start. The log
    /// is shared so results can outlive the machine.
    EventLog& enable_event_log();
    std::shared_ptr<EventLog> event_log() const noexcept { return events_; }

private:
    friend class Rank;

    /// One rank's parked receive, for the deadlock diagnostic: which peer
    /// and tag it waits on, at which phase. Registered around Mailbox::pop
    /// so a timing-out rank can name every blocked peer instead of only
    /// itself.
    struct BlockedRecv {
        bool blocked = false;
        int src = -1;
        int tag = 0;
        std::string phase;
    };

    void note_blocked(int rank, int src, int tag, const std::string& phase);
    void note_unblocked(int rank);

    /// Human-readable snapshot of every currently blocked rank, one line
    /// per rank; fills @p blocked_ranks with their ids (ascending).
    std::string deadlock_diagnostic(std::vector<int>& blocked_ranks) const;

    MailboxBase& mailbox(int r) {
        return *mailboxes_[static_cast<std::size_t>(r)];
    }

    /// Sender-side retention for the NACK/retransmit protocol: one shard
    /// per destination rank, holding the not-yet-acknowledged sealed frames
    /// of every (src, tag) stream into that destination (retain_depth_ is
    /// the fallback cap). Senders append under the shard mutex; a
    /// recovering receiver copies out by seq; the receiver's cumulative
    /// watermark evicts below-watermark frames and erases drained stream
    /// nodes. Payloads live in pooled PayloadBufs so retention recycles
    /// MsgPool storage instead of deep-copying into fresh vectors; a
    /// payload-free frame is stored as a seq-only entry (empty buf) and its
    /// seal is reconstructed on demand — its only future use is
    /// seq-targeted retransmit bookkeeping.
    struct RetainedFrame {
        std::uint64_t seq;
        PayloadBuf buf;  ///< sealed (trailer included); empty = seq-only
    };
    struct RetainStream {
        std::uint64_t acked = 0;  ///< watermark: frames below are evicted
        std::deque<RetainedFrame> frames;
    };
    struct RetainShard {
        mutable std::mutex mu;
        std::map<std::pair<int, int>, RetainStream> streams;
    };
    void retain_frame(int src, int dst, int tag, std::uint64_t seq,
                      std::span<const std::uint64_t> words);
    std::optional<std::vector<std::uint64_t>> retained_copy(
        int src, int dst, int tag, std::uint64_t seq);

    /// Apply a receiver's cumulative watermark to the retention stream
    /// (src -> dst, tag): evict every retained frame with seq below
    /// @p delivered and erase the stream node once drained.
    void ack_retained(int src, int dst, int tag, std::uint64_t delivered);

    /// Drop all retained frames and stream nodes, rolling the live-footprint
    /// gauges back to zero. Runs at run start/end and on destruction so
    /// retention state and gauge contributions never outlive their run.
    void release_retention();

    /// Relaxed counters behind transport_stats(); reset per run.
    struct TransportCounterBlock;

    int size_;
    FaultPlan plan_;
    std::vector<std::unique_ptr<MailboxBase>> mailboxes_;
    MailboxFactory make_mailbox_;
    mutable std::mutex blocked_mu_;
    std::vector<BlockedRecv> blocked_;
    RunStats stats_;
    std::chrono::milliseconds timeout_{60000};
    std::shared_ptr<EventLog> events_;
    std::unique_ptr<ThreadPool> pool_;  ///< lazily created on first run()

    bool transport_guard_ = false;
    TransportFaultModel transport_model_{};
    std::size_t retain_depth_ = 64;
    std::size_t stash_limit_ = 4096;
    std::uint64_t ack_interval_ = 16;
    std::uint64_t ack_delay_ = 0;
    std::vector<std::unique_ptr<RetainShard>> retain_;  ///< per destination
    std::unique_ptr<TransportCounterBlock> tcounters_;

    // Process-wide instruments, resolved once per machine so the
    // per-message hot path is a relaxed load plus a sharded fetch_add.
    Counter metric_msgs_;
    Counter metric_msg_words_;
    Gauge metric_retained_words_;       ///< live retained words (all shards)
    Gauge metric_retained_words_peak_;  ///< high-water of the same
    Gauge metric_retained_frames_peak_;
    Gauge metric_acked_seqs_;           ///< cumulative watermark coverage
    Histogram metric_blocked_us_;
    Counter metric_runs_;
    Histogram metric_run_us_;
    Histogram metric_recovery_flops_;
    Histogram metric_recovery_words_;
};

}  // namespace ftmul
