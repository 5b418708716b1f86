#include "runtime/machine.hpp"

#include <cassert>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "bigint/ops_counter.hpp"
#include "bigint/serialize.hpp"
#include "runtime/thread_pool.hpp"

#include <atomic>

namespace ftmul {

/// Transport accounting, one relaxed increment per observation; reset at
/// every run start and snapshot by transport_stats(). Heap-allocated (the
/// header only forward-declares it) so machine.hpp stays <atomic>-free.
struct Machine::TransportCounterBlock {
    std::atomic<std::uint64_t> sent_frames{0};
    std::atomic<std::uint64_t> header_words{0};
    std::atomic<std::uint64_t> injected_corrupt{0};
    std::atomic<std::uint64_t> injected_drop{0};
    std::atomic<std::uint64_t> injected_dup{0};
    std::atomic<std::uint64_t> injected_reorder{0};
    std::atomic<std::uint64_t> corrupt_detected{0};
    std::atomic<std::uint64_t> malformed_detected{0};
    std::atomic<std::uint64_t> drop_detected{0};
    std::atomic<std::uint64_t> dedup_hits{0};
    std::atomic<std::uint64_t> reorder_stashed{0};
    std::atomic<std::uint64_t> retransmits{0};
    std::atomic<std::uint64_t> retransmit_words{0};
    std::atomic<std::uint64_t> acked_seqs{0};
    std::atomic<std::uint64_t> acks_piggybacked{0};
    std::atomic<std::uint64_t> acks_standalone{0};
    std::atomic<std::uint64_t> retained_frames{0};
    std::atomic<std::uint64_t> retained_words{0};
    std::atomic<std::uint64_t> live_streams_end{0};
    // Live retention footprint and its high-water marks. Exact under
    // well-synchronized traffic, a close bound otherwise — surfaced through
    // the accessors and gauges, never in byte-compared reports.
    std::atomic<std::uint64_t> retained_cur_frames{0};
    std::atomic<std::uint64_t> retained_cur_words{0};
    std::atomic<std::uint64_t> retained_peak_frames{0};
    std::atomic<std::uint64_t> retained_peak_words{0};

    void reset() noexcept {
        sent_frames = 0;
        header_words = 0;
        injected_corrupt = 0;
        injected_drop = 0;
        injected_dup = 0;
        injected_reorder = 0;
        corrupt_detected = 0;
        malformed_detected = 0;
        drop_detected = 0;
        dedup_hits = 0;
        reorder_stashed = 0;
        retransmits = 0;
        retransmit_words = 0;
        acked_seqs = 0;
        acks_piggybacked = 0;
        acks_standalone = 0;
        retained_frames = 0;
        retained_words = 0;
        live_streams_end = 0;
        retained_cur_frames = 0;
        retained_cur_words = 0;
        retained_peak_frames = 0;
        retained_peak_words = 0;
    }
};

namespace {

/// Retransmit attempts allowed per logical receive before the guard raises
/// TransportFault(RetryExhausted).
constexpr int kTransportRetryLimit = 8;

void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) noexcept {
    c.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t peek(const std::atomic<std::uint64_t>& c) noexcept {
    return c.load(std::memory_order_relaxed);
}

void raise_max(std::atomic<std::uint64_t>& m, std::uint64_t v) noexcept {
    std::uint64_t cur = m.load(std::memory_order_relaxed);
    while (cur < v &&
           !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// Rank
// ---------------------------------------------------------------------------

void Rank::flush_flops() {
    current_.flops += OpsCounter::get();
    OpsCounter::reset();
}

void Rank::emit(Event e) {
    e.rank = id_;
    machine_.events_->record(std::move(e));
}

void Rank::close_phase() {
    flush_flops();
    if (machine_.events_) {
        Event e;
        e.kind = EventKind::PhaseEnd;
        e.phase = current_phase_;
        e.counters = current_;
        emit(std::move(e));
    }
    lifetime_ += current_;
    ledger_.emplace_back(current_phase_, current_);
    current_ = CostCounters{};
}

bool Rank::phase(std::string_view name) {
    close_phase();
    current_phase_ = std::string(name);
    if (machine_.events_) {
        Event e;
        e.kind = EventKind::PhaseBegin;
        e.phase = current_phase_;
        emit(std::move(e));
    }
    const bool dies = fails_at(name);
    if (dies && machine_.events_) {
        Event e;
        e.kind = EventKind::Fault;
        e.phase = current_phase_;
        emit(std::move(e));
    }
    return dies;
}

void Rank::note_fault() {
    if (!machine_.events_) return;
    Event e;
    e.kind = EventKind::Fault;
    e.phase = current_phase_;
    emit(std::move(e));
}

void Rank::begin_recovery(std::span<const int> dead_ranks) {
    // Armed by either consumer: the event log or the metrics registry.
    if ((!machine_.events_ && !machine_.metric_recovery_flops_.live()) ||
        in_recovery_) {
        return;
    }
    in_recovery_ = true;
    recovery_dead_.assign(dead_ranks.begin(), dead_ranks.end());
    flush_flops();
    recovery_base_ = lifetime_;
    recovery_base_ += current_;
    if (machine_.events_) {
        Event e;
        e.kind = EventKind::RecoveryBegin;
        e.phase = current_phase_;
        e.ranks = recovery_dead_;
        emit(std::move(e));
    }
}

void Rank::end_recovery() {
    if (!in_recovery_) return;
    in_recovery_ = false;
    flush_flops();
    CostCounters total = lifetime_;
    total += current_;
    // The recovery's cost on this rank: everything since begin_recovery().
    CostCounters delta;
    delta.flops = total.flops - recovery_base_.flops;
    delta.words = total.words - recovery_base_.words;
    delta.msgs = total.msgs - recovery_base_.msgs;
    delta.latency = total.latency - recovery_base_.latency;
    if (machine_.metric_recovery_flops_.live()) {
        metrics::counter("ftmul_recoveries_total",
                         {{"phase", current_phase_}},
                         "recovery brackets completed, by phase")
            .inc();
        machine_.metric_recovery_flops_.observe(delta.flops);
        machine_.metric_recovery_words_.observe(delta.words);
    }
    if (machine_.events_) {
        Event e;
        e.kind = EventKind::RecoveryEnd;
        e.phase = current_phase_;
        e.counters = delta;
        e.words = delta.words;
        e.ranks = std::move(recovery_dead_);
        emit(std::move(e));
    }
    recovery_dead_.clear();
}

bool Rank::fails_at(std::string_view name) const {
    return machine_.plan_.fails_at(name, id_);
}

const FaultPlan& Rank::fault_plan() const { return machine_.plan_; }

void Rank::send_buf(int dst, int tag, PayloadBuf payload) {
    assert(dst >= 0 && dst < size_);
    flush_flops();
    const bool guarded = machine_.transport_guard_;
    if (guarded) {
        const std::uint64_t seq = send_seq_[{dst, tag}]++;
        // Piggyback this rank's cumulative receive watermark for one
        // reverse stream from dst — flow control riding traffic that is
        // flowing anyway, charged as part of the trailer below.
        const std::uint64_t ack = pick_piggyback_ack(dst);
        seal_frame(payload.storage(), id_, dst, tag, seq, ack);
        machine_.retain_frame(id_, dst, tag, seq, payload.words());
        bump(machine_.tcounters_->sent_frames);
        bump(machine_.tcounters_->header_words, kFrameTrailerWords);
        if (ack != 0) {
            bump(machine_.tcounters_->acks_piggybacked);
            static const Counter acks = metrics::counter(
                "ftmul_transport_acks_total", {{"kind", "piggyback"}},
                "cumulative acks conveyed to senders, by carrier");
            acks.inc();
        }
        static const Counter frames = metrics::counter(
            "ftmul_transport_frames_total", {},
            "frames sealed by the transport guard");
        frames.inc();
    }
    // Under the guard the charged words include the sealed trailer — the
    // integrity header rides the frame, deterministically, in every charge
    // and event below.
    current_.words += payload.size();
    current_.msgs += 1;
    machine_.metric_msgs_.inc();
    machine_.metric_msg_words_.inc(payload.size());
    if (machine_.events_) {
        Event e;
        e.kind = EventKind::MessageSend;
        e.phase = current_phase_;
        e.peer = dst;
        e.tag = tag;
        e.words = payload.size();
        emit(std::move(e));
    }
    if (guarded) {
        deliver_frame(dst, tag, std::move(payload));
        return;
    }
    machine_.mailbox(dst).push(id_, tag, std::move(payload));
}

void Rank::deliver_frame(int dst, int tag, PayloadBuf frame) {
    Machine::TransportCounterBlock& tc = *machine_.tcounters_;
    const TransportFaultModel& model = machine_.transport_model_;
    if (model.active()) {
        const std::uint64_t idx = link_msg_[dst]++;
        switch (model.draw(id_, dst, idx)) {
            case TransportAction::None:
                break;
            case TransportAction::Corrupt: {
                bump(tc.injected_corrupt);
                static const Counter injected = metrics::counter(
                    "ftmul_transport_injected_total", {{"kind", "corrupt"}},
                    "transport faults injected by the shim, by kind");
                injected.inc();
                corrupt_frame(frame.storage(),
                              model.corruption_bits(id_, dst, idx));
                break;
            }
            case TransportAction::Drop: {
                bump(tc.injected_drop);
                static const Counter injected = metrics::counter(
                    "ftmul_transport_injected_total", {{"kind", "drop"}});
                injected.inc();
                // The loss is made deterministic: a payload-free tombstone
                // carrying the dropped frame's seq (and its piggybacked ack
                // word — a drop loses the payload, not the flow control)
                // still travels, so the receiver detects the gap without a
                // timeout race.
                const std::span<const std::uint64_t> w = frame.words();
                const std::uint64_t seq = w[w.size() - 3];
                const std::uint64_t ack = w[w.size() - 1];
                std::vector<std::uint64_t> stone;
                seal_tombstone(stone, id_, dst, tag, seq, ack);
                frame = PayloadBuf::adopt(std::move(stone));
                break;
            }
            case TransportAction::Dup: {
                bump(tc.injected_dup);
                static const Counter injected = metrics::counter(
                    "ftmul_transport_injected_total", {{"kind", "dup"}});
                injected.inc();
                std::vector<std::uint64_t> copy(frame.words().begin(),
                                                frame.words().end());
                machine_.mailbox(dst).push(id_, tag,
                                           PayloadBuf::adopt(std::move(copy)));
                break;
            }
            case TransportAction::Reorder: {
                bump(tc.injected_reorder);
                static const Counter injected = metrics::counter(
                    "ftmul_transport_injected_total", {{"kind", "reorder"}});
                injected.inc();
                // Defer this frame past the sender's next send on the same
                // link; flush_reorder_stash() at every blocking point keeps
                // the deferral from ever wedging a receiver.
                if (reorder_stash_.size() >= machine_.stash_limit_) {
                    const std::span<const std::uint64_t> w = frame.words();
                    throw TransportFault(
                        TransportFaultKind::StashOverflow, id_, dst, tag,
                        w[w.size() - 3],
                        "reorder deferral stash exceeded " +
                            std::to_string(machine_.stash_limit_) +
                            " entries");
                }
                reorder_stash_.emplace_back(std::make_pair(dst, tag),
                                            std::move(frame));
                return;
            }
        }
    }
    machine_.mailbox(dst).push(id_, tag, std::move(frame));
    // Release frames the Reorder action deferred on this link *after* the
    // frame that just shipped — that delayed release is the reorder.
    if (!reorder_stash_.empty()) {
        auto it = reorder_stash_.begin();
        while (it != reorder_stash_.end()) {
            if (it->first.first != dst) {
                ++it;
                continue;
            }
            machine_.mailbox(dst).push(id_, it->first.second,
                                       std::move(it->second));
            it = reorder_stash_.erase(it);
        }
    }
}

void Rank::flush_reorder_stash() {
    if (reorder_stash_.empty()) return;
    for (auto& [key, buf] : reorder_stash_) {
        machine_.mailbox(key.first).push(id_, key.second, std::move(buf));
    }
    reorder_stash_.clear();
}

void Rank::send(int dst, int tag, std::vector<std::uint64_t> payload) {
    send_buf(dst, tag, PayloadBuf::adopt(std::move(payload)));
}

void Rank::send_batch(int dst, std::vector<TaggedPayload> msgs) {
    assert(dst >= 0 && dst < size_);
    if (machine_.transport_guard_) {
        // Each frame needs its own seal/retention/injection draw, so the
        // guard unfuses the delivery; charges and events are per message
        // either way, identical to the equivalent send loop.
        for (TaggedPayload& m : msgs) {
            send_buf(dst, m.tag, std::move(m.buf));
        }
        return;
    }
    flush_flops();
    // Charge and log each element as its own message, in order — identical
    // to the equivalent send loop; only the mailbox delivery is fused.
    for (const TaggedPayload& m : msgs) {
        current_.words += m.buf.size();
        current_.msgs += 1;
        machine_.metric_msgs_.inc();
        machine_.metric_msg_words_.inc(m.buf.size());
        if (machine_.events_) {
            Event e;
            e.kind = EventKind::MessageSend;
            e.phase = current_phase_;
            e.peer = dst;
            e.tag = m.tag;
            e.words = m.buf.size();
            emit(std::move(e));
        }
    }
    machine_.mailbox(dst).push_batch(id_, std::move(msgs));
}

PayloadBuf Rank::recv_buf(int src, int tag) {
    assert(src >= 0 && src < size_);
    if (!machine_.transport_guard_) return recv_frame(src, tag);
    // About to block: release any frame the shim deferred, so a reorder can
    // never leave a peer waiting on a frame this rank is still sitting on.
    flush_reorder_stash();
    return recv_buf_guarded(src, tag);
}

PayloadBuf Rank::recv_frame(int src, int tag) {
    machine_.note_blocked(id_, src, tag, current_phase_);
    PayloadBuf payload;
    try {
        ProfileScope blocked(machine_.metric_blocked_us_);
        payload = machine_.mailbox(id_).pop(src, tag, machine_.timeout_);
    } catch (const RecvTimeout&) {
        // Turn the bare timeout into a structured deadlock diagnostic:
        // every rank still parked in a receive, with its (src, tag, phase).
        // The snapshot is taken while this rank is still registered, so the
        // diagnostic includes the thrower itself.
        std::vector<int> blocked_ranks;
        const std::string who = machine_.deadlock_diagnostic(blocked_ranks);
        machine_.note_unblocked(id_);
        if (machine_.events_) {
            Event e;
            e.kind = EventKind::Deadlock;
            e.phase = current_phase_;
            e.peer = src;
            e.tag = tag;
            e.ranks = blocked_ranks;
            emit(std::move(e));
        }
        throw RecvTimeout(
            "deadlock: rank " + std::to_string(id_) + " timed out waiting "
            "for src=" + std::to_string(src) + " tag=" + std::to_string(tag) +
            " at phase \"" + current_phase_ + "\"; blocked ranks:\n" + who);
    } catch (...) {
        machine_.note_unblocked(id_);
        throw;
    }
    machine_.note_unblocked(id_);
    if (machine_.events_) {
        Event e;
        e.kind = EventKind::MessageRecv;
        e.phase = current_phase_;
        e.peer = src;
        e.tag = tag;
        e.words = payload.size();
        emit(std::move(e));
    }
    return payload;
}

std::vector<std::uint64_t> Rank::recv(int src, int tag) {
    return recv_buf(src, tag).release();
}

void Rank::emit_transport(const char* note, int peer, int tag,
                          std::uint64_t words) {
    if (!machine_.events_) return;
    Event e;
    e.kind = EventKind::Transport;
    e.phase = current_phase_;
    e.peer = peer;
    e.tag = tag;
    e.words = words;
    e.note = note;
    emit(std::move(e));
}

PayloadBuf Rank::recv_buf_guarded(int src, int tag) {
    Machine::TransportCounterBlock& tc = *machine_.tcounters_;
    std::uint64_t& expected = recv_seq_[{src, tag}];
    int attempts = 0;
    // Bounded stash discipline (the fix for unbounded growth under
    // adversarial reorder rates): refuse to park one more frame past the
    // configured cap and surface the typed fault instead.
    const auto stash_guard = [&](std::uint64_t seq) {
        if (recv_stash_.size() >= machine_.stash_limit_) {
            throw TransportFault(
                TransportFaultKind::StashOverflow, src, id_, tag, seq,
                "ahead-of-order receive stash exceeded " +
                    std::to_string(machine_.stash_limit_) + " entries");
        }
    };
    for (;;) {
        // The stream's next frame may already be parked from an earlier
        // out-of-order arrival (verified and stripped at stash time).
        if (auto it = recv_stash_.find(std::make_tuple(src, tag, expected));
            it != recv_stash_.end()) {
            PayloadBuf ready = std::move(it->second);
            recv_stash_.erase(it);
            ++expected;
            advance_watermark(src, tag, expected);
            return ready;
        }
        PayloadBuf frame = recv_frame(src, tag);
        const FrameVerdict v = inspect_frame(frame.words(), src, id_, tag);
        switch (v.state) {
            case FrameState::Intact: {
                strip_trailer(frame.storage());
                if (v.seq < expected) {  // duplicate of a delivered frame
                    bump(tc.dedup_hits);
                    static const Counter dedup = metrics::counter(
                        "ftmul_transport_dedup_hits_total", {},
                        "duplicate frames discarded by the seq window");
                    dedup.inc();
                    emit_transport("dedup", src, tag, v.seq);
                    continue;
                }
                if (v.seq > expected) {  // ahead of stream order: park it
                    bump(tc.reorder_stashed);
                    emit_transport("reorder-stash", src, tag, v.seq);
                    stash_guard(v.seq);
                    recv_stash_.emplace(std::make_tuple(src, tag, v.seq),
                                        std::move(frame));
                    continue;
                }
                ++expected;
                advance_watermark(src, tag, expected);
                return frame;
            }
            case FrameState::Tombstone: {
                bump(tc.drop_detected);
                static const Counter drops = metrics::counter(
                    "ftmul_transport_drops_detected_total", {},
                    "drop tombstones observed by receivers");
                drops.inc();
                emit_transport("drop-detected", src, tag, v.seq);
                if (v.seq < expected) continue;  // lost duplicate: absorbed
                PayloadBuf rec = fetch_retransmit(src, tag, v.seq, attempts,
                                                  TransportFaultKind::Dropped);
                if (v.seq > expected) {
                    stash_guard(v.seq);
                    recv_stash_.emplace(std::make_tuple(src, tag, v.seq),
                                        std::move(rec));
                    continue;
                }
                ++expected;
                advance_watermark(src, tag, expected);
                return rec;
            }
            case FrameState::PayloadCorrupt: {
                bump(tc.corrupt_detected);
                static const Counter fails = metrics::counter(
                    "ftmul_transport_checksum_failures_total", {},
                    "frames failing content-checksum verification");
                fails.inc();
                emit_transport("corrupt-detected", src, tag, v.seq);
                if (v.seq < expected) continue;  // corrupt dup: absorbed
                PayloadBuf rec = fetch_retransmit(src, tag, v.seq, attempts,
                                                  TransportFaultKind::Corrupt);
                if (v.seq > expected) {
                    stash_guard(v.seq);
                    recv_stash_.emplace(std::make_tuple(src, tag, v.seq),
                                        std::move(rec));
                    continue;
                }
                ++expected;
                advance_watermark(src, tag, expected);
                return rec;
            }
            case FrameState::Malformed: {
                // Truncated frame or mangled trailer: the seq field is
                // untrustworthy, so recover the stream's next expected frame
                // — if the damaged frame was really a later one, its healthy
                // original still arrives and the dedup window absorbs the
                // recovery's overlap.
                bump(tc.malformed_detected);
                static const Counter fails = metrics::counter(
                    "ftmul_transport_checksum_failures_total", {});
                fails.inc();
                emit_transport("malformed-detected", src, tag, expected);
                PayloadBuf rec =
                    fetch_retransmit(src, tag, expected, attempts,
                                     TransportFaultKind::Truncated);
                ++expected;
                advance_watermark(src, tag, expected);
                return rec;
            }
        }
    }
}

PayloadBuf Rank::fetch_retransmit(int src, int tag, std::uint64_t seq,
                                  int& attempts, TransportFaultKind why) {
    if (++attempts > kTransportRetryLimit) {
        throw TransportFault(TransportFaultKind::RetryExhausted, src, id_,
                             tag, seq,
                             "retransmit budget exhausted after " +
                                 std::to_string(attempts - 1) +
                                 " recoveries in one receive (trigger: " +
                                 std::string(to_string(why)) + ")");
    }
    std::optional<std::vector<std::uint64_t>> sealed =
        machine_.retained_copy(src, id_, tag, seq);
    if (!sealed) {
        throw TransportFault(
            TransportFaultKind::RetainMiss, src, id_, tag, seq,
            "frame aged out of the sender's retention window (trigger: " +
                std::string(to_string(why)) + ")");
    }
    // Model the NACK round trip, charged to the receiving rank: one
    // single-word NACK out, the retained frame back, two latency rounds on
    // the critical path. Retries are not free — same doctrine as the
    // resilient ladder's rungs.
    current_.msgs += 2;
    current_.words += 1 + sealed->size();
    current_.latency += 2;
    Machine::TransportCounterBlock& tc = *machine_.tcounters_;
    bump(tc.retransmits);
    bump(tc.retransmit_words, sealed->size());
    static const Counter retr = metrics::counter(
        "ftmul_transport_retransmits_total", {},
        "frames recovered from sender-side retention");
    retr.inc();
    emit_transport("retransmit", src, tag, seq);
    const FrameVerdict v = inspect_frame(*sealed, src, id_, tag);
    if (v.state != FrameState::Intact || v.seq != seq) {
        // Retention holds pre-injection seals; a mismatch here is memory
        // corruption, not an injected fault — surface it, never deliver.
        throw TransportFault(why, src, id_, tag, seq,
                             "retained frame failed verification");
    }
    std::vector<std::uint64_t> words = std::move(*sealed);
    strip_trailer(words);
    return PayloadBuf::adopt(std::move(words));
}

void Rank::advance_watermark(int src, int tag, std::uint64_t delivered) {
    Machine::TransportCounterBlock& tc = *machine_.tcounters_;
    bump(tc.acked_seqs);
    machine_.metric_acked_seqs_.add(1);
    // The eviction applies instantly against the sender-side retention this
    // rank indexes (the same shared-memory shortcut the NACK fetch takes);
    // what the ack *costs* is modeled separately: piggybacks ride the
    // trailer of frames already charged, and quiet streams pay for a
    // standalone ack below.
    machine_.ack_retained(src, id_, tag, delivered);
    std::uint64_t& published = ack_published_[{src, tag}];
    if (delivered - published >= machine_.ack_interval_) {
        published = delivered;
        bump(tc.acks_standalone);
        // One single-word ack frame out, one latency round — flow control
        // is not free, same doctrine as the NACK round trip.
        current_.msgs += 1;
        current_.words += 1;
        current_.latency += 1;
        static const Counter acks = metrics::counter(
            "ftmul_transport_acks_total", {{"kind", "standalone"}},
            "cumulative acks conveyed to senders, by carrier");
        acks.inc();
        emit_transport("ack-standalone", src, tag, delivered);
    }
}

std::uint64_t Rank::pick_piggyback_ack(int dst) {
    int best_tag = 0;
    std::uint64_t best_delivered = 0;
    std::uint64_t best_backlog = 0;
    const auto from_dst =
        recv_seq_.lower_bound({dst, std::numeric_limits<int>::min()});
    for (auto it = from_dst; it != recv_seq_.end() && it->first.first == dst;
         ++it) {
        const auto pub = ack_published_.find(it->first);
        const std::uint64_t published =
            pub == ack_published_.end() ? 0 : pub->second;
        const std::uint64_t backlog = it->second - published;
        if (backlog > best_backlog) {  // lowest tag wins ties (map order)
            best_backlog = backlog;
            best_tag = it->first.second;
            best_delivered = it->second;
        }
    }
    if (best_backlog == 0) return 0;
    ack_published_[{dst, best_tag}] = best_delivered;
    return frame_ack_word(best_tag, best_delivered);
}

PayloadBuf Rank::frame_bigints(std::span<const BigInt> values) {
    PayloadBuf buf = MsgPool::instance().acquire(serialized_words(values));
    serialize_vec_into(values, buf.storage());
    return buf;
}

void Rank::send_bigints(int dst, int tag, std::span<const BigInt> values) {
    send_buf(dst, tag, frame_bigints(values));
}

void Rank::send_bigints_batch(
    int dst, std::span<const std::pair<int, std::span<const BigInt>>> items) {
    std::vector<TaggedPayload> msgs;
    msgs.reserve(items.size());
    for (const auto& [tag, values] : items) {
        msgs.push_back(TaggedPayload{tag, frame_bigints(values)});
    }
    send_batch(dst, std::move(msgs));
}

std::vector<BigInt> Rank::recv_bigints(int src, int tag) {
    PayloadBuf buf = recv_buf(src, tag);
    // Single large frame: adopt the buffer's storage as the BigInt's limbs
    // (worth losing the pooled buffer); otherwise decode by copy and let
    // the buffer recycle.
    if (adoptable_frame(buf.words())) {
        return deserialize_vec_adopt(buf.release());
    }
    return deserialize_vec(buf.words());
}

void Rank::note_memory(std::uint64_t words) {
    if (words <= peak_memory_) return;
    peak_memory_ = words;
    if (machine_.events_) {
        Event e;
        e.kind = EventKind::Memory;
        e.phase = current_phase_;
        e.words = words;
        emit(std::move(e));
    }
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

Machine::Machine(int world_size, FaultPlan plan, MailboxFactory make_mailbox)
    : size_(world_size),
      plan_(std::move(plan)),
      make_mailbox_(std::move(make_mailbox)) {
    if (world_size <= 0) {
        throw std::invalid_argument("Machine: world_size must be positive");
    }
    if (!make_mailbox_) {
        make_mailbox_ = [](int world) {
            return std::make_unique<Mailbox>(world);
        };
    }
    metric_msgs_ = metrics::counter("ftmul_machine_messages_total", {},
                                    "point-to-point messages sent");
    metric_msg_words_ =
        metrics::counter("ftmul_machine_message_words_total", {},
                         "words carried by point-to-point messages");
    metric_retained_words_ = metrics::gauge(
        "ftmul_transport_retained_words", {},
        "words currently held in sender-side retention, process-wide");
    metric_retained_words_peak_ =
        metrics::gauge("ftmul_transport_retained_words_peak", {},
                       "high-water of ftmul_transport_retained_words");
    metric_retained_frames_peak_ = metrics::gauge(
        "ftmul_transport_retained_frames_peak", {},
        "high-water of frames held in sender-side retention");
    metric_acked_seqs_ = metrics::gauge(
        "ftmul_transport_acked_seqs", {},
        "sequence numbers covered by receiver ack watermarks, cumulative");
    metric_blocked_us_ = metrics::histogram(
        "ftmul_machine_blocked_recv_us", {}, duration_buckets_us(),
        "wall-clock a rank spent parked in recv()");
    metric_runs_ = metrics::counter("ftmul_machine_runs_total", {},
                                    "Machine::run() invocations");
    metric_run_us_ =
        metrics::histogram("ftmul_machine_run_us", {}, duration_buckets_us(),
                           "wall-clock of one Machine::run()");
    metric_recovery_flops_ = metrics::histogram(
        "ftmul_recovery_flops", {}, exponential_buckets(100, 4.0, 12),
        "per-rank limb ops spent inside a recovery bracket");
    metric_recovery_words_ = metrics::histogram(
        "ftmul_recovery_words", {}, exponential_buckets(16, 4.0, 12),
        "per-rank words moved inside a recovery bracket");
    mailboxes_.reserve(static_cast<std::size_t>(world_size));
    for (int i = 0; i < world_size; ++i) {
        mailboxes_.push_back(make_mailbox_(size_));
    }
    blocked_.resize(static_cast<std::size_t>(world_size));
    retain_.reserve(static_cast<std::size_t>(world_size));
    for (int i = 0; i < world_size; ++i) {
        retain_.push_back(std::make_unique<RetainShard>());
    }
    tcounters_ = std::make_unique<TransportCounterBlock>();
    // Adaptive spill-pool sizing: a P-rank all-to-all keeps O(P^2) payloads
    // in flight, so tell the pool the largest world it must absorb.
    MsgPool::instance().note_world_size(world_size);
}

void Machine::set_transport_faults(const TransportFaultModel& model) {
    model.validate();
    transport_model_ = model;
    if (model.active()) transport_guard_ = true;
}

TransportStats Machine::transport_stats() const noexcept {
    const TransportCounterBlock& tc = *tcounters_;
    TransportStats s;
    s.sent_frames = peek(tc.sent_frames);
    s.header_words = peek(tc.header_words);
    s.injected_corrupt = peek(tc.injected_corrupt);
    s.injected_drop = peek(tc.injected_drop);
    s.injected_dup = peek(tc.injected_dup);
    s.injected_reorder = peek(tc.injected_reorder);
    s.corrupt_detected = peek(tc.corrupt_detected);
    s.malformed_detected = peek(tc.malformed_detected);
    s.drop_detected = peek(tc.drop_detected);
    s.dedup_hits = peek(tc.dedup_hits);
    s.reorder_stashed = peek(tc.reorder_stashed);
    s.retransmits = peek(tc.retransmits);
    s.retransmit_words = peek(tc.retransmit_words);
    s.acked_seqs = peek(tc.acked_seqs);
    s.acks_piggybacked = peek(tc.acks_piggybacked);
    s.acks_standalone = peek(tc.acks_standalone);
    s.retained_frames = peek(tc.retained_frames);
    s.retained_words = peek(tc.retained_words);
    s.live_streams_end = peek(tc.live_streams_end);
    return s;
}

std::uint64_t Machine::transport_retained_peak_frames() const noexcept {
    return peek(tcounters_->retained_peak_frames);
}

std::uint64_t Machine::transport_retained_peak_words() const noexcept {
    return peek(tcounters_->retained_peak_words);
}

void Machine::retain_frame(int src, int dst, int tag, std::uint64_t seq,
                           std::span<const std::uint64_t> words) {
    if (retain_depth_ == 0) return;
    // Seq-only entry for a payload-free frame: its retransmit is pure
    // bookkeeping (the seal is reconstructed from the stream key), so
    // copying the trailer words into retention would be waste.
    const bool seq_only = words.size() <= kFrameTrailerWords;
    PayloadBuf buf;
    if (!seq_only) {
        // Pooled storage, not a fresh deep copy: the buffer recycles
        // through MsgPool when the ack watermark evicts it.
        buf = MsgPool::instance().acquire(words.size());
        buf.storage().assign(words.begin(), words.end());
    }
    const std::uint64_t stored = seq_only ? 0 : words.size();
    std::uint64_t evicted_frames = 0;
    std::uint64_t evicted_words = 0;
    {
        RetainShard* shard = retain_[static_cast<std::size_t>(dst)].get();
        std::lock_guard<std::mutex> lock(shard->mu);
        RetainStream& stream = shard->streams[{src, tag}];
        if (seq < stream.acked) return;  // watermark already covers it
        stream.frames.push_back({seq, std::move(buf)});
        // Fallback cap only: the ack watermark normally keeps the deque at
        // the true in-flight window, far below retain_depth_.
        while (stream.frames.size() > retain_depth_) {
            evicted_words += stream.frames.front().buf.size();
            ++evicted_frames;
            stream.frames.pop_front();
        }
    }
    TransportCounterBlock& tc = *tcounters_;
    bump(tc.retained_frames);
    bump(tc.retained_words, stored);
    const std::uint64_t cur_f =
        tc.retained_cur_frames.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t cur_w =
        tc.retained_cur_words.fetch_add(stored, std::memory_order_relaxed) +
        stored;
    raise_max(tc.retained_peak_frames, cur_f);
    raise_max(tc.retained_peak_words, cur_w);
    metric_retained_frames_peak_.update_max(static_cast<std::int64_t>(cur_f));
    metric_retained_words_peak_.update_max(static_cast<std::int64_t>(cur_w));
    metric_retained_words_.add(static_cast<std::int64_t>(stored));
    if (evicted_frames != 0) {
        tc.retained_cur_frames.fetch_sub(evicted_frames,
                                         std::memory_order_relaxed);
        tc.retained_cur_words.fetch_sub(evicted_words,
                                        std::memory_order_relaxed);
        metric_retained_words_.add(-static_cast<std::int64_t>(evicted_words));
    }
}

std::optional<std::vector<std::uint64_t>> Machine::retained_copy(
    int src, int dst, int tag, std::uint64_t seq) {
    RetainShard* shard = retain_[static_cast<std::size_t>(dst)].get();
    std::lock_guard<std::mutex> lock(shard->mu);
    auto it = shard->streams.find({src, tag});
    if (it == shard->streams.end()) return std::nullopt;
    for (const RetainedFrame& f : it->second.frames) {
        if (f.seq != seq) continue;
        if (!f.buf.empty()) {
            return std::vector<std::uint64_t>(f.buf.words().begin(),
                                              f.buf.words().end());
        }
        // Seq-only entry: rebuild the payload-free seal. The piggybacked
        // ack word is not reproduced (it was advisory flow control, and
        // verification never covers it).
        std::vector<std::uint64_t> sealed;
        seal_frame(sealed, src, dst, tag, seq);
        return sealed;
    }
    return std::nullopt;
}

void Machine::ack_retained(int src, int dst, int tag,
                           std::uint64_t delivered) {
    // Ack-propagation delay: eviction lags the delivery watermark by the
    // configured round count (saturating), modeling acks in flight. The
    // standalone-ack cadence in advance_watermark still publishes the true
    // watermark — only when the sender acts on it is delayed.
    const std::uint64_t effective =
        delivered > ack_delay_ ? delivered - ack_delay_ : 0;
    std::uint64_t evicted_frames = 0;
    std::uint64_t evicted_words = 0;
    {
        RetainShard* shard = retain_[static_cast<std::size_t>(dst)].get();
        std::lock_guard<std::mutex> lock(shard->mu);
        auto it = shard->streams.find({src, tag});
        if (it == shard->streams.end()) return;
        RetainStream& stream = it->second;
        if (effective > stream.acked) stream.acked = effective;
        while (!stream.frames.empty() &&
               stream.frames.front().seq < stream.acked) {
            evicted_words += stream.frames.front().buf.size();
            ++evicted_frames;
            stream.frames.pop_front();
        }
        // The watermark drained the stream: erase the map node itself —
        // without this the nodes accumulate for the life of the machine,
        // the same leak class the sharded Mailbox's slot reclamation fixed.
        if (stream.frames.empty()) shard->streams.erase(it);
    }
    if (evicted_frames != 0) {
        TransportCounterBlock& tc = *tcounters_;
        tc.retained_cur_frames.fetch_sub(evicted_frames,
                                         std::memory_order_relaxed);
        tc.retained_cur_words.fetch_sub(evicted_words,
                                        std::memory_order_relaxed);
        metric_retained_words_.add(-static_cast<std::int64_t>(evicted_words));
    }
}

void Machine::release_retention() {
    std::uint64_t freed_frames = 0;
    std::uint64_t freed_words = 0;
    for (auto& shard : retain_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        for (auto& [key, stream] : shard->streams) {
            freed_frames += stream.frames.size();
            for (const RetainedFrame& f : stream.frames) {
                freed_words += f.buf.size();
            }
        }
        shard->streams.clear();  // PayloadBufs recycle to the pool here
    }
    if (freed_frames != 0) {
        TransportCounterBlock& tc = *tcounters_;
        tc.retained_cur_frames.fetch_sub(freed_frames,
                                         std::memory_order_relaxed);
        tc.retained_cur_words.fetch_sub(freed_words,
                                        std::memory_order_relaxed);
        metric_retained_words_.add(-static_cast<std::int64_t>(freed_words));
    }
}

std::size_t Machine::live_streams() const {
    std::size_t n = 0;
    for (const auto& shard : retain_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        n += shard->streams.size();
    }
    return n;
}

std::size_t Machine::mailbox_live_slots(int rank) const {
    return mailboxes_[static_cast<std::size_t>(rank)]->live_slots();
}

void Machine::note_blocked(int rank, int src, int tag,
                           const std::string& phase) {
    std::lock_guard<std::mutex> lock(blocked_mu_);
    auto& b = blocked_[static_cast<std::size_t>(rank)];
    b.blocked = true;
    b.src = src;
    b.tag = tag;
    b.phase = phase;
}

void Machine::note_unblocked(int rank) {
    std::lock_guard<std::mutex> lock(blocked_mu_);
    blocked_[static_cast<std::size_t>(rank)].blocked = false;
}

std::string Machine::deadlock_diagnostic(
    std::vector<int>& blocked_ranks) const {
    std::lock_guard<std::mutex> lock(blocked_mu_);
    std::string out;
    blocked_ranks.clear();
    for (int r = 0; r < size_; ++r) {
        const auto& b = blocked_[static_cast<std::size_t>(r)];
        if (!b.blocked) continue;
        blocked_ranks.push_back(r);
        out += "  rank " + std::to_string(r) + " waiting for src=" +
               std::to_string(b.src) + " tag=" + std::to_string(b.tag) +
               " at phase \"" + b.phase + "\"\n";
    }
    if (out.empty()) out = "  (no other rank blocked)\n";
    return out;
}

Machine::~Machine() { release_retention(); }

EventLog& Machine::enable_event_log() {
    if (!events_) events_ = std::make_shared<EventLog>();
    return *events_;
}

void Machine::run(const std::function<void(Rank&)>& body) {
    metric_runs_.inc();
    ProfileScope run_timer(metric_run_us_);
    stats_ = RunStats{};
    stats_.world = size_;
    if (events_) events_->clear();
    // Fresh mailboxes per run so stale messages never leak across runs.
    for (auto& mb : mailboxes_) mb = make_mailbox_(size_);
    // Likewise the transport state: retention and accounting are per run.
    release_retention();
    tcounters_->reset();
    {
        std::lock_guard<std::mutex> lock(blocked_mu_);
        for (auto& b : blocked_) b.blocked = false;
    }

    std::vector<std::vector<std::pair<std::string, CostCounters>>> ledgers(
        static_cast<std::size_t>(size_));
    std::vector<std::uint64_t> peaks(static_cast<std::size_t>(size_), 0);
    std::exception_ptr first_error;
    std::mutex error_mu;

    const auto rank_body = [&](int r) {
        OpsCounter::reset();
        Rank rank(*this, r, size_);
        if (events_) {
            Event e;
            e.kind = EventKind::PhaseBegin;
            e.phase = rank.current_phase_;
            rank.emit(std::move(e));
        }
        try {
            body(rank);
            // Frames the injection shim deferred past the body's last send
            // are released here; receivers still parked on them wake now.
            if (transport_guard_) rank.flush_reorder_stash();
        } catch (const RunAborted&) {
            // Secondary casualty of another rank's abort; keep only the
            // original error.
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error) first_error = std::current_exception();
            }
            // Fail fast: release every blocked receiver.
            for (auto& mb : mailboxes_) mb->abort();
        }
        rank.close_phase();
        ledgers[static_cast<std::size_t>(r)] = std::move(rank.ledger_);
        peaks[static_cast<std::size_t>(r)] = rank.peak_memory_;
    };

    // Persistent executor: rank r always runs on pool worker r, parked
    // between runs.
    if (!pool_) {
        pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(size_));
    }
    pool_->run([&](std::size_t i) { rank_body(static_cast<int>(i)); });
    if (first_error) std::rethrow_exception(first_error);

    // Post-run residue sweep: frames nobody popped — duplicates of
    // single-message streams, fire-and-forget traffic (e.g. checkpoint
    // shares read only on recovery) — still get inspected, so the detection
    // ledger balances: every injected corruption and drop is attributed
    // even when its slot was never on a receive path. Serial, after the
    // join, so it cannot race the rank threads; intact residue is simply
    // reclaimed (an unread healthy frame is not a fault).
    if (transport_guard_) {
        TransportCounterBlock& tc = *tcounters_;
        static const Counter residue_fails = metrics::counter(
            "ftmul_transport_checksum_failures_total", {});
        static const Counter residue_drops = metrics::counter(
            "ftmul_transport_drops_detected_total", {});
        for (int r = 0; r < size_; ++r) {
            for (ResidueFrame& f : mailbox(r).drain_residue()) {
                const FrameVerdict v =
                    inspect_frame(f.buf.words(), f.src, r, f.tag);
                switch (v.state) {
                    case FrameState::Intact: break;
                    case FrameState::Tombstone:
                        bump(tc.drop_detected);
                        residue_drops.inc();
                        break;
                    case FrameState::PayloadCorrupt:
                        bump(tc.corrupt_detected);
                        residue_fails.inc();
                        break;
                    case FrameState::Malformed:
                        bump(tc.malformed_detected);
                        residue_fails.inc();
                        break;
                }
            }
        }
        // Retention must not outlive its run: free every surviving frame
        // (fire-and-forget streams are never acked past their tail) and
        // record how many stream nodes the release left behind — always 0,
        // and a deterministic tripwire on the node-erase logic that the
        // racy live-footprint gauges cannot give us.
        release_retention();
        tc.live_streams_end.store(static_cast<std::uint64_t>(live_streams()),
                                  std::memory_order_relaxed);
    }

    // Combine: per-phase max across ranks (critical path), plus aggregates.
    for (int r = 0; r < size_; ++r) {
        std::map<std::string, CostCounters> mine;
        for (const auto& [name, c] : ledgers[static_cast<std::size_t>(r)]) {
            mine[name] += c;
            stats_.aggregate += c;
        }
        for (const auto& [name, c] : mine) {
            stats_.per_phase[name].max_with(c);
            stats_.per_phase_agg[name] += c;
        }
        if (peaks[static_cast<std::size_t>(r)] > stats_.peak_memory_words) {
            stats_.peak_memory_words = peaks[static_cast<std::size_t>(r)];
        }
    }
    for (const auto& [name, c] : stats_.per_phase) stats_.critical += c;
}

}  // namespace ftmul
