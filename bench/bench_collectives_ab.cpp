// Pooled-vs-legacy data-plane A/B: the same message-heavy collective and
// all-to-all workloads run end to end on the production transport (recycled
// PayloadBufs, sharded mailboxes, fused frames) and on the seed transport
// kept in bench/seed_plane.hpp (fresh vector per message, single-mutex
// std::map mailbox, collectives that decode at every hop).
//
// The JSON report carries only the deterministic machine-model counters —
// which must be identical between the two planes (that identity is asserted
// here and diffed against bench/baselines/BENCH_collectives_ab.json in CI).
// Wall-clock and pool-allocation numbers go to stdout; set
// FTMUL_AB_MIN_SPEEDUP (e.g. "1.2") to turn the printed speedup into a hard
// failure gate, as the release-bench CI job does.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/seed_plane.hpp"

#include "bigint/bigint.hpp"
#include "runtime/collectives.hpp"
#include "runtime/machine.hpp"
#include "runtime/msg_pool.hpp"

namespace ftmul {
namespace {

struct Config {
    const char* name;
    int P;           ///< ranks
    int rounds;      ///< repetitions of the exchange pattern
    std::size_t W;   ///< BigInts per message
    std::size_t bits;  ///< size of each BigInt
    std::size_t raw_words = 0;  ///< nonzero: raw word messages, no BigInts
};

/// The message-heavy body: every round, all-to-all BigInt exchange plus an
/// allreduce and an allgather — the collective mix the FT engines drive.
/// @p legacy routes the traffic through the seed-plane helpers.
void body(Rank& r, const Config& cfg, bool legacy) {
    const Group g = Group::strided(0, cfg.P);
    r.phase("ab-exchange");
    if (cfg.raw_words != 0) {
        // Pure transport stress: storms of small raw messages, no BigInt
        // work to amortize the per-message overhead. Each plane sends the
        // way its API is meant to be used — the pooled plane stages into a
        // recycled PayloadBuf, the legacy plane builds a fresh vector per
        // message (what the seed send() did). Charges are identical: same
        // message count, same word count.
        for (int round = 0; round < cfg.rounds; ++round) {
            for (int k = 0; k < 4; ++k) {
                const int tag = (round * 4 + k) % 16;
                for (int peer = 0; peer < cfg.P; ++peer) {
                    if (peer == r.id()) continue;
                    if (!legacy) {
                        PayloadBuf b =
                            MsgPool::instance().acquire(cfg.raw_words);
                        b.storage().assign(cfg.raw_words,
                                           static_cast<std::uint64_t>(tag));
                        r.send_buf(peer, tag, std::move(b));
                    } else {
                        r.send(peer, tag,
                               std::vector<std::uint64_t>(
                                   cfg.raw_words,
                                   static_cast<std::uint64_t>(tag)));
                    }
                }
                for (int peer = 0; peer < cfg.P; ++peer) {
                    if (peer == r.id()) continue;
                    if (!legacy) {
                        PayloadBuf got = r.recv_buf(peer, tag);
                        if (got.size() != cfg.raw_words) std::abort();
                    } else {
                        if (r.recv(peer, tag).size() != cfg.raw_words) {
                            std::abort();
                        }
                    }
                }
            }
        }
        return;
    }
    std::vector<BigInt> vals;
    for (std::size_t i = 0; i < cfg.W; ++i) {
        vals.push_back(BigInt{static_cast<std::int64_t>(r.id() * 131 + 7)}
                       << (cfg.bits - 1));
    }
    for (int round = 0; round < cfg.rounds; ++round) {
        for (int peer = 0; peer < cfg.P; ++peer) {
            if (peer == r.id()) continue;
            if (legacy) {
                seed::send_bigints(r, peer, round % 16, vals);
            } else {
                r.send_bigints(peer, round % 16, vals);
            }
        }
        for (int peer = 0; peer < cfg.P; ++peer) {
            if (peer == r.id()) continue;
            auto got = legacy ? seed::recv_bigints(r, peer, round % 16)
                              : r.recv_bigints(peer, round % 16);
            if (got.size() != cfg.W) std::abort();
        }
        std::vector<BigInt> acc(4, BigInt{r.id() + 1});
        if (legacy) {
            acc = seed::allreduce_sum(r, g, std::move(acc), 100);
            (void)seed::allgather(r, g, {BigInt{r.id()} << 64}, 101);
        } else {
            acc = allreduce_sum(r, g, std::move(acc), 100);
            (void)allgather(r, g, {BigInt{r.id()} << 64}, 101);
        }
    }
}

struct PlaneResult {
    double best_ms = 1e30;
    RunStats stats;
    std::uint64_t fresh = 0;     ///< pool misses across all timed reps
    std::uint64_t acquires = 0;  ///< pooled acquires across all timed reps
};

/// One Machine per plane, reused across reps (threads parked, pool thread
/// caches warm): the timing isolates the data plane, not thread spawning.
PlaneResult measure(bool legacy, const Config& cfg, int reps) {
    PlaneResult out;
    Machine m(cfg.P, {}, legacy ? seed::make_mailbox : MailboxFactory{});
    m.run([&](Rank& r) { body(r, cfg, legacy); });  // warmup
    out.stats = m.stats();
    const auto before = MsgPool::stats();
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        m.run([&](Rank& r) { body(r, cfg, legacy); });
        const auto t1 = std::chrono::steady_clock::now();
        out.best_ms = std::min(
            out.best_ms,
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    const auto after = MsgPool::stats();
    out.fresh = after.fresh_allocs - before.fresh_allocs;
    out.acquires = after.acquires - before.acquires;
    return out;
}

bool counters_equal(const RunStats& a, const RunStats& b) {
    return a.critical.flops == b.critical.flops &&
           a.critical.words == b.critical.words &&
           a.critical.msgs == b.critical.msgs &&
           a.critical.latency == b.critical.latency &&
           a.aggregate.flops == b.aggregate.flops &&
           a.aggregate.words == b.aggregate.words &&
           a.aggregate.msgs == b.aggregate.msgs;
}

}  // namespace
}  // namespace ftmul

int main() {
    using namespace ftmul;
    const Config configs[] = {
        {"msg-storm", 8, 60, 0, 0, /*raw_words=*/16},
        {"msg-storm-wide", 16, 25, 0, 0, /*raw_words=*/16},
        {"msg-storm-huge", 32, 8, 0, 0, /*raw_words=*/16},
        {"small-msgs", 8, 30, 8, 256},
        {"medium-msgs", 8, 20, 16, 2048},
        {"wide-world", 16, 10, 8, 1024},
        {"large-payload", 4, 10, 32, 8192},
    };

    double min_speedup = 0.0;
    if (const char* env = std::getenv("FTMUL_AB_MIN_SPEEDUP")) {
        min_speedup = std::atof(env);
    }

    std::printf("Data-plane A/B: identical cost-model charges, pooled "
                "transport vs. the seed (legacy) transport.\n");
    std::printf("%-14s %3s %6s %5s | %10s %10s | %8s | %12s %12s\n", "config",
                "P", "rnds", "W", "legacy_ms", "pooled_ms", "speedup",
                "fresh_allocs", "msgs");

    std::vector<bench::Row> rows;
    bool ok = true;
    double worst_speedup = 1e9;
    for (const Config& cfg : configs) {
        const PlaneResult pooled = measure(/*legacy=*/false, cfg, 3);
        const PlaneResult legacy = measure(/*legacy=*/true, cfg, 3);
        const double speedup = legacy.best_ms / pooled.best_ms;
        worst_speedup = std::min(worst_speedup, speedup);
        std::printf("%-14s %3d %6d %5zu | %10.2f %10.2f | %7.2fx | %12llu "
                    "%12llu\n",
                    cfg.name, cfg.P, cfg.rounds, cfg.W, legacy.best_ms,
                    pooled.best_ms, speedup,
                    static_cast<unsigned long long>(pooled.fresh),
                    static_cast<unsigned long long>(
                        legacy.stats.aggregate.msgs));
        if (!counters_equal(pooled.stats, legacy.stats)) {
            std::printf("FAIL: %s charges differ between data planes\n",
                        cfg.name);
            ok = false;
        }
        // Steady state must run out of the pool: the warmed-up timed runs
        // may allocate at most a trickle (spill-pool overflow under
        // transient imbalance), never per message.
        if (pooled.acquires > 0 && pooled.fresh * 20 > pooled.acquires) {
            std::printf("FAIL: %s pooled plane allocated %llu/%llu "
                        "acquires in steady state\n",
                        cfg.name,
                        static_cast<unsigned long long>(pooled.fresh),
                        static_cast<unsigned long long>(pooled.acquires));
            ok = false;
        }
        rows.push_back(bench::stats_row(
            std::string("ab/") + cfg.name + "/P=" + std::to_string(cfg.P) +
                ",rounds=" + std::to_string(cfg.rounds) +
                ",W=" + std::to_string(cfg.W),
            pooled.stats, cfg.P, 0, 0, true));
    }

    if (min_speedup > 0.0 && worst_speedup < min_speedup) {
        std::printf("FAIL: worst speedup %.2fx below required %.2fx\n",
                    worst_speedup, min_speedup);
        ok = false;
    }

    bench::JsonReport report("collectives_ab");
    report.add_table(
        "Data-plane A/B: cost-model charges (identical across planes)", rows,
        0);
    report.write();
    return ok ? 0 : 1;
}
