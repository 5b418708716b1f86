#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bigint/random.hpp"
#include "coding/erasure.hpp"
#include "core/parallel.hpp"
#include "runtime/events.hpp"
#include "runtime/machine.hpp"
#include "service/planner.hpp"
#include "service/service.hpp"
#include "toom/lazy.hpp"
#include "toom/sequential.hpp"

namespace perfbench {

namespace {

using namespace ftmul;

// Geometry of every machine engine: the planner default.
constexpr int kSplit = 2;
constexpr int kProcessors = 9;
constexpr std::size_t kDigitBits = 32;
constexpr int kFaults = 1;

constexpr std::size_t kLargeBits = 80000;
constexpr std::size_t kRecoveryBits = 32000;
constexpr double kServeRate = 150.0;
constexpr std::size_t kServeBitsMin = 128;
constexpr std::size_t kServeBitsMax = 12000;
constexpr auto kServeSlo = std::chrono::milliseconds(100);
constexpr std::size_t kSetupBits = 8000;

constexpr int kSetupReps = 15;
// Closed loops cut their rounds into kChunks chunks of consecutive rounds,
// and the end-to-end metrics read the kQuietChunks fastest (see quiet_ops).
constexpr std::size_t kChunks = 16;
constexpr std::size_t kQuietChunks = 8;
// Fewest rounds a closed loop runs: each chunk holds at least three, so the
// kept rounds give every engine's median ten samples beyond it.
constexpr std::size_t kMinRounds = 3 * kChunks;
static_assert(3 * kQuietChunks >= 20);
// Machine ops whose exact F/BW/L counts the traced run reports.
constexpr std::size_t kCountOps = 5;

constexpr double kInf = std::numeric_limits<double>::infinity();

ParallelConfig base_config() {
    ParallelConfig c;
    c.k = kSplit;
    c.processors = kProcessors;
    c.digit_bits = kDigitBits;
    return c;
}

double us_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
}

double require(std::optional<double> v, const std::string& what) {
    if (!v) {
        throw std::runtime_error(what +
                                 ": not enough samples beyond the percentile");
    }
    return *v;
}

/// Median wall time of @p reps calls of @p f, in microseconds.
template <class F>
double median_us(int reps, F&& f) {
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        f();
        s.push_back(us_between(t0, Clock::now()));
    }
    std::sort(s.begin(), s.end());
    return s[s.size() / 2];
}

// ---------------------------------------------------------------------------
// Layer details collected in traced runs

/// Critical-path time (max over ranks of the rank's summed spans) of each
/// phase family in one engine run, from the run's own event log.
struct PhaseTimes {
    std::array<double, 6> ms{};  // split, eval, xfwd, xbwd, interp, leaf-mul
    double leaf_imbalance = 0;   // max / mean leaf time over ranks
    std::vector<double> recovery_ms;
};

constexpr std::array<const char*, 6> kPhaseFamilies = {
    "split", "eval", "xfwd", "xbwd", "interp", "leaf-mul"};

int phase_family(const std::string& phase) {
    for (std::size_t i = 0; i < kPhaseFamilies.size(); ++i) {
        if (phase.rfind(kPhaseFamilies[i], 0) == 0) return static_cast<int>(i);
    }
    return -1;
}

PhaseTimes phase_times(const EventLog& log) {
    std::map<int, std::array<double, 6>> per_rank;
    std::map<int, std::pair<std::string, std::uint64_t>> open;
    std::map<int, std::uint64_t> recovery_open;
    std::map<int, double> recovery_by_rank;
    for (const Event& e : log.events()) {
        switch (e.kind) {
            case EventKind::PhaseBegin: open[e.rank] = {e.phase, e.ts_us}; break;
            case EventKind::PhaseEnd: {
                auto it = open.find(e.rank);
                if (it == open.end() || it->second.first != e.phase) break;
                const int fam = phase_family(e.phase);
                if (fam >= 0) {
                    per_rank[e.rank][static_cast<std::size_t>(fam)] +=
                        static_cast<double>(e.ts_us - it->second.second) /
                        1000.0;
                }
                open.erase(it);
                break;
            }
            case EventKind::RecoveryBegin: recovery_open[e.rank] = e.ts_us; break;
            case EventKind::RecoveryEnd: {
                auto it = recovery_open.find(e.rank);
                if (it == recovery_open.end()) break;
                recovery_by_rank[e.rank] +=
                    static_cast<double>(e.ts_us - it->second) / 1000.0;
                recovery_open.erase(it);
                break;
            }
            default: break;
        }
    }
    PhaseTimes t;
    double leaf_sum = 0;
    int leaf_ranks = 0;
    for (const auto& [rank, fam] : per_rank) {
        for (std::size_t i = 0; i < fam.size(); ++i) {
            t.ms[i] = std::max(t.ms[i], fam[i]);
        }
        if (fam[5] > 0) {
            leaf_sum += fam[5];
            ++leaf_ranks;
        }
    }
    if (leaf_ranks > 0 && leaf_sum > 0) {
        t.leaf_imbalance = t.ms[5] / (leaf_sum / leaf_ranks);
    }
    double rec = 0;
    for (const auto& [rank, ms] : recovery_by_rank) rec = std::max(rec, ms);
    if (!recovery_by_rank.empty()) t.recovery_ms.push_back(rec);
    return t;
}

/// What the traced half of a run learns about the layers under the ops.
struct LayerSink {
    std::vector<PhaseTimes> phases;
    std::vector<double> phase_op_ms;  // wall time of the ops in `phases`
    std::vector<double> model_gap;
    std::vector<double> recovery_ms;
    std::uint64_t machine_ops = 0;
    std::uint64_t rungs = 0;
    std::uint64_t escalated = 0;
    std::uint64_t frames = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t detected = 0;
    std::uint64_t retained_words = 0;
    std::size_t exact_ops = 0;  // machine ops folded into crit / agg
    CostCounters crit{};
    CostCounters agg{};

    void add(double wall_ms, const RunStats& stats,
             const std::shared_ptr<EventLog>& events,
             const TransportStats& transport, int attempts) {
        ++machine_ops;
        rungs += static_cast<std::uint64_t>(attempts);
        if (attempts > 1) ++escalated;
        frames += transport.sent_frames;
        retransmits += transport.retransmits;
        detected += transport.detected_losses();
        retained_words += transport.retained_words;
        const double modeled_s = stats.modeled_time(CostModel{});
        if (modeled_s > 0) model_gap.push_back(wall_ms / 1000.0 / modeled_s);
        if (events) {
            PhaseTimes t = phase_times(*events);
            recovery_ms.insert(recovery_ms.end(), t.recovery_ms.begin(),
                               t.recovery_ms.end());
            phases.push_back(std::move(t));
            phase_op_ms.push_back(wall_ms);
        }
        if (exact_ops < kCountOps) {
            ++exact_ops;
            crit += stats.critical;
            agg += stats.aggregate;
        }
    }
};

/// Serving-layer readings of a serve-mixed run.
struct ServiceDetail {
    ServiceStats stats;
    std::uint64_t requests = 0;
    std::uint64_t machine_plans = 0;
    std::uint64_t slo_ok = 0;
    std::vector<double> submit_us;
    std::vector<double> gen_lag_ms;
    std::vector<double> queue_wait_ms;
};

// ---------------------------------------------------------------------------
// One measured pass of a workload

struct OpRecord {
    std::string engine;  // seq, parallel, replication, ft_poly, ...
    double ms = kInf;    // wall latency; +inf when no correct product
    double cpu_ms = 0;   // process CPU during the call (closed loops)
    bool ok = false;      // a correct product came back
    bool wrong = false;   // a product came back and failed the oracle
    bool counted = true;  // in the p50_ms population and the printed tail
    std::size_t round = 0;  // closed loops: the round the op ran in
    bool hard_fault = false;  // a hard fault was drawn for the op
};

struct Pass {
    double setup_s = 0;
    std::vector<OpRecord> ops;
    double window_cpu_ms = 0;  // serve-mixed: process CPU minus harness
    HostSample before, after;
    LayerSink layers;
    ServiceDetail service;
    bool has_service = false;
    std::size_t rounds = 0;  // closed loops: rounds run; 0 for open loops
    // Closed loops: the engine whose latencies rank the chunks of rounds
    // (see quiet_ops); empty for every counted op.
    std::string ranking_engine;
    // Engine -> probability that an op of it draws a hard fault; engines
    // not listed draw none.
    std::map<std::string, double> hard_fault_p;
};

/// Time one call on the caller's thread: wall ms and process CPU ms, inside
/// a span named after the layer function it enters.
template <class F>
void timed_call(SpanRecorder& rec, std::int64_t parent, std::uint64_t op,
                const char* span, OpRecord& r, F&& call) {
    ScopedSpan s(rec, span, parent, op);
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    call();
    const auto t1 = Clock::now();
    r.cpu_ms = (process_cpu_s() - cpu0) * 1000.0;
    r.ms = ms_between(t0, t1);
}

/// Record the oracle's verdict; an op without a correct product counts as
/// missing every latency limit.
void settle(OpRecord& r, bool delivered, bool correct) {
    r.ok = delivered && correct;
    r.wrong = delivered && !correct;
    if (!r.ok) r.ms = kInf;
}

bool keep_going(Clock::time_point deadline, std::size_t done,
                std::size_t min_done) {
    return Clock::now() < deadline || done < min_done;
}

// large-mul: one caller, back-to-back 80,000-bit multiplies rotating the
// sequential baseline and three machine engines on the same operands.
Pass large_mul(const Options& opt, double seconds, bool traced,
               SpanRecorder& rec) {
    Pass p;
    ParallelConfig base;
    ResilientConfig repl, poly;
    const ToomPlan seq_plan = ToomPlan::make(kSplit);
    p.setup_s = 1e-6 * median_us(kSetupReps, [&] {
        base = base_config();
        base.events = traced;
        repl.engine = FtEngine::Replication;
        repl.base = base;
        repl.faults = kFaults;
        poly = repl;
        poly.engine = FtEngine::Poly;
        // The first product comes from a machine engine, so set-up covers
        // what a machine run builds (rank threads, mailboxes, arenas).
        BigInt a, b;
        fixed_operands(opt.seed, 0, kLargeBits, a, b);
        const BigInt first = parallel_toom_multiply(a, b, base).product;
        if (!residues_agree(a, b, first)) {
            throw std::runtime_error("large-mul: wrong product at set-up");
        }
    });

    p.before = sample_host();
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (std::size_t round = 0; keep_going(deadline, round, kMinRounds);
         ++round) {
        p.rounds = round + 1;
        BigInt a, b;
        fixed_operands(opt.seed, round, kLargeBits, a, b);
        BigInt reference;
        for (int e = 0; e < 4; ++e) {
            const std::uint64_t id = p.ops.size();
            OpRecord r;
            r.round = round;
            BigInt product;
            {
                ScopedSpan op(rec, "large-mul.op", -1, id);
                switch (e) {
                    case 0:
                        r.engine = "seq";
                        r.counted = false;
                        timed_call(rec, op.id(), id, "toom.toom_multiply", r,
                                   [&] {
                                       product =
                                           toom_multiply(a, b, seq_plan);
                                   });
                        break;
                    case 1: {
                        r.engine = "parallel";
                        ParallelRunResult res;
                        timed_call(rec, op.id(), id,
                                   "core.parallel_toom_multiply", r, [&] {
                                       res = parallel_toom_multiply(a, b,
                                                                    base);
                                   });
                        product = std::move(res.product);
                        if (traced) {
                            p.layers.add(r.ms, res.stats, res.events,
                                         res.transport, 1);
                        }
                        break;
                    }
                    default: {
                        const ResilientConfig& cfg = e == 2 ? repl : poly;
                        r.engine = to_string(cfg.engine);
                        FtRunResult res;
                        timed_call(rec, op.id(), id, "core.run_ft_engine", r,
                                   [&] {
                                       res = run_ft_engine(a, b, cfg,
                                                           FaultPlan{});
                                   });
                        product = std::move(res.product);
                        if (traced) {
                            p.layers.add(r.ms, res.stats, res.events,
                                         res.transport, 1);
                        }
                        break;
                    }
                }
            }
            ScopedSpan check(rec, "oracle.check", -1, id);
            if (e == 0) {
                settle(r, true, residues_agree(a, b, product));
                reference = std::move(product);
            } else {
                settle(r, true, product_ok(a, b, product, reference));
            }
            p.ops.push_back(std::move(r));
        }
    }
    p.after = sample_host();
    return p;
}

// ft-recovery: one caller, 32,000-bit multiplies under seeded hard and
// data-plane faults with the transport guard armed, rotating the FT
// engines through the resilient ladder plus the plain parallel engine
// (data-plane faults only, one fresh-interconnect retry as the service
// runs it).
Pass ft_recovery(const Options& opt, double seconds, bool traced,
                 SpanRecorder& rec) {
    constexpr std::array<FtEngine, 4> kEngines = {
        FtEngine::Poly, FtEngine::Linear, FtEngine::Mixed,
        FtEngine::Replication};
    constexpr std::size_t kSlots = kEngines.size() + 1;  // + parallel
    const std::uint64_t operand_seed = opt.seed ^ 0x7265636f76ull;

    Pass p;
    // Hard faults halt a replica or send a coded engine into recovery, so
    // those latencies follow the fault draw; chunks are ranked by the
    // parallel slot, which sees only data-plane faults.
    p.ranking_engine = "parallel";
    ParallelConfig base;
    std::vector<ResilientConfig> cfgs;
    std::vector<FaultInjectorConfig> fics;
    FaultInjectorConfig parallel_fic;
    const FaultInjector injector(opt.seed);
    p.setup_s = 1e-6 * median_us(kSetupReps, [&] {
        base = base_config();
        base.events = traced;
        base.transport_guard = true;
        cfgs.clear();
        fics.clear();
        for (FtEngine e : kEngines) {
            ResilientConfig c;
            c.engine = e;
            c.base = base;
            c.faults = kFaults;
            fics.push_back(recovery_fault_config(c));
            cfgs.push_back(std::move(c));
        }
        parallel_fic = fics.front();
        parallel_fic.phases.clear();
        parallel_fic.ranks.clear();
        parallel_fic.hard_rate = 0;
        // The first product runs fault-free, so set-up work does not depend
        // on the seed's fault draw.
        BigInt a, b;
        fixed_operands(operand_seed, 0, kRecoveryBits, a, b);
        const BigInt first =
            resilient_multiply(a, b, cfgs[0], FaultPlan{}).product;
        if (!residues_agree(a, b, first)) {
            throw std::runtime_error("ft-recovery: wrong product at set-up");
        }
    });
    for (std::size_t k = 0; k < kEngines.size(); ++k) {
        p.hard_fault_p[to_string(kEngines[k])] =
            hard_fault_probability(fics[k]);
    }

    p.before = sample_host();
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (std::uint64_t i = 0;
         keep_going(deadline, i, kMinRounds * kSlots) || i % kSlots; ++i) {
        p.rounds = i / kSlots + 1;
        BigInt a, b;
        fixed_operands(operand_seed, i, kRecoveryBits, a, b);
        const std::size_t slot = i % kSlots;
        const std::uint64_t id = p.ops.size();
        OpRecord r;
        r.round = i / kSlots;
        BigInt product;
        try {
            ScopedSpan op(rec, "ft-recovery.op", -1, id);
            if (slot < kEngines.size()) {
                ResilientConfig cfg = cfgs[slot];
                r.engine = to_string(cfg.engine);
                const InjectedFaults inj = injector.draw(fics[slot], i);
                r.hard_fault = inj.hard.total_faults() > 0;
                cfg.base.transport_faults = inj.transport;
                ResilientResult res;
                timed_call(rec, op.id(), id, "core.resilient_multiply", r,
                           [&] {
                               res = resilient_multiply(a, b, cfg, inj.hard);
                           });
                product = std::move(res.product);
                if (traced) {
                    p.layers.add(r.ms, res.stats, res.events, res.transport,
                                 static_cast<int>(res.attempts.size()));
                }
            } else {
                r.engine = "parallel";
                ParallelConfig cfg = base;
                cfg.transport_faults =
                    injector.draw(parallel_fic, i).transport;
                ParallelRunResult res;
                int attempts = 1;
                timed_call(rec, op.id(), id, "core.parallel_toom_multiply", r,
                           [&] {
                               try {
                                   res = parallel_toom_multiply(a, b, cfg);
                               } catch (const TransportFault&) {
                                   attempts = 2;
                                   cfg.transport_faults = {};
                                   res = parallel_toom_multiply(a, b, cfg);
                               }
                           });
                product = std::move(res.product);
                if (traced) {
                    p.layers.add(r.ms, res.stats, res.events, res.transport,
                                 attempts);
                }
            }
        } catch (const std::exception&) {
            r.ms = kInf;  // every rung failed: a miss, counted below
        }

        // The sequential reference doubles as the seq baseline sample.
        OpRecord seq;
        seq.engine = "seq";
        seq.counted = false;
        seq.round = r.round;
        BigInt reference;
        {
            ScopedSpan op(rec, "ft-recovery.reference", -1, id);
            timed_call(rec, op.id(), id, "toom.toom_multiply", seq,
                       [&] { reference = reference_product(a, b); });
        }
        ScopedSpan check(rec, "oracle.check", -1, id);
        settle(seq, true, residues_agree(a, b, reference));
        settle(r, r.ms != kInf, product_ok(a, b, product, reference));
        p.ops.push_back(std::move(r));
        p.ops.push_back(std::move(seq));
    }
    p.after = sample_host();
    return p;
}

/// Standalone re-run of a request's plan, as the service's executor runs
/// it (no chaos, no deadline, event log on): the baseline queue wait is
/// measured against.
BigInt replay_plan(const MultiplyPlan& plan, const BigInt& a, const BigInt& b,
                   SpanRecorder& rec, std::int64_t parent, std::uint64_t op,
                   OpRecord& r, LayerSink& sink) {
    BigInt product;
    if (!plan.machine) {
        timed_call(rec, parent, op, "toom.toom_multiply", r, [&] {
            product = toom_multiply(a, b, ToomPlan::make(3));
        });
        return product;
    }
    if (plan.engine == "parallel") {
        ParallelConfig cfg = plan.resilient.base;
        cfg.events = true;
        ParallelRunResult res;
        timed_call(rec, parent, op, "core.parallel_toom_multiply", r,
                   [&] { res = parallel_toom_multiply(a, b, cfg); });
        sink.add(r.ms, res.stats, res.events, res.transport, 1);
        return std::move(res.product);
    }
    ResilientConfig cfg = plan.resilient;
    cfg.base.events = true;
    ResilientResult res;
    timed_call(rec, parent, op, "core.resilient_multiply", r,
               [&] { res = resilient_multiply(a, b, cfg, FaultPlan{}); });
    sink.add(r.ms, res.stats, res.events, res.transport,
             static_cast<int>(res.attempts.size()));
    return std::move(res.product);
}

// serve-mixed: open-loop Poisson arrivals into one MultiplyService from one
// generator thread, resolved by one resolver thread.
Pass serve_mixed(const Options& opt, double seconds, bool traced,
                 SpanRecorder& rec) {
    struct Slot {
        Clock::time_point scheduled{};
        double latency_ms = kInf;
        std::int64_t span = -1;
        OutcomeStatus status = OutcomeStatus::Failed;
        bool shed = false;
        BigInt product;
    };
    struct Pending {
        std::size_t index;
        std::future<MultiplyOutcome> fut;
    };

    Pass p;
    p.has_service = true;
    std::vector<RequestSpec> specs;
    std::vector<std::pair<BigInt, BigInt>> operands;
    p.setup_s = 1e-6 * median_us(kSetupReps, [&] {
        specs = request_stream(opt.seed, kServeRate, seconds, kServeBitsMin,
                               kServeBitsMax);
        operands.assign(specs.size(), {});
        for (std::size_t i = 0; i < specs.size(); ++i) {
            request_operands(opt.seed, i, specs[i], operands[i].first,
                             operands[i].second);
        }
        // The first product is a fixed-size verified request, so set-up
        // work does not depend on what the seed drew first.
        MultiplyService service{ServiceConfig{}};
        MultiplyRequest req;
        fixed_operands(opt.seed, 0, kSetupBits, req.a, req.b);
        req.reliability_class = ReliabilityClass::Verified;
        const BigInt a = req.a, b = req.b;
        const MultiplyOutcome out = service.submit(std::move(req)).get();
        if (out.status != OutcomeStatus::Completed ||
            !residues_agree(a, b, out.product)) {
            throw std::runtime_error("serve-mixed: wrong product at set-up");
        }
    });
    MultiplyService service{ServiceConfig{}};
    ServiceDetail& sd = p.service;
    sd.requests = specs.size();
    std::vector<Slot> slots(specs.size());
    sd.submit_us.assign(specs.size(), 0);
    sd.gen_lag_ms.assign(specs.size(), 0);

    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> handoff;
    bool generator_done = false;
    double resolver_cpu_s = 0;

    p.before = sample_host();
    const auto start = Clock::now();
    std::exception_ptr generator_error;
    std::thread generator([&] {
        try {
            for (std::size_t i = 0; i < specs.size(); ++i) {
                Slot& slot = slots[i];
                slot.scheduled =
                    start + std::chrono::microseconds(specs[i].arrival_us);
                std::this_thread::sleep_until(slot.scheduled);
                const auto t0 = Clock::now();
                sd.gen_lag_ms[i] = ms_between(slot.scheduled, t0);
                slot.span = rec.begin("serve-mixed.op", -1, i);
                MultiplyRequest req;
                req.a = operands[i].first;
                req.b = operands[i].second;
                req.reliability_class = specs[i].cls;
                req.deadline = slot.scheduled + kServeSlo;
                try {
                    std::future<MultiplyOutcome> fut;
                    {
                        ScopedSpan s(rec, "service.submit", slot.span, i);
                        fut = service.submit(std::move(req));
                    }
                    sd.submit_us[i] = us_between(t0, Clock::now());
                    std::lock_guard<std::mutex> lock(mu);
                    handoff.push_back({i, std::move(fut)});
                } catch (const ServiceRejected&) {
                    sd.submit_us[i] = us_between(t0, Clock::now());
                    slot.shed = true;
                    rec.end(slot.span);
                }
                cv.notify_one();
            }
        } catch (...) {
            generator_error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mu);
        generator_done = true;
        cv.notify_one();
    });
    std::thread resolver([&] {
        const double cpu0 = thread_cpu_s();
        std::vector<Pending> pending;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mu);
                if (pending.empty()) {
                    cv.wait(lock, [&] {
                        return !handoff.empty() || generator_done;
                    });
                }
                while (!handoff.empty()) {
                    pending.push_back(std::move(handoff.front()));
                    handoff.pop_front();
                }
                if (pending.empty() && generator_done) break;
            }
            // Poll every outstanding future so each completion is stamped
            // when it happens, not when older requests finish.
            bool any = false;
            for (std::size_t k = 0; k < pending.size();) {
                if (pending[k].fut.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++k;
                    continue;
                }
                const auto now = Clock::now();
                Slot& slot = slots[pending[k].index];
                rec.end(slot.span);
                slot.latency_ms = ms_between(slot.scheduled, now);
                try {
                    MultiplyOutcome out = pending[k].fut.get();
                    slot.status = out.status;
                    slot.product = std::move(out.product);
                } catch (const ServiceRejected&) {
                    slot.shed = true;
                }
                pending[k] = std::move(pending.back());
                pending.pop_back();
                any = true;
            }
            if (!any && !pending.empty()) {
                pending.front().fut.wait_for(std::chrono::microseconds(50));
            }
        }
        resolver_cpu_s = thread_cpu_s() - cpu0;
    });
    generator.join();
    resolver.join();
    if (generator_error) std::rethrow_exception(generator_error);
    service.shutdown(/*drain=*/true);
    p.after = sample_host();
    p.window_cpu_ms =
        (p.after.process_cpu_s - p.before.process_cpu_s - resolver_cpu_s) *
        1000.0;
    sd.stats = service.stats();

    // Oracle and per-request records, outside the measured window.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        Slot& slot = slots[i];
        const MultiplyPlan plan = plan_multiply(
            specs[i].bits_a, specs[i].bits_b, specs[i].cls);
        if (plan.machine) ++sd.machine_plans;
        OpRecord r;
        r.engine = plan.engine == "sequential" ? "seq" : plan.engine;
        // Half the requests are sequential plans well under a millisecond;
        // p50/p90 over the mix would sit on the edge between the two
        // groups, so they cover the requests that reach the machine.
        r.counted = plan.machine;
        r.ms = slot.latency_ms;
        const bool completed =
            !slot.shed && slot.status == OutcomeStatus::Completed;
        {
            ScopedSpan check(rec, "oracle.check", -1, i);
            const auto& [a, b] = operands[i];
            settle(r, completed,
                   completed && product_ok(a, b, slot.product,
                                           reference_product(a, b)));
        }
        if (r.ok && r.ms <= std::chrono::duration<double, std::milli>(
                                kServeSlo)
                                .count()) {
            ++sd.slo_ok;
        }
        p.ops.push_back(std::move(r));
    }

    if (traced) {
        // Standalone replay of every request's plan: the queue wait is the
        // end-to-end latency minus the plan's own run time.
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (!p.ops[i].ok) continue;
            const MultiplyPlan plan = plan_multiply(
                specs[i].bits_a, specs[i].bits_b, specs[i].cls);
            OpRecord r;
            ScopedSpan op(rec, "serve-mixed.replay", -1, i);
            const BigInt product =
                replay_plan(plan, operands[i].first, operands[i].second, rec,
                            op.id(), i, r, p.layers);
            if (product != slots[i].product) {
                throw std::runtime_error("serve-mixed: replay disagrees");
            }
            sd.queue_wait_ms.push_back(p.ops[i].ms - r.ms);
        }
    }
    return p;
}

/// One pass of the workload. Closed loops keep going past the deadline
/// until they have run kMinRounds rounds.
Pass run_pass(const Options& opt, double seconds, bool traced,
              SpanRecorder& rec) {
    if (opt.workload == "large-mul") {
        return large_mul(opt, seconds, traced, rec);
    }
    if (opt.workload == "ft-recovery") {
        return ft_recovery(opt, seconds, traced, rec);
    }
    if (opt.workload == "serve-mixed") {
        return serve_mixed(opt, seconds, traced, rec);
    }
    throw std::invalid_argument("unknown workload: " + opt.workload);
}

// ---------------------------------------------------------------------------
// Metrics

/// Whether @p r belongs to a metric's population: the counted ops, or the
/// ops @p engine served.
bool in_population(const OpRecord& r, const std::string& engine) {
    return engine.empty() ? r.counted : r.engine == engine;
}

std::vector<double> latencies(const std::vector<OpRecord>& ops,
                              const std::string& engine = "") {
    std::vector<double> out;
    for (const OpRecord& r : ops) {
        if (in_population(r, engine)) out.push_back(r.ms);
    }
    return out;
}

/// The ops the end-to-end metrics read. A closed loop's rounds are cut into
/// kChunks chunks of consecutive rounds, ranked by the median latency of
/// their ranking ops (Pass::ranking_engine), and the ops of the
/// kQuietChunks fastest chunks are kept. Every round runs the same engine
/// rotation, so chunks differ mostly by what the host took from them:
/// hypervisor steal and other load only add time, and on a shared virtual
/// machine they come in stretches of seconds. A change to the program moves
/// every chunk and shows; a host stretch covering less than half the run
/// does not. Open loops keep every op.
std::vector<OpRecord> quiet_ops(const Pass& p) {
    if (p.rounds == 0) return p.ops;
    const auto chunk_of = [&](const OpRecord& r) {
        return r.round * kChunks / p.rounds;
    };
    std::vector<std::vector<double>> chunk_ms(kChunks);
    for (const OpRecord& r : p.ops) {
        if (in_population(r, p.ranking_engine)) {
            chunk_ms[chunk_of(r)].push_back(r.ms);
        }
    }
    const std::vector<bool> keep =
        fastest_chunks(std::move(chunk_ms), kQuietChunks);
    std::vector<OpRecord> out;
    for (const OpRecord& r : p.ops) {
        if (keep[chunk_of(r)]) out.push_back(r);
    }
    return out;
}

/// The latencies of @p ops that are counted (or of @p engine's), in strata
/// of engine and whether a hard fault was drawn. An engine's strata share
/// its count of ops in the proportions the fault model draws them, so a
/// median does not follow how many hard faults a seed's ops happened to
/// draw: a halted replica makes a replication op about twice as fast, and
/// in ft-recovery those ops sit near 40% of replication's, so the plain
/// median moves between the two groups with the draw.
std::vector<StratifiedSample> strata(const Pass& p,
                                     const std::vector<OpRecord>& ops,
                                     const std::string& engine = "") {
    std::map<std::string, double> count;
    for (const OpRecord& r : ops) {
        if (in_population(r, engine)) count[r.engine] += 1;
    }
    std::vector<StratifiedSample> out;
    for (const OpRecord& r : ops) {
        if (!in_population(r, engine)) continue;
        const auto it = p.hard_fault_p.find(r.engine);
        const double hard = it == p.hard_fault_p.end() ? 0.0 : it->second;
        out.push_back({r.ms, r.engine + (r.hard_fault ? "+hard" : ""),
                       count[r.engine] * (r.hard_fault ? hard : 1 - hard)});
    }
    return out;
}

double p50_ms(const Pass& p) {
    return require(stratified_percentile(strata(p, quiet_ops(p)), 50),
                   "p50_ms");
}

void account(const Pass& p, RunReport& rep) {
    for (const OpRecord& r : p.ops) {
        ++rep.attempted;
        if (!r.ok) ++rep.failed;
        if (r.wrong) rep.correct = false;
    }
}

double share(std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
}

void host_notes(const Pass& p, const char* label, RunReport& rep) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "host[%s]: steal_share=%.4f process_cpu_s=%.3f wall_s=%.3f",
                  label, steal_share(p.before, p.after),
                  p.after.process_cpu_s - p.before.process_cpu_s,
                  ms_between(p.before.at, p.after.at) / 1000.0);
    rep.notes.push_back(line);
}

void end_to_end(const Pass& p, RunReport& rep) {
    const std::vector<OpRecord> quiet = quiet_ops(p);
    const std::vector<double> kept = latencies(quiet);
    double cpu_ms_per_op = 0;
    if (p.has_service) {
        cpu_ms_per_op = p.window_cpu_ms / static_cast<double>(p.ops.size());
    } else {
        for (const OpRecord& r : quiet) {
            if (r.counted) cpu_ms_per_op += r.cpu_ms;
        }
        cpu_ms_per_op /= static_cast<double>(kept.size());
    }
    rep.metrics = {
        {"setup_s", p.setup_s, "s"},
        {"p50_ms", p50_ms(p), "ms"},
        {"cpu_ms_per_op", cpu_ms_per_op, "ms"},
    };
    for (const char* engine : {"seq", "parallel", "replication", "ft_poly"}) {
        const std::string name = std::string(engine) + "_p50_ms";
        rep.metrics.push_back(
            {name,
             require(stratified_percentile(strata(p, quiet, engine), 50),
                     name),
             "ms"});
    }
    // The tail of every op in the run, with its sample count and how many
    // the medians kept, for the human-readable lines. It is not a gated
    // metric: its run-to-run spread on a shared host is wider than any bound
    // the benchmark may set.
    const std::vector<double> all = latencies(p.ops);
    std::string tail = "samples: n=" + std::to_string(all.size()) +
                       " kept=" + std::to_string(kept.size());
    for (double q : {90.0, 99.0}) {
        const auto v = percentile(all, q);
        tail += " p" + std::to_string(static_cast<int>(q)) + "_ms=" +
                (v ? std::to_string(*v) : "undefined");
    }
    rep.notes.push_back(tail);
    char line[256];
    if (p.has_service) {
        std::snprintf(line, sizeof line, "service: slo_ok_share=%.6f",
                      share(p.service.slo_ok, p.service.requests));
        rep.notes.push_back(line);
    }
}

// Standalone probes of single layers at the shapes the workloads use.

std::vector<BigInt> random_digits(Rng& rng, std::size_t n, std::size_t bits) {
    std::vector<BigInt> v(n);
    for (BigInt& d : v) d = random_signed_bits(rng, bits);
    return v;
}

void probes(const Options& opt, SpanRecorder& rec,
            std::vector<Metric>& out) {
    Rng rng(opt.seed ^ 0x70726f6265ull);
    const ParallelConfig base = base_config();

    // A large-mul leaf: leaf_len evaluated digits (two evaluation levels
    // add two bits of growth and a sign).
    const ResolvedShape leaf = resolve_shape(base, kLargeBits);
    const std::vector<BigInt> la =
        random_digits(rng, leaf.leaf_len, kDigitBits + 2);
    const std::vector<BigInt> lb =
        random_digits(rng, leaf.leaf_len, kDigitBits + 2);
    const ToomPlan plan = ToomPlan::make(kSplit);
    const double leaf_us = median_us(5, [&] {
        ScopedSpan s(rec, "toom.toom_convolve", -1, 0);
        (void)toom_convolve(plan, la, lb, leaf.base_len);
    });

    // Empty machine runs at the worlds the engines use: parallel (9),
    // ft_poly/ft_linear (12), replication (18).
    double machine_us = 0;
    const std::array<int, 3> worlds = {9, 12, 18};
    for (int world : worlds) {
        machine_us += median_us(20, [&] {
            ScopedSpan s(rec, "runtime.Machine::run", -1, 0);
            Machine m(world);
            m.run([](Rank&) {});
        });
    }
    machine_us /= static_cast<double>(worlds.size());

    // ft_linear's column code at the 32,000-bit block shape.
    const ResolvedShape rshape = resolve_shape(base, kRecoveryBits);
    const std::size_t block = rshape.total_digits / kProcessors;
    const std::size_t m = kProcessors / (2 * kSplit - 1);
    const ErasureCode code(m, kFaults);
    std::vector<BigInt> data(m * block);
    for (BigInt& d : data) d = random_bits(rng, kDigitBits);
    std::vector<BigInt> parity;
    const double encode_us = median_us(20, [&] {
        ScopedSpan s(rec, "coding.encode_blocks", -1, 0);
        parity = code.encode_blocks(data, block);
    });
    std::vector<std::optional<std::vector<BigInt>>> dblocks(m), pblocks;
    for (std::size_t i = 1; i < m; ++i) {
        dblocks[i] = std::vector<BigInt>(
            data.begin() + static_cast<std::ptrdiff_t>(i * block),
            data.begin() + static_cast<std::ptrdiff_t>((i + 1) * block));
    }
    pblocks.emplace_back(std::vector<BigInt>(parity.begin(),
                                             parity.begin() +
                                                 static_cast<std::ptrdiff_t>(
                                                     block)));
    std::vector<std::vector<BigInt>> rebuilt;
    const double reconstruct_us = median_us(20, [&] {
        ScopedSpan s(rec, "coding.reconstruct_blocks", -1, 0);
        rebuilt = code.reconstruct_blocks(dblocks, pblocks);
    });
    if (rebuilt.empty() ||
        !std::equal(rebuilt[0].begin(), rebuilt[0].end(), data.begin())) {
        throw std::runtime_error("coding probe: reconstruction is wrong");
    }

    // The planner over a serve-mixed request stream.
    const std::vector<RequestSpec> specs = request_stream(
        opt.seed, kServeRate, 10.0, kServeBitsMin, kServeBitsMax);
    std::vector<MultiplyPlan> plans;
    plans.reserve(specs.size());
    const auto t0 = Clock::now();
    {
        ScopedSpan s(rec, "service.plan_multiply", -1, 0);
        for (const RequestSpec& r : specs) {
            plans.push_back(plan_multiply(r.bits_a, r.bits_b, r.cls));
        }
    }
    const double plan_us =
        us_between(t0, Clock::now()) / static_cast<double>(specs.size());

    // The serving layer alone: submit-to-product round trips of a small
    // sequential request through an idle service (admission, queue,
    // dispatch and promise hand-off around a ~2,000-bit multiply).
    MultiplyService service{ServiceConfig{}};
    BigInt sa, sb;
    fixed_operands(opt.seed, 1, 2000, sa, sb);
    BigInt sp;
    const double roundtrip_us = median_us(200, [&] {
        ScopedSpan s(rec, "service.submit", -1, 0);
        MultiplyRequest req;
        req.a = sa;
        req.b = sb;
        sp = service.submit(std::move(req)).get().product;
    });
    if (!residues_agree(sa, sb, sp)) {
        throw std::runtime_error("service probe: wrong product");
    }

    out.push_back({"toom.leaf_convolve_ms", leaf_us / 1000.0, "ms"});
    out.push_back({"runtime.machine_run_us", machine_us, "us"});
    out.push_back({"coding.encode_us", encode_us, "us"});
    out.push_back({"coding.reconstruct_us", reconstruct_us, "us"});
    out.push_back({"service.plan_us", plan_us, "us"});
    out.push_back({"service.roundtrip_us", roundtrip_us, "us"});
}

void per_layer(const Options& opt, const Pass& untraced, const Pass& traced,
               SpanRecorder& rec, RunReport& rep) {
    std::vector<Metric> m;
    probes(opt, rec, m);

    const LayerSink& L = traced.layers;
    std::array<double, 6> phase_sum{};
    double imbalance = 0;
    for (const PhaseTimes& t : L.phases) {
        for (std::size_t i = 0; i < 6; ++i) phase_sum[i] += t.ms[i];
        imbalance += t.leaf_imbalance;
    }
    const double nph = std::max<double>(1.0, static_cast<double>(L.phases.size()));
    for (std::size_t i = 0; i < 6; ++i) {
        m.push_back({std::string("core.") + kPhaseFamilies[i] + "_ms",
                     phase_sum[i] / nph, "ms"});
    }
    const double op_ms = mean(L.phase_op_ms);
    m.push_back({"core.leaf_share", op_ms > 0 ? phase_sum[5] / nph / op_ms : 0,
                 "share"});
    m.push_back({"core.leaf_imbalance", imbalance / nph, "ratio"});
    m.push_back({"core.model_gap",
                 L.model_gap.empty()
                     ? 0
                     : require(percentile(L.model_gap, 50), "core.model_gap"),
                 "ratio"});
    std::vector<double> rec_ms = L.recovery_ms;
    std::sort(rec_ms.begin(), rec_ms.end());
    m.push_back({"core.recovery_ms",
                 rec_ms.empty() ? 0 : rec_ms[rec_ms.size() / 2], "ms"});
    const double nops = std::max<double>(1.0, static_cast<double>(L.machine_ops));
    m.push_back({"core.rungs_per_op", static_cast<double>(L.rungs) / nops,
                 "rungs/op"});
    m.push_back({"core.escalated_share", share(L.escalated, L.machine_ops),
                 "share"});
    m.push_back({"runtime.frames_per_op", static_cast<double>(L.frames) / nops,
                 "frames/op"});
    m.push_back({"runtime.retransmits_per_op",
                 static_cast<double>(L.retransmits) / nops, "frames/op"});
    m.push_back({"runtime.detected_per_op",
                 static_cast<double>(L.detected) / nops, "frames/op"});
    m.push_back({"runtime.retained_words_per_op",
                 static_cast<double>(L.retained_words) / nops, "words/op"});
    m.push_back({"runtime.msgs_crit", static_cast<double>(L.crit.msgs),
                 "count"});
    m.push_back({"runtime.words_crit", static_cast<double>(L.crit.words),
                 "count"});
    m.push_back({"bigint.flops_crit", static_cast<double>(L.crit.flops),
                 "count"});
    m.push_back({"bigint.flops_agg", static_cast<double>(L.agg.flops),
                 "count"});

    const ServiceDetail& sd = traced.service;
    const bool svc = traced.has_service;
    auto pct = [&](const std::vector<double>& v, double q, const char* name) {
        return svc ? require(percentile(v, q), name) : 0.0;
    };
    const std::uint64_t sub = sd.stats.submitted;
    m.push_back({"service.queue_wait_ms_p50",
                 pct(sd.queue_wait_ms, 50, "service.queue_wait_ms_p50"), "ms"});
    m.push_back({"service.queue_wait_ms_p99",
                 pct(sd.queue_wait_ms, 99, "service.queue_wait_ms_p99"), "ms"});
    m.push_back({"service.submit_us_p99",
                 pct(sd.submit_us, 99, "service.submit_us_p99"), "us"});
    m.push_back({"service.batch_mean",
                 sd.stats.batches == 0
                     ? 0
                     : static_cast<double>(sd.stats.batched_requests) /
                           static_cast<double>(sd.stats.batches),
                 "requests"});
    m.push_back({"service.queue_depth_peak",
                 static_cast<double>(sd.stats.queue_depth_peak), "count"});
    m.push_back({"service.shed_share", share(sd.stats.shed_total(), sub),
                 "share"});
    m.push_back({"service.expired_share", share(sd.stats.expired, sub),
                 "share"});
    m.push_back({"service.machine_plan_share",
                 share(sd.machine_plans, sd.requests), "share"});
    m.push_back({"service.slo_ok_share", share(sd.slo_ok, sd.requests),
                 "share"});
    m.push_back({"service.gen_lag_ms",
                 pct(sd.gen_lag_ms, 99, "service.gen_lag_ms"), "ms"});
    std::vector<double> every_request;
    for (const OpRecord& r : traced.ops) every_request.push_back(r.ms);
    m.push_back({"service.e2e_p99_ms",
                 pct(every_request, 99, "service.e2e_p99_ms"), "ms"});

    // Self time of the op spans: the part of each op not spent inside the
    // layer calls it made.
    const std::vector<Span> spans = rec.spans();
    const std::vector<std::uint64_t> self = self_times_ns(spans);
    std::vector<double> op_self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent < 0 && spans[i].name == opt.workload + ".op") {
            op_self.push_back(static_cast<double>(self[i]) / 1e6);
        }
    }
    const double untraced_p50 = p50_ms(untraced);
    const double traced_p50 = p50_ms(traced);
    m.push_back({"trace.untraced_p50_ms", untraced_p50, "ms"});
    m.push_back({"trace.traced_p50_ms", traced_p50, "ms"});
    m.push_back({"trace.overhead_ms", traced_p50 - untraced_p50, "ms"});
    m.push_back({"trace.op_self_ms_p50",
                 require(percentile(op_self, 50), "trace.op_self_ms_p50"),
                 "ms"});
    rep.metrics = std::move(m);
}

}  // namespace

RunReport run_workload(const Options& opt) {
    RunReport rep;
    SpanRecorder rec;
    if (!opt.trace) {
        const Pass p = run_pass(opt, opt.seconds, false, rec);
        account(p, rep);
        end_to_end(p, rep);
        host_notes(p, "untraced", rep);
    } else {
        // Same seed, same inputs: half the time untraced, half traced; the
        // difference of their p50 is the tracing overhead.
        const Pass a = run_pass(opt, opt.seconds / 2, false, rec);
        rec.enable(true);
        const Pass b = run_pass(opt, opt.seconds / 2, true, rec);
        account(a, rep);
        account(b, rep);
        per_layer(opt, a, b, rec, rep);
        host_notes(a, "untraced", rep);
        host_notes(b, "traced", rep);
        if (!opt.spans_out.empty() && !rec.write(opt.spans_out)) {
            throw std::runtime_error("cannot write " + opt.spans_out);
        }
    }
    return rep;
}

}  // namespace perfbench
