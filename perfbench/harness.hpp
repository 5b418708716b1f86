#pragma once

// Measurement harness of the end-to-end benchmark: percentiles, the
// independent product oracle, host-noise sampling, span recording and the
// seeded input streams. Everything here is benchmark code; the program
// under test only ever sees the generated operands.

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "core/resilient.hpp"
#include "runtime/fault_injector.hpp"
#include "service/request.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// A percentile is reported only when at least this many samples lie
/// strictly above its nearest rank.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest rank of the q-th percentile (0 < q <= 100) among n samples:
/// ceil(q/100 * n), 1-based.
std::size_t nearest_rank(std::size_t n, double q);

/// Nearest-rank q-th percentile, or nullopt when fewer than kMinBeyond
/// samples lie beyond it (so the p50 of 19 samples and the p99 of 999 are
/// both undefined).
std::optional<double> percentile(std::vector<double> samples, double q);

double mean(const std::vector<double>& samples);

/// A latency sample and the stratum of the population it was drawn from.
/// The samples of one stratum carry the same share.
struct StratifiedSample {
    double value = 0;
    std::string stratum;
    double share = 1;  // the stratum's share of the population
};

/// Nearest-rank q-th percentile of the population the strata make up in
/// their given shares, whatever their shares of the samples: each sample
/// weighs its stratum's share over the stratum's sample count, and the
/// result is the smallest sample whose cumulative weight reaches q percent
/// of the total. With shares in proportion to the sample counts it is
/// percentile(). nullopt when fewer than kMinBeyond samples lie beyond it.
std::optional<double> stratified_percentile(
    std::vector<StratifiedSample> samples, double q);

/// Which chunks of a run to keep: the @p keep chunks whose nearest-rank
/// median latency is lowest, ties going to the earlier chunk. Every chunk
/// must hold at least one sample.
std::vector<bool> fastest_chunks(std::vector<std::vector<double>> chunk_ms,
                                 std::size_t keep);

// ---------------------------------------------------------------------------
// Product oracle
// ---------------------------------------------------------------------------

/// Moduli of the residue basket: the three largest primes below 2^64.
inline constexpr std::array<std::uint64_t, 3> kOraclePrimes = {
    18446744073709551557ull, 18446744073709551533ull,
    18446744073709551521ull};

/// x mod m in [0, m), computed from the limbs alone with native 128-bit
/// arithmetic (no BigInt kernel involved).
std::uint64_t residue(const ftmul::BigInt& x, std::uint64_t m);

/// a * b == product modulo every prime of the basket.
bool residues_agree(const ftmul::BigInt& a, const ftmul::BigInt& b,
                    const ftmul::BigInt& product);

/// The full check applied to every product outside the timed regions: the
/// residue basket, then equality with the sequential reference.
bool product_ok(const ftmul::BigInt& a, const ftmul::BigInt& b,
                const ftmul::BigInt& product, const ftmul::BigInt& reference);

/// Sequential Toom-2 reference product (the repository's toom_multiply).
ftmul::BigInt reference_product(const ftmul::BigInt& a,
                                const ftmul::BigInt& b);

// ---------------------------------------------------------------------------
// Host noise and CPU time
// ---------------------------------------------------------------------------

/// Process user+sys CPU seconds (all threads, including joined ones).
double process_cpu_s();

/// Calling thread's user+sys CPU seconds.
double thread_cpu_s();

/// Aggregate CPU ticks from /proc/stat (zero when unreadable) plus the
/// process CPU time, sampled together.
struct HostSample {
    std::uint64_t steal_ticks = 0;
    std::uint64_t total_ticks = 0;
    double process_cpu_s = 0;
    Clock::time_point at{};
};

HostSample sample_host();

/// Share of all CPU ticks between two samples that the hypervisor stole.
double steal_share(const HostSample& before, const HostSample& after);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    std::string name;
    std::uint64_t start_ns = 0;  ///< since the recorder's epoch
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;    ///< index of the enclosing span, -1 = root
    std::uint64_t op = 0;        ///< spans of one operation share this id
};

/// In-memory span log, written out once at exit. Thread-safe; a disabled
/// recorder records nothing and costs one branch per call.
class SpanRecorder {
public:
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /// Open a span; returns its index (or -1 when disabled).
    std::int64_t begin(std::string name, std::int64_t parent,
                       std::uint64_t op);
    void end(std::int64_t id);

    std::vector<Span> spans() const;

    /// Write every span with its self time as a JSON array; false on I/O
    /// failure.
    bool write(const std::string& path) const;

private:
    std::uint64_t now_ns() const;

    bool enabled_ = false;
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/// RAII span on a recorder.
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder& rec, std::string name, std::int64_t parent,
               std::uint64_t op)
        : rec_(rec), id_(rec.begin(std::move(name), parent, op)) {}
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::int64_t id() const { return id_; }

private:
    SpanRecorder& rec_;
    std::int64_t id_;
};

/// Self time of every span in ns: its duration minus the part of its
/// interval covered by its direct children (overlapping children are
/// counted once).
std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Seeded input streams
// ---------------------------------------------------------------------------

/// One serve-mixed request, a pure function of (seed, index).
struct RequestSpec {
    std::size_t bits_a = 0;
    std::size_t bits_b = 0;
    ftmul::ReliabilityClass cls = ftmul::ReliabilityClass::Fast;
    std::uint64_t arrival_us = 0;  ///< scheduled send time from run start
};

/// Poisson arrivals at @p rate per second over [0, seconds): sizes are
/// log-uniform over [bits_min, bits_max] (the doubling-bucket draw of
/// ftmul_serve) and the class mix is 50/20/30 fast / fast_redundant /
/// verified.
std::vector<RequestSpec> request_stream(std::uint64_t seed, double rate,
                                        double seconds, std::size_t bits_min,
                                        std::size_t bits_max);

/// Operands of request @p i, drawn from their own stream.
void request_operands(std::uint64_t seed, std::uint64_t i,
                      const RequestSpec& spec, ftmul::BigInt& a,
                      ftmul::BigInt& b);

/// Two operands of exactly @p bits bits for closed-loop op @p i.
void fixed_operands(std::uint64_t seed, std::uint64_t i, std::size_t bits,
                    ftmul::BigInt& a, ftmul::BigInt& b);

/// Byte serialization of a request stream with its operands, for the
/// reproducibility test.
std::string serialize_requests(std::uint64_t seed,
                               const std::vector<RequestSpec>& specs);

/// Probability that FaultInjector::draw fires at least one hard fault for
/// @p cfg: every (phase, rank) site fires on its own with probability
/// min(1, hard_rate * phase_weight * rank_weight).
double hard_fault_probability(const ftmul::FaultInjectorConfig& cfg);

/// The ft-recovery fault model over @p cfg's fault surface: hard faults at
/// rate 0.03 per (rank, phase) site, 0.01 each for message corruption,
/// drop, duplication and reordering.
ftmul::FaultInjectorConfig recovery_fault_config(
    const ftmul::ResilientConfig& cfg);

/// Byte serialization of one trial's injected faults, including the fates
/// of the first frames on the links among ranks 0..3.
std::string serialize_faults(const ftmul::InjectedFaults& f);

}  // namespace perfbench
