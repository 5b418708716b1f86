#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bigint/random.hpp"
#include "runtime/json.hpp"
#include "runtime/report.hpp"
#include "toom/sequential.hpp"

namespace perfbench {

using ftmul::BigInt;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Percentiles

std::size_t nearest_rank(std::size_t n, double q) {
    const double r = std::ceil(q / 100.0 * static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

std::optional<double> percentile(std::vector<double> samples, double q) {
    const std::size_t n = samples.size();
    if (n == 0) return std::nullopt;
    const std::size_t rank = nearest_rank(n, q);
    if (n - rank < kMinBeyond) return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::optional<double> stratified_percentile(
    std::vector<StratifiedSample> samples, double q) {
    std::map<std::string, std::pair<double, std::size_t>> strata;
    for (const StratifiedSample& s : samples) {
        auto& [share, count] = strata[s.stratum];
        share = s.share;
        ++count;
    }
    double total = 0;
    for (const auto& [name, st] : strata) total += st.first;
    std::sort(samples.begin(), samples.end(),
              [](const StratifiedSample& a, const StratifiedSample& b) {
                  return a.value < b.value;
              });
    // The tolerance absorbs rounding in the running sum, so equal weights
    // land on the nearest rank exactly.
    const double target = q / 100.0 * total * (1 - 1e-9);
    double cum = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const auto& st = strata[samples[i].stratum];
        cum += st.first / static_cast<double>(st.second);
        if (cum >= target) {
            if (samples.size() - 1 - i < kMinBeyond) return std::nullopt;
            return samples[i].value;
        }
    }
    return std::nullopt;
}

std::vector<bool> fastest_chunks(std::vector<std::vector<double>> chunk_ms,
                                 std::size_t keep) {
    std::vector<std::pair<double, std::size_t>> ranked;
    for (std::size_t c = 0; c < chunk_ms.size(); ++c) {
        std::vector<double>& v = chunk_ms[c];
        if (v.empty()) throw std::invalid_argument("fastest_chunks: empty chunk");
        const auto mid = v.begin() + static_cast<std::ptrdiff_t>(
                                         nearest_rank(v.size(), 50) - 1);
        std::nth_element(v.begin(), mid, v.end());
        ranked.push_back({*mid, c});
    }
    std::sort(ranked.begin(), ranked.end());
    std::vector<bool> kept(chunk_ms.size(), false);
    for (std::size_t i = 0; i < keep && i < ranked.size(); ++i) {
        kept[ranked[i].second] = true;
    }
    return kept;
}

double mean(const std::vector<double>& samples) {
    if (samples.empty()) return 0.0;
    double s = 0;
    for (double v : samples) s += v;
    return s / static_cast<double>(samples.size());
}

// ---------------------------------------------------------------------------
// Product oracle

std::uint64_t residue(const BigInt& x, std::uint64_t m) {
    const auto& limbs = x.magnitude();
    unsigned __int128 r = 0;
    for (auto it = limbs.rbegin(); it != limbs.rend(); ++it) {
        r = ((r << 64) | *it) % m;
    }
    auto res = static_cast<std::uint64_t>(r);
    if (x.is_negative() && res != 0) res = m - res;
    return res;
}

bool residues_agree(const BigInt& a, const BigInt& b, const BigInt& product) {
    for (std::uint64_t m : kOraclePrimes) {
        const unsigned __int128 ab =
            static_cast<unsigned __int128>(residue(a, m)) * residue(b, m);
        if (static_cast<std::uint64_t>(ab % m) != residue(product, m)) {
            return false;
        }
    }
    return true;
}

bool product_ok(const BigInt& a, const BigInt& b, const BigInt& product,
                const BigInt& reference) {
    return residues_agree(a, b, product) && product == reference;
}

BigInt reference_product(const BigInt& a, const BigInt& b) {
    static const ftmul::ToomPlan plan = ftmul::ToomPlan::make(2);
    return ftmul::toom_multiply(a, b, plan);
}

// ---------------------------------------------------------------------------
// Host noise and CPU time

namespace {

double rusage_s(int who) {
    rusage ru{};
    if (getrusage(who, &ru) != 0) return 0.0;
    auto s = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

}  // namespace

double process_cpu_s() { return rusage_s(RUSAGE_SELF); }
double thread_cpu_s() { return rusage_s(RUSAGE_THREAD); }

HostSample sample_host() {
    HostSample s;
    std::ifstream in("/proc/stat");
    std::string cpu;
    if (in >> cpu && cpu == "cpu") {
        // user nice system idle iowait irq softirq steal ...
        for (int field = 0; field < 8; ++field) {
            std::uint64_t v = 0;
            if (!(in >> v)) break;
            s.total_ticks += v;
            if (field == 7) s.steal_ticks = v;
        }
    }
    s.process_cpu_s = process_cpu_s();
    s.at = Clock::now();
    return s;
}

double steal_share(const HostSample& before, const HostSample& after) {
    if (after.total_ticks <= before.total_ticks) return 0.0;
    return static_cast<double>(after.steal_ticks - before.steal_ticks) /
           static_cast<double>(after.total_ticks - before.total_ticks);
}

// ---------------------------------------------------------------------------
// Spans

std::uint64_t SpanRecorder::now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
}

std::int64_t SpanRecorder::begin(std::string name, std::int64_t parent,
                                 std::uint64_t op) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.op = op;
    s.start_ns = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int64_t id) {
    if (id < 0) return;
    const std::uint64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<Span> SpanRecorder::spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool SpanRecorder::write(const std::string& path) const {
    const std::vector<Span> all = spans();
    const std::vector<std::uint64_t> self = self_times_ns(all);
    ftmul::Json arr = ftmul::Json::array();
    for (std::size_t i = 0; i < all.size(); ++i) {
        ftmul::Json j = ftmul::Json::object();
        j.set("name", all[i].name);
        j.set("start_ns", static_cast<unsigned long long>(all[i].start_ns));
        j.set("end_ns", static_cast<unsigned long long>(all[i].end_ns));
        j.set("parent", static_cast<long long>(all[i].parent));
        j.set("op", static_cast<unsigned long long>(all[i].op));
        j.set("self_ns", static_cast<unsigned long long>(self[i]));
        arr.push_back(std::move(j));
    }
    return ftmul::write_text_file(path, arr.dump() + "\n");
}

std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size()) {
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                  s.end_ns);
        }
    }
    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::uint64_t lo = spans[i].start_ns;
        const std::uint64_t hi = std::max(lo, spans[i].end_ns);
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0;
        std::uint64_t cursor = lo;
        for (auto [s, e] : iv) {
            s = std::max(s, cursor);
            e = std::min(e, hi);
            if (e > s) {
                covered += e - s;
                cursor = e;
            }
        }
        self[i] = (hi - lo) - covered;
    }
    return self;
}

// ---------------------------------------------------------------------------
// Seeded input streams

namespace {

/// The doubling-bucket size draw of ftmul_serve: a uniform bucket
/// [lo*2^d, lo*2^(d+1)) clipped to hi, then a uniform offset inside it.
std::size_t draw_bits(ftmul::Rng& rng, std::size_t lo, std::size_t hi) {
    if (lo >= hi) return lo;
    int doublings = 0;
    while ((lo << (doublings + 1)) < hi && doublings < 40) ++doublings;
    const std::size_t base = std::min(
        hi, lo << rng.next_below(static_cast<std::uint64_t>(doublings + 1)));
    const std::size_t span = std::min(base, hi - base);
    return base + (span == 0 ? 0 : rng.next_below(span));
}

double unit_interval(ftmul::Rng& rng) {
    // 53 random bits in (0, 1]: never 0, so log() below stays finite.
    return (static_cast<double>(rng.next_u64() >> 11) + 1.0) * 0x1.0p-53;
}

}  // namespace

std::vector<RequestSpec> request_stream(std::uint64_t seed, double rate,
                                        double seconds, std::size_t bits_min,
                                        std::size_t bits_max) {
    ftmul::Rng arrivals(seed ^ 0x6172726976616cull);
    std::vector<RequestSpec> out;
    double t = 0;
    for (std::uint64_t i = 0;; ++i) {
        t += -std::log(unit_interval(arrivals)) / rate;
        if (t >= seconds) break;
        ftmul::Rng rng(seed ^ (0x7365727665ull + i * 0x9e3779b97f4a7c15ull));
        RequestSpec s;
        s.bits_a = draw_bits(rng, bits_min, bits_max);
        s.bits_b = draw_bits(rng, bits_min, bits_max);
        const std::uint64_t c = rng.next_below(10);
        s.cls = c < 5   ? ftmul::ReliabilityClass::Fast
                : c < 7 ? ftmul::ReliabilityClass::FastRedundant
                        : ftmul::ReliabilityClass::Verified;
        s.arrival_us = static_cast<std::uint64_t>(t * 1e6);
        out.push_back(s);
    }
    return out;
}

void request_operands(std::uint64_t seed, std::uint64_t i,
                      const RequestSpec& spec, BigInt& a, BigInt& b) {
    ftmul::Rng rng(seed ^ (0x6f706572616e64ull + i * 0x9e3779b97f4a7c15ull));
    a = ftmul::random_bits(rng, spec.bits_a);
    b = ftmul::random_bits(rng, spec.bits_b);
}

void fixed_operands(std::uint64_t seed, std::uint64_t i, std::size_t bits,
                    BigInt& a, BigInt& b) {
    ftmul::Rng rng(seed ^ (0x636c6f736564ull + i * 0x9e3779b97f4a7c15ull));
    a = ftmul::random_bits(rng, bits);
    b = ftmul::random_bits(rng, bits);
}

std::string serialize_requests(std::uint64_t seed,
                               const std::vector<RequestSpec>& specs) {
    std::ostringstream os;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RequestSpec& s = specs[i];
        BigInt a, b;
        request_operands(seed, i, s, a, b);
        os << i << ' ' << s.bits_a << ' ' << s.bits_b << ' '
           << ftmul::to_string(s.cls) << ' ' << s.arrival_us << ' '
           << a.to_hex() << ' ' << b.to_hex() << '\n';
    }
    return os.str();
}

double hard_fault_probability(const ftmul::FaultInjectorConfig& cfg) {
    const auto weight = [](const std::vector<double>& w, std::size_t i) {
        return w.empty() ? 1.0 : w[i];
    };
    double none = 1;
    for (std::size_t p = 0; p < cfg.phases.size(); ++p) {
        for (std::size_t r = 0; r < cfg.ranks.size(); ++r) {
            none *= 1 - std::min(1.0, cfg.hard_rate *
                                          weight(cfg.phase_weights, p) *
                                          weight(cfg.rank_weights, r));
        }
    }
    return 1 - none;
}

ftmul::FaultInjectorConfig recovery_fault_config(
    const ftmul::ResilientConfig& cfg) {
    const ftmul::FaultSurface surface = ftmul::fault_surface(cfg);
    ftmul::FaultInjectorConfig fic;
    fic.phases = surface.phases;
    fic.ranks = surface.ranks;
    fic.hard_rate = 0.03;
    fic.msg_corrupt_rate = 0.01;
    fic.msg_drop_rate = 0.01;
    fic.msg_dup_rate = 0.01;
    fic.msg_reorder_rate = 0.01;
    return fic;
}

std::string serialize_faults(const ftmul::InjectedFaults& f) {
    std::ostringstream os;
    for (const auto& [phase, rank] : f.hard.all()) {
        os << "hard " << phase << ' ' << rank << '\n';
    }
    for (const auto& [phase, rank] : f.soft.all()) {
        os << "soft " << phase << ' ' << rank << '\n';
    }
    for (const auto& [rank, rounds] : f.stragglers) {
        os << "straggler " << rank << ' ' << rounds << '\n';
    }
    const ftmul::TransportFaultModel& t = f.transport;
    os << "transport " << t.seed << ' ' << t.trial << ' ' << t.corrupt_rate
       << ' ' << t.drop_rate << ' ' << t.dup_rate << ' ' << t.reorder_rate
       << '\n';
    // Frame fates are drawn lazily as traffic flows; pin the first frames
    // of a few links so the serialization covers the data-plane stream too.
    for (int src = 0; src < 4; ++src) {
        for (int dst = 0; dst < 4; ++dst) {
            if (src == dst) continue;
            os << "link " << src << ' ' << dst;
            for (std::uint64_t k = 0; k < 32; ++k) {
                os << ' ' << ftmul::to_string(t.draw(src, dst, k));
            }
            os << '\n';
        }
    }
    return os.str();
}

}  // namespace perfbench
