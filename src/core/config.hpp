#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/transport.hpp"

namespace ftmul {

/// Configuration of the parallel Toom-Cook algorithms (Section 3).
struct ParallelConfig {
    /// Split number k >= 2.
    int k = 2;

    /// Number of standard processors; must be a power of 2k-1 (the paper's
    /// assumption; use fewer processors or pad otherwise).
    int processors = 9;

    /// Bits per top-level digit (the shared base is 2^digit_bits).
    std::size_t digit_bits = 64;

    /// Local memory per processor in 64-bit words; 0 means unlimited. When
    /// limited, the algorithm prepends DFS steps per Lemma 3.1.
    std::uint64_t memory_limit_words = 0;

    /// Base-case length (digits) of the lazy digit-vector convolution
    /// `toom_convolve`, the reference the leaf is tested against. The leaf
    /// itself (one Kronecker-packed product) does not read it.
    std::size_t base_len = 4;

    /// Force an exact number of DFS steps (-1 = derive from the memory
    /// limit). Used by the limited-memory benchmarks to sweep the knob.
    int forced_dfs_steps = -1;

    /// Record the typed event log of the run (phase enter/exit, messages,
    /// faults, recoveries, memory peaks; see runtime/events.hpp); exposed
    /// through ParallelRunResult::events / FtRunResult::events and consumed
    /// by the JSON run report and the Chrome-trace export.
    bool events = false;

    /// Explicit BFS/DFS schedule, e.g. "BDDB": 'D' = communication-free DFS
    /// step, 'B' = row-exchange BFS step. Empty = the optimal order (all
    /// DFS first, then all BFS — Ballard et al., cited in Section 3). Must
    /// contain exactly log_{2k-1}(processors) 'B's.
    std::string step_order;

    /// Delay faults (paper Section 1's third category): per-rank extra
    /// critical-path latency rounds charged during the multiplication phase,
    /// modeling stragglers. The plain algorithm absorbs the delay into its
    /// critical path; the polynomial-coded algorithm can discard the slow
    /// column instead (see bench_stragglers).
    std::vector<std::pair<int, std::uint64_t>> straggler_delays;

    /// Arm the frame-integrity transport guard (checksummed, sequenced,
    /// retained frames with NACK/retransmit recovery — see
    /// runtime/transport.hpp). Off by default: the data plane then behaves
    /// and charges exactly as before.
    bool transport_guard = false;

    /// Data-plane fault injection model (message corruption / drop / dup /
    /// reorder). An active model implies the guard. Filled by
    /// FaultInjector::draw for chaos campaigns.
    TransportFaultModel transport_faults;
};

/// The geometry actually executed, resolved from a config and an input size.
struct ResolvedShape {
    int k = 0;
    int npts = 0;             ///< 2k-1
    int processors = 0;       ///< P
    int bfs_steps = 0;        ///< log_{2k-1} P
    int dfs_steps = 0;
    std::size_t digit_bits = 0;
    std::size_t total_digits = 0;  ///< N = k^(dfs+bfs) * leaf_len
    std::size_t leaf_len = 0;      ///< digits per leaf block, multiple of P
    std::size_t base_len = 0;

    std::string to_string() const;
};

/// Compute the shape for an n-bit multiplication. Throws
/// std::invalid_argument when processors is not a positive power of 2k-1 or
/// the shape overflows (see resolve_shape_general).
ResolvedShape resolve_shape(const ParallelConfig& cfg, std::size_t n_bits);

/// Generalized shape used by the FT variants: a machine of @p world ranks
/// (the block-cyclic alignment unit) and @p levels split levels. Throws
/// std::invalid_argument when the padded length k^levels * world digits, or
/// its bit length, does not fit 64 bits.
ResolvedShape resolve_shape_general(int k, int world, int dfs_steps,
                                    int bfs_steps, int levels,
                                    std::size_t digit_bits,
                                    std::size_t base_len, std::size_t n_bits);

/// Estimated per-rank peak working set in words for a shape (digit slices
/// plus the ~2x result growth and the (2k-1)/k per-BFS-level expansion).
std::uint64_t estimate_peak_words(const ResolvedShape& s);

/// log_{base}(v) when v is an exact power of base (v = 1 gives 0); -1
/// otherwise.
int exact_log(std::uint64_t v, std::uint64_t base);

/// b^e for e >= 0 (wraps on overflow, like any unsigned product).
std::uint64_t ipow(std::uint64_t b, int e);

}  // namespace ftmul
