#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/bigint.hpp"
#include "core/config.hpp"
#include "runtime/group.hpp"
#include "runtime/machine.hpp"
#include "toom/plan.hpp"

namespace ftmul {

/// Outcome of a parallel multiplication: the product plus the measured
/// machine-model costs the benchmarks report.
struct ParallelRunResult {
    BigInt product;
    ResolvedShape shape;
    RunStats stats;

    /// Typed event log of the run, when ParallelConfig::events was set.
    std::shared_ptr<EventLog> events;

    /// Transport-guard accounting of the run (all zeros when
    /// ParallelConfig::transport_guard / transport_faults were off).
    TransportStats transport;
};

/// Parallel Toom-Cook-k (paper Section 3): BFS-DFS traversal of the
/// recursion tree over P = (2k-1)^j processors with a block-cyclic digit
/// layout. DFS steps (when memory-limited) are communication-free; each BFS
/// step exchanges data only within rows of the processor grid and hands each
/// column one sub-problem. Leaves run sequential Toom-Cook.
///
/// Not fault-tolerant: scheduling faults for this entry point is undefined
/// behaviour (see ft_*.hpp for the tolerant variants).
ParallelRunResult parallel_toom_multiply(const BigInt& a, const BigInt& b,
                                         const ParallelConfig& cfg);

namespace core_detail {

/// Internals shared by the FT variants (see also core/ft_common.hpp).

/// This rank's slice of the split digits of |v| (layout bs=1 over P ranks).
std::vector<BigInt> local_input_digits(const BigInt& v,
                                       const ResolvedShape& shape, int nranks,
                                       int my_index);

/// The recursive distributed convolution; returns this rank's slice of the
/// result vector. See layout.hpp for the slice invariant. Performs dfs_left
/// DFS steps followed by BFS steps until the group is singleton (the
/// optimal order per Ballard et al., cited in Section 3).
std::vector<BigInt> dist_convolve(Rank& rank, const ToomPlan& plan,
                                  const ResolvedShape& shape, const Group& g,
                                  std::size_t bs, std::vector<BigInt> a_loc,
                                  std::vector<BigInt> b_loc, std::size_t len,
                                  int dfs_left, int level);

/// Generalized traversal: @p steps spells the remaining schedule, 'D' for a
/// communication-free DFS step, 'B' for a row-exchange BFS step; the leaf
/// runs when steps are exhausted (the group must be singleton by then, i.e.
/// steps must contain exactly log_{2k-1}(|g|) 'B's).
std::vector<BigInt> dist_convolve_steps(Rank& rank, const ToomPlan& plan,
                                        const ResolvedShape& shape,
                                        const Group& g, std::size_t bs,
                                        std::vector<BigInt> a_loc,
                                        std::vector<BigInt> b_loc,
                                        std::size_t len,
                                        std::string_view steps, int level);

/// Leaf kernel: exact convolution of the two (signed) digit blocks via one
/// Kronecker-packed sequential Toom-Cook product (kronecker_convolve),
/// padded to exactly twice the input length.
std::vector<BigInt> leaf_multiply(const ToomPlan& plan,
                                  std::vector<BigInt> a_loc,
                                  std::vector<BigInt> b_loc);

}  // namespace core_detail

}  // namespace ftmul
