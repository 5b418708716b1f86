#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "core/coeff_block.hpp"
#include "runtime/group.hpp"
#include "runtime/machine.hpp"

namespace ftmul {

/// Block-cyclic slice plumbing for the BFS-DFS parallel algorithm
/// (Section 3 data partitioning).
///
/// Invariant: a conceptual vector of `len` digits is distributed over an
/// ordered group of m ranks with block size bs — rank at group position j
/// owns positions {t : floor(t / bs) mod m == j}, stored ascending in a
/// contiguous local vector. `len` is always a multiple of bs*m.
///
/// Under this layout, digit position t of *every* one of the k sub-blocks of
/// the vector has the same owner, so evaluation and interpolation are fully
/// local, and a BFS step needs only the row exchange below, after which the
/// new layout is again block-cyclic with block size bs*(2k-1) over each
/// column subgroup. This reproduces the paper's "communication occurs only
/// within the rows" property.

/// Positions of the local slice for group position j.
std::vector<std::size_t> owned_positions(std::size_t len, std::size_t bs,
                                         std::size_t m, std::size_t j);

/// Extract the local slice of a full vector (tests and benches).
std::vector<BigInt> slice_of(const std::vector<BigInt>& full, std::size_t bs,
                             std::size_t m, std::size_t j);

/// Rebuild a full vector from all m slices (tests and benches; the engines
/// assemble their product from the slices with kronecker_assemble).
std::vector<BigInt> unslice(const std::vector<std::vector<BigInt>>& slices,
                            std::size_t bs);

/// Frame the picked coefficients of @p block in the BigInt wire format
/// ([count, (sign, limb count, magnitude)...], byte-identical to
/// Rank::frame_bigints of their values) into a pooled payload, for send_buf
/// and send_batch. Charges nothing.
PayloadBuf frame_coeffs(const CoeffBlock& block, const CoeffRuns& pick);

/// Receive one frame from (@p src, @p tag) and decode it into the picked
/// coefficients of @p out; throws std::runtime_error when its count differs
/// from pick.count.
void recv_coeffs(Rank& rank, int src, int tag, CoeffBlock& out,
                 const CoeffRuns& pick);

/// Both operands' forward BFS exchanges, fused at the transport. The caller
/// evaluated locally: @p a_local / @p b_local hold its slices of the npts
/// evaluated blocks, concatenated (npts * s coefficients, s = per-block
/// slice length, a multiple of bs). Group position j = row * npts + col.
/// The slices of block i go to the row peer in column i — the a- and
/// b-slices in one batched mailbox delivery, distinct tags keeping them
/// separable, each charged as its own message — and the received row pieces
/// are interleaved into this rank's slice of its *own column's* blocks under
/// the new layout (bs' = bs * npts over the column subgroup): npts * s
/// coefficients each, at the inputs' strides. Charges one message per slice
/// per peer and 2*(npts-1) latency rounds.
std::pair<CoeffBlock, CoeffBlock> exchange_forward_pair(
    Rank& rank, const Group& g, std::size_t npts, std::size_t bs,
    CoeffBlock a_local, CoeffBlock b_local, int tag_a, int tag_b);

/// Inverse of the forward exchange for the way back up: @p child_local is
/// this rank's new-layout slice of its column's child result (length sc, a
/// multiple of bs * npts). Scatters the bs-chunks back across the row and
/// returns the old-layout slices of all npts child results, concatenated
/// (npts blocks of sc / npts coefficients each, at the child's stride).
CoeffBlock exchange_backward(Rank& rank, const Group& g, std::size_t npts,
                             std::size_t bs, CoeffBlock child_local, int tag);

/// The column subgroup this rank recurses into after a forward exchange:
/// members {g[r*npts + col] : r}, ordered by row.
Group column_subgroup(const Group& g, std::size_t npts, std::size_t col);

}  // namespace ftmul
