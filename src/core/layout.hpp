#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
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

/// Forward BFS exchange. The caller evaluated locally: @p eval_local holds
/// its slices of the npts evaluated blocks, concatenated (npts * s values,
/// s = per-block slice length, a multiple of bs). Group position j =
/// row * npts + col. Sends slice of block i to the row peer in column i and
/// assembles the received row pieces into this rank's slice of its *own
/// column's* block under the new layout (bs' = bs * npts over the column
/// subgroup). Returns that new slice (npts * s values).
std::vector<BigInt> exchange_forward(Rank& rank, const Group& g,
                                     std::size_t npts, std::size_t bs,
                                     std::vector<BigInt> eval_local, int tag);

/// Both operands' forward exchanges fused at the transport: the a- and
/// b-slices for each row peer travel in one batched mailbox delivery
/// (distinct tags keep them separable). Cost charges are exactly those of
/// exchange_forward(a, tag_a) followed by exchange_forward(b, tag_b) — one
/// message per slice per peer and 2*(npts-1) latency rounds.
std::pair<std::vector<BigInt>, std::vector<BigInt>> exchange_forward_pair(
    Rank& rank, const Group& g, std::size_t npts, std::size_t bs,
    std::vector<BigInt> a_local, std::vector<BigInt> b_local, int tag_a,
    int tag_b);

/// Inverse of exchange_forward for the way back up: @p child_local is this
/// rank's new-layout slice of its column's child result (length sc, a
/// multiple of bs * npts). Scatters the bs-chunks back across the row and
/// returns the old-layout slices of all npts child results, concatenated
/// (npts blocks of sc / npts values each).
std::vector<BigInt> exchange_backward(Rank& rank, const Group& g,
                                      std::size_t npts, std::size_t bs,
                                      std::vector<BigInt> child_local, int tag);

/// The column subgroup this rank recurses into after a forward exchange:
/// members {g[r*npts + col] : r}, ordered by row.
Group column_subgroup(const Group& g, std::size_t npts, std::size_t col);

}  // namespace ftmul
