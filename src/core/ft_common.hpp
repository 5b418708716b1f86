#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "core/coeff_block.hpp"
#include "core/config.hpp"
#include "runtime/machine.hpp"

namespace ftmul::core_detail {

// Steps two or more engines share: run scaffolding, state packing, the
// overlap-add fold, the Section 4.1 linear column code and the Section 4.2
// polynomial column-loss handling. None of them branches on which engine
// calls it; engine-specific choices arrive as parameters.

// ---- run scaffolding ---------------------------------------------------

/// Enable the event log when cfg.events is set, and arm the transport
/// guard / fault-injection shim per cfg (no-op when neither is requested).
/// Every engine calls this right after building its Machine so the whole
/// family honors the same observability and transport configuration.
void arm_transport(Machine& machine, const ParallelConfig& cfg);

/// The signed product a*b from the ranks' positional result slices (layout
/// bs=1): one linear carry walk (kronecker_assemble) recomposes |a*b|
/// straight from the slices, the operand signs fix the sign.
BigInt signed_product(std::span<const CoeffBlock> slices,
                      std::size_t digit_bits, const BigInt& a,
                      const BigInt& b);

/// Fill a finished run's stats, transport accounting, event log and
/// product. The algorithm's output is distributed (as in the paper); the
/// recomposition is verification plumbing outside the cost model.
template <class Result>
void finish_run(Result& result, const Machine& machine,
                const std::vector<CoeffBlock>& slices, const BigInt& a,
                const BigInt& b) {
    result.stats = machine.stats();
    result.transport = machine.transport_stats();
    result.events = machine.event_log();
    result.product = signed_product(slices, result.shape.digit_bits, a, b);
}

// ---- state packing and folding -------------------------------------------

/// The (a|b) state a code protects, as the BigInts the coding layer takes:
/// x followed by y.
std::vector<BigInt> pack_pair(const CoeffBlock& x, const CoeffBlock& y);

/// Inverse of pack_pair: split s at its midpoint into x and y, each at the
/// stride it already has.
void unpack_pair(const std::vector<BigInt>& s, CoeffBlock& x, CoeffBlock& y);

/// Overlap-add the npts interpolated coefficient blocks (each the positional
/// result of a len/k sub-product, rc local values) into the positional result
/// of the len-sized problem (out_local_len local values). Block i sits at
/// local offset i*block_gap_local — whole cyclic cycles, so the operation is
/// fully local.
CoeffBlock fold_blocks_local(const CoeffBlock& blocks, std::size_t npts,
                             std::size_t rc, std::size_t block_gap_local,
                             std::size_t out_local_len);

// ---- linear column code (Section 4.1) ------------------------------------

/// One column of the systematic Vandermonde code: the data ranks `members`
/// (a member's weight index is its position in the list) and f code ranks
/// code_base + j*code_stride + col, j < f. Every rank >= code_base is a
/// code rank.
struct LinearColumn {
    const char* engine;  ///< names the engine in UnrecoverableFault text
    int code_base;
    int code_stride;
    int f;
    std::vector<int> members;
    int col;

    int code_rank(int j) const { return code_base + j * code_stride + col; }
    bool is_code(int rank) const { return rank >= code_base; }
};

/// A linear-code fault schedule: phase -> column -> sorted dead ranks.
struct ColumnFaults {
    std::map<std::string, std::map<int, std::vector<int>>> by_phase_col;

    /// The dead ranks of column `col` at `phase`; nullptr when none.
    const std::vector<int>* dead_in(const std::string& phase, int col) const;
};

/// Encode: weighted reduces (tags tag..tag+f-1) placing a fresh code of
/// `state` on the column's f code ranks. Data ranks contribute; code ranks
/// receive (and return) their code vector.
std::vector<BigInt> encode_column(Rank& rank, const LinearColumn& c,
                                  const std::vector<BigInt>& state, int tag);

/// Recovery: rebuild every dead rank's state from the survivors and the
/// column's first |dead| code ranks (reduce tags tag..tag+|dead|-1, result
/// fan-out tags tag+f+1..). `state` is the code vector on code ranks and
/// the protected state on survivors. Returns the reconstructed state on
/// replacements, empty elsewhere.
std::vector<BigInt> recover_column(Rank& rank, const LinearColumn& c,
                                   const std::string& phase,
                                   const std::vector<int>& dead,
                                   const std::vector<BigInt>& state, int tag);

/// Encode-then-maybe-recover at one protected boundary: enter
/// `encode_label` and encode `state`; data ranks then enter `phase` (where
/// the fault plan strikes); when `dead` names failed ranks of this column,
/// the survivors and the first |dead| code ranks enter "recover-<phase>",
/// rebuild the dead ranks' state as recovery work, and resume in
/// "<phase>+post-recovery". Returns true when this rank failed here and
/// `state` now holds the rebuilt data.
bool protect_column(Rank& rank, const LinearColumn& c,
                    const std::string& encode_label, const std::string& phase,
                    const std::vector<int>* dead, std::vector<BigInt>& state,
                    int encode_tag, int recover_tag);

// ---- polynomial column loss (Section 4.2) --------------------------------

/// A polynomial-coded grid of `wide` columns after the multiplication phase
/// lost the `doomed` ones: the first `needed` survivors supply the
/// interpolation points, and the first survivor substitutes for the rows'
/// dead peers.
struct PolyLoss {
    std::size_t wide = 0;
    std::set<int> doomed;
    std::vector<std::size_t> used;
    std::size_t sub = 0;

    PolyLoss(std::set<int> doomed_cols, int wide_cols, int needed);

    /// Roles column `col` interpolates: its own, plus every doomed column's
    /// (ascending) when it is the substitute.
    std::vector<std::size_t> roles(std::size_t col) const;
};

/// Backward exchange with substitution: this rank's child result holds
/// `wide` interleaved pieces (piece c2 is every wide-th coefficient from
/// c2); send piece c2 (tag 60 + c2) to row peer c2, or to the substitute
/// when c2 is doomed; the substitute keeps its own column's pieces for
/// substituted roles locally. Pieces sharing a destination are coalesced
/// into one batched delivery, each still charged as its own message.
void exchange_backward_substituted(Rank& rank, const PolyLoss& loss,
                                   std::size_t row, std::size_t col,
                                   const CoeffBlock& child);

/// The interpolation input of one role: its pieces from every used column
/// in `loss.used` order — read from this rank's own @p child for its own
/// column, received from the row peer otherwise. Each piece must hold rc
/// values; the result has the child's stride.
CoeffBlock gather_role(Rank& rank, const PolyLoss& loss, std::size_t row,
                       std::size_t col, std::size_t role,
                       const CoeffBlock& child, std::size_t rc);

/// Interpolate this rank's own role, then — on the substitute — every
/// doomed role as attributed recovery work (begin_recovery with the row's
/// dead ranks ... end_recovery). `interpolate` is the engine's
/// interpolate-and-fold for one role.
void interpolate_roles(Rank& rank, const PolyLoss& loss, std::size_t row,
                       std::size_t col,
                       const std::function<void(std::size_t)>& interpolate);

}  // namespace ftmul::core_detail
