#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bigint/bigint.hpp"
#include "linalg/matrix.hpp"
#include "toom/interp.hpp"

namespace ftmul {

struct ResolvedShape;
class ToomPlan;

/// The distributed path's coefficient vector: @p size() signed coefficients
/// in one contiguous limb array, coefficient i being the two's-complement
/// integer in limbs [i * stride, (i + 1) * stride) (little-endian). A
/// coefficient therefore lies in [-2^(64 stride - 1), 2^(64 stride - 1)).
///
/// The stride is fixed per run by the shape (block_strides), so split,
/// evaluation, the row exchanges, the leaf, interpolation and the fold work
/// on flat limb arrays with no allocation per coefficient. Every kernel
/// below that writes a coefficient checks that it fits its stride (the limbs
/// above it must be the sign extension of its top limb) and throws
/// std::overflow_error otherwise: a value is never silently wrapped.
class CoeffBlock {
public:
    CoeffBlock() = default;

    /// @p count zero coefficients of @p stride limbs each; stride >= 1.
    CoeffBlock(std::size_t count, std::size_t stride);

    std::size_t size() const noexcept { return count_; }
    std::size_t stride() const noexcept { return stride_; }
    bool empty() const noexcept { return count_ == 0; }

    std::uint64_t* coeff(std::size_t i) noexcept {
        return limbs_.data() + i * stride_;
    }
    const std::uint64_t* coeff(std::size_t i) const noexcept {
        return limbs_.data() + i * stride_;
    }

    /// Drop every coefficient and release the storage; the stride stays.
    void clear() noexcept;

    friend bool operator==(const CoeffBlock&, const CoeffBlock&) = default;

private:
    std::size_t count_ = 0;
    std::size_t stride_ = 1;
    std::vector<std::uint64_t> limbs_;
};

// ---- strides ---------------------------------------------------------------

/// The strides of one run: every operand-side block (input digits and their
/// evaluations at every level) and every product-side block (leaf products,
/// child results, interpolation numerators and the folded results).
struct BlockStrides {
    std::size_t operand = 1;
    std::size_t product = 1;
};

/// Limbs of a two's-complement value of @p bits bits, sign included (>= 1).
std::size_t stride_for_bits(std::size_t bits);

/// Bits a linear map adds to its inputs' magnitude: ceil(log2) of its
/// largest row l1 norm (0 for a map whose rows have norm <= 1).
std::size_t growth_bits(const Matrix<std::int64_t>& m);
std::size_t growth_bits(const Matrix<BigInt>& m);

/// Strides for a shape whose digits grow by @p eval_bits on the way from the
/// split to the leaf and whose interpolations grow their inputs by at most
/// @p interp_bits. Operands stay below 2^(digit_bits + eval_bits); a leaf
/// coefficient is a sum of at most leaf_len products of two operands, and
/// every ancestor result is a shorter convolution of narrower operands, so
/// 2 (digit_bits + eval_bits) + bit_width(leaf_len) + interp_bits bits plus
/// a sign bit hold every product-side value, numerators included.
BlockStrides block_strides(const ResolvedShape& shape, std::size_t eval_bits,
                           std::size_t interp_bits);

/// The common case: every one of the shape's dfs_steps + bfs_steps split
/// levels evaluates with the plan's matrix (redundant rows included) and
/// interpolates with its base operator or, where given, with @p top.
BlockStrides block_strides(const ResolvedShape& shape, const ToomPlan& plan,
                           const InterpOperator* top = nullptr);

// ---- conversions at the API and coding-layer edges ------------------------

/// A block of @p values at @p stride limbs; 0 picks the narrowest stride
/// that holds every value. Throws std::overflow_error when a value does not
/// fit the given stride.
CoeffBlock from_bigints(std::span<const BigInt> values, std::size_t stride = 0);

/// The block's coefficients as BigInts.
std::vector<BigInt> to_bigints(const CoeffBlock& block);

// ---- picking coefficients ----------------------------------------------------

/// A strided pick of a block's coefficients: element e < count is
/// coefficient first + (e / run) * gap + e % run — runs of @p run
/// consecutive coefficients, @p gap apart. It names the block-cyclic pieces
/// the row exchanges send, receive and interleave, without a staging copy.
struct CoeffRuns {
    std::size_t first = 0;
    std::size_t count = 0;
    std::size_t run = 1;
    std::size_t gap = 1;

    /// The contiguous range [first, first + count).
    static CoeffRuns range(std::size_t first, std::size_t count) {
        return {first, count, 1, 1};
    }

    std::size_t at(std::size_t e) const noexcept {
        return first + (e / run) * gap + e % run;
    }
};

/// dst[dst_pick] = src[src_pick], element by element (equal counts); the
/// strides may differ. Throws std::overflow_error for a value that does not
/// fit dst's stride.
void copy_coeffs(const CoeffBlock& src, const CoeffRuns& src_pick,
                 CoeffBlock& dst, const CoeffRuns& dst_pick);

// ---- wire format -------------------------------------------------------------

/// Words of the BigInt wire encoding of the picked coefficients:
/// [count, (sign, limb count, magnitude limbs)...] — byte-identical to
/// serialize_vec of the same values (bigint/serialize.hpp).
std::size_t framed_words(const CoeffBlock& block, const CoeffRuns& pick);

/// Append that encoding to @p out.
void encode_frame(const CoeffBlock& block, const CoeffRuns& pick,
                  std::vector<std::uint64_t>& out);

/// Decode a frame into the picked coefficients of @p out, with no
/// allocation. Throws std::runtime_error for a truncated frame or one whose
/// count differs from pick.count, std::overflow_error for a value that does
/// not fit out's stride.
void decode_frame(std::span<const std::uint64_t> words, CoeffBlock& out,
                  const CoeffRuns& pick);

// ---- linear kernels ------------------------------------------------------------

/// Evaluation: @p in holds m.cols() blocks of @p block_len coefficients;
/// output block r = sum_j m(rows[r], j) * input block j, elementwise (every
/// row when @p rows is empty). @p out must hold rows.size() blocks.
void evaluate_blocks(const Matrix<std::int64_t>& m, const CoeffBlock& in,
                     CoeffBlock& out, std::size_t block_len,
                     std::span<const std::size_t> rows = {});
void evaluate_blocks(const Matrix<BigInt>& m, const CoeffBlock& in,
                     CoeffBlock& out, std::size_t block_len,
                     std::span<const std::size_t> rows = {});

/// Interpolation: output block i = (sum_j num(i, j) * input block j) /
/// den[i], each division exact (asserted).
void apply_blocks(const InterpOperator& op, const CoeffBlock& in,
                  CoeffBlock& out, std::size_t block_len);

/// Streaming interpolation for DFS steps: fold input block @p col into the
/// numerator accumulator @p acc (op.rows() blocks), then divide once with
/// finalize_blocks after every column has been accumulated.
void accumulate_column(const InterpOperator& op, std::size_t col,
                       const CoeffBlock& child, CoeffBlock& acc,
                       std::size_t block_len);
void finalize_blocks(const InterpOperator& op, CoeffBlock& acc,
                     std::size_t block_len);

/// Overlap-add: block i of @p blocks (rc coefficients each) is added into a
/// zero block of @p out_len coefficients at offset offsets[i]; the result
/// has the blocks' stride.
CoeffBlock fold_blocks(const CoeffBlock& blocks,
                       std::span<const std::size_t> offsets, std::size_t rc,
                       std::size_t out_len);

}  // namespace ftmul
