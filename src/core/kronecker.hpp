#pragma once

#include <functional>
#include <span>
#include <vector>

#include "bigint/bigint.hpp"
#include "core/coeff_block.hpp"

namespace ftmul {

/// Kronecker substitution: multiply integer polynomials through any integer
/// multiplication engine. Coefficients of either sign are packed into one
/// signed integer at x = 2^slot_bits, with slots wide enough that product
/// coefficients never overlap; one integer product then carries the whole
/// convolution, unpacked into balanced digits in
/// [-2^(slot_bits-1), 2^(slot_bits-1)) — so polynomial workloads can ride
/// the parallel and fault-tolerant integer engines unchanged.
///
/// The kernels work on coefficient blocks (core/coeff_block.hpp): the pack is
/// a strided shifted copy of each coefficient's low slot bits with a running
/// borrow, the unpack writes balanced digits straight into a result block.
/// The BigInt forms below are adapters over them.

/// A product multiplier; empty means schoolbook (operator*).
using KroneckerMul = std::function<BigInt(const BigInt&, const BigInt&)>;

/// Slot width for the signed product of @p a and @p b, from their actual
/// coefficients: bits(a) + bits(b) + bit_width(min(|a|, |b|)) + 1, where
/// bits(v) is the largest coefficient bit length in v.
std::size_t kronecker_slot_bits(const CoeffBlock& a, const CoeffBlock& b);

/// Pack a block's coefficients, each |c| < 2^(slot_bits-1), at
/// x = 2^slot_bits. Throws std::invalid_argument for a coefficient out of
/// that range or slot_bits == 0.
BigInt kronecker_pack(const CoeffBlock& coeffs, std::size_t slot_bits);

/// Unpack out.size() balanced coefficients of @p slot_bits each into @p out
/// (a running carry moves each negative digit's borrow into the next slot).
/// Exact when every true coefficient satisfies |c| < 2^(slot_bits-1); throws
/// std::overflow_error when a digit does not fit out's stride.
void kronecker_unpack(const BigInt& packed, std::size_t slot_bits,
                      CoeffBlock& out);

/// Exact convolution of two signed coefficient blocks through one integer
/// product: pack both at kronecker_slot_bits, multiply with @p mul, unpack
/// |a| + |b| - 1 balanced coefficients into @p out (which must hold at
/// least that many; the rest are zeroed). This is the leaf kernel of every
/// parallel and fault-tolerant engine.
void kronecker_convolve(const CoeffBlock& a, const CoeffBlock& b,
                        CoeffBlock& out, const KroneckerMul& mul = {});

/// Product assembly (the paper's "compute the carry" step): the integer
/// sum_t c_t * 2^(t * digit_bits) of positioned coefficients, where
/// coefficient i of slice j sits at position t = i * P + j, P =
/// slices.size() — the cyclic (bs = 1) layout of the machine engines' result
/// slices; a single slice is a plain digit vector. Coefficients may be
/// signed, wider than digit_bits and overlapping, so each magnitude is added
/// (not ORed) into a positive or a negative limb buffer with a running
/// carry, and one subtraction combines them. Equals
/// recompose_digits(unslice(slices, 1), digit_bits) in time linear in the
/// total coefficient limbs; charges the limbs it touches (the subtraction
/// charges its own).
BigInt kronecker_assemble(std::span<const CoeffBlock> slices,
                          std::size_t digit_bits);

// ---- BigInt adapters -----------------------------------------------------

/// kronecker_slot_bits of the BigInt vectors.
std::size_t kronecker_signed_slot_bits(std::span<const BigInt> a,
                                       std::span<const BigInt> b);

/// kronecker_pack of the BigInt vector.
BigInt kronecker_pack_signed(std::span<const BigInt> coeffs,
                             std::size_t slot_bits);

/// kronecker_unpack of @p count coefficients, as BigInts.
std::vector<BigInt> kronecker_unpack_signed(const BigInt& packed,
                                            std::size_t slot_bits,
                                            std::size_t count);

/// kronecker_convolve of the BigInt vectors (|a| + |b| - 1 coefficients;
/// empty when either input is).
std::vector<BigInt> kronecker_convolve(std::span<const BigInt> a,
                                       std::span<const BigInt> b,
                                       const KroneckerMul& mul = {});

}  // namespace ftmul
