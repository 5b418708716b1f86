#pragma once

#include <functional>
#include <span>
#include <vector>

#include "bigint/bigint.hpp"

namespace ftmul {

/// Kronecker substitution: multiply integer polynomials through any integer
/// multiplication engine. Coefficients of either sign are packed into one
/// signed integer at x = 2^slot_bits, with slots wide enough that product
/// coefficients never overlap; one integer product then carries the whole
/// convolution, unpacked into balanced digits in
/// [-2^(slot_bits-1), 2^(slot_bits-1)) — so polynomial workloads can ride
/// the parallel and fault-tolerant integer engines unchanged. Pack and
/// unpack are linear-time limb walks.

/// Slot width for the signed product of @p a and @p b, from their actual
/// coefficients: bits(a) + bits(b) + bit_width(min(|a|, |b|)) + 1, where
/// bits(v) is the largest coefficient bit length in v.
std::size_t kronecker_signed_slot_bits(std::span<const BigInt> a,
                                       std::span<const BigInt> b);

/// Pack signed coefficients, each |c| < 2^(slot_bits-1), at x = 2^slot_bits.
/// Throws std::invalid_argument for a coefficient out of that range or
/// slot_bits == 0.
BigInt kronecker_pack_signed(std::span<const BigInt> coeffs,
                             std::size_t slot_bits);

/// Unpack @p count balanced coefficients of @p slot_bits each (a running
/// carry moves each negative digit's borrow into the next slot). Exact when
/// every true coefficient satisfies |c| < 2^(slot_bits-1).
std::vector<BigInt> kronecker_unpack_signed(const BigInt& packed,
                                            std::size_t slot_bits,
                                            std::size_t count);

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
BigInt kronecker_assemble(std::span<const std::vector<BigInt>> slices,
                          std::size_t digit_bits);

/// Exact convolution of two signed coefficient vectors through one integer
/// product: pack both at kronecker_signed_slot_bits, multiply with @p mul
/// (defaults to schoolbook), unpack |a| + |b| - 1 balanced coefficients.
/// This is the leaf kernel of every parallel and fault-tolerant engine.
std::vector<BigInt> kronecker_convolve(
    std::span<const BigInt> a, std::span<const BigInt> b,
    const std::function<BigInt(const BigInt&, const BigInt&)>& mul = {});

}  // namespace ftmul
