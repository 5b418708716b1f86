#include "toom/digits.hpp"

#include <cassert>

namespace ftmul {

std::vector<BigInt> split_digits(const BigInt& v, std::size_t digit_bits,
                                 std::size_t count) {
    assert(!v.is_negative());
    return split_digits_abs(v, digit_bits, count);
}

std::vector<BigInt> split_digits_abs(const BigInt& v, std::size_t digit_bits,
                                     std::size_t count) {
    assert(v.bit_length() <= digit_bits * count);
    std::vector<BigInt> digits(count);
    for (std::size_t i = 0; i < count; ++i) {
        digits[i] = v.extract_bits(i * digit_bits, digit_bits);
    }
    return digits;
}

BigInt recompose_digits(std::span<const BigInt> digits,
                        std::size_t digit_bits) {
    BigInt acc;
    // Horner from the top: each shift-add touches the whole accumulator, so
    // this is quadratic in digits.size(). Fine for the 2k-1 digits of a
    // sequential Toom step; long vectors go through kronecker_assemble.
    for (std::size_t i = digits.size(); i-- > 0;) {
        acc <<= digit_bits;
        acc += digits[i];
    }
    return acc;
}

std::vector<BigInt> convolve_schoolbook(std::span<const BigInt> a,
                                        std::span<const BigInt> b) {
    assert(!a.empty() && !b.empty());
    std::vector<BigInt> out(a.size() + b.size() - 1);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].is_zero()) continue;
        for (std::size_t j = 0; j < b.size(); ++j) {
            if (b[j].is_zero()) continue;
            add_mul(out[i + j], a[i], b[j]);
        }
    }
    return out;
}

}  // namespace ftmul
