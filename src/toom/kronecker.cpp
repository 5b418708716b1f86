#include "toom/kronecker.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "bigint/ops_counter.hpp"

namespace ftmul {

namespace {

using detail::Limbs;

std::size_t limbs_for(std::size_t bits) { return (bits + 63) / 64; }

/// OR @p mag into @p out starting at bit @p at. The caller sizes @p out and
/// guarantees the target bits are still zero (slots never overlap).
void put_slot(Limbs& out, const Limbs& mag, std::size_t at) {
    const std::size_t w = at / 64;
    const unsigned s = static_cast<unsigned>(at % 64);
    for (std::size_t i = 0; i < mag.size(); ++i) {
        out[w + i] |= mag[i] << s;
        if (s != 0) out[w + i + 1] |= mag[i] >> (64 - s);
    }
}

/// out[0..limbs_for(width)) = bits [at, at + width) of @p src (zero beyond
/// its top); not normalized.
void get_slot(const Limbs& src, std::size_t at, std::size_t width,
              Limbs& out) {
    const std::size_t n = limbs_for(width);
    out.assign(n, 0);
    const std::size_t w = at / 64;
    const unsigned s = static_cast<unsigned>(at % 64);
    for (std::size_t i = 0; i < n && w + i < src.size(); ++i) {
        const std::uint64_t hi = w + i + 1 < src.size() ? src[w + i + 1] : 0;
        out[i] = s == 0 ? src[w + i] : (src[w + i] >> s) | (hi << (64 - s));
    }
    if (width % 64 != 0) out[n - 1] &= ~std::uint64_t{0} >> (64 - width % 64);
}

/// The packing walk: every coefficient's magnitude is written into its slot
/// of a positive or a negative limb buffer, and one subtraction combines
/// them. Linear in the packed size; charges the limbs of both buffers (the
/// subtraction charges its own).
BigInt pack_walk(std::span<const BigInt> coeffs, std::size_t slot_bits) {
    const std::size_t n = limbs_for(coeffs.size() * slot_bits) + 1;
    Limbs pos(n, 0);
    Limbs neg;
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
        if (coeffs[i].is_zero()) continue;
        if (coeffs[i].is_negative() && neg.empty()) neg.assign(n, 0);
        put_slot(coeffs[i].is_negative() ? neg : pos, coeffs[i].magnitude(),
                 i * slot_bits);
    }
    OpsCounter::add(pos.size() + neg.size());
    BigInt packed = BigInt::from_parts(1, std::move(pos));
    if (!neg.empty()) packed -= BigInt::from_parts(1, std::move(neg));
    return packed;
}

/// Add @p mag shifted to bit @p at into @p out, rippling the carry as far as
/// it goes, and return the number of limbs touched. Unlike put_slot the
/// target bits may already be set (coefficients overlap); the caller sizes
/// @p out so the sum fits.
std::size_t add_slot(Limbs& out, const Limbs& mag, std::size_t at) {
    using u128 = unsigned __int128;
    const std::size_t w = at / 64;
    const unsigned s = static_cast<unsigned>(at % 64);
    std::size_t k = w;
    std::uint64_t spill = 0;
    std::uint64_t carry = 0;
    for (const std::uint64_t m : mag) {
        const std::uint64_t v = s == 0 ? m : (m << s) | spill;
        spill = s == 0 ? 0 : m >> (64 - s);
        const u128 t = static_cast<u128>(out[k]) + v + carry;
        out[k++] = static_cast<std::uint64_t>(t);
        carry = static_cast<std::uint64_t>(t >> 64);
    }
    if (spill != 0) {
        const u128 t = static_cast<u128>(out[k]) + spill + carry;
        out[k++] = static_cast<std::uint64_t>(t);
        carry = static_cast<std::uint64_t>(t >> 64);
    }
    for (; carry != 0; ++k) {
        assert(k < out.size());
        carry = ++out[k] == 0 ? 1 : 0;
    }
    return k - w;
}

void check_signed_slot(std::size_t slot_bits) {
    if (slot_bits == 0) {
        throw std::invalid_argument("kronecker: a signed slot needs a sign bit");
    }
}

std::size_t max_bits(std::span<const BigInt> v) {
    std::size_t w = 0;
    for (const BigInt& c : v) w = std::max(w, c.bit_length());
    return w;
}

}  // namespace

std::size_t kronecker_signed_slot_bits(std::span<const BigInt> a,
                                       std::span<const BigInt> b) {
    // |c_j| <= min_len * (2^wa - 1)(2^wb - 1) < 2^(wa + wb + bit_width(min_len)),
    // and the balanced unpack needs |c_j| < 2^(slot - 1): one more bit.
    const auto min_len =
        static_cast<std::uint64_t>(std::max<std::size_t>(
            1, std::min(a.size(), b.size())));
    return max_bits(a) + max_bits(b) +
           static_cast<std::size_t>(std::bit_width(min_len)) + 1;
}

BigInt kronecker_pack_signed(std::span<const BigInt> coeffs,
                             std::size_t slot_bits) {
    check_signed_slot(slot_bits);
    for (const BigInt& c : coeffs) {
        if (c.bit_length() > slot_bits - 1) {
            throw std::invalid_argument(
                "kronecker_pack_signed: coefficient out of slot range");
        }
    }
    return pack_walk(coeffs, slot_bits);
}

std::vector<BigInt> kronecker_unpack_signed(const BigInt& packed,
                                            std::size_t slot_bits,
                                            std::size_t count) {
    check_signed_slot(slot_bits);
    // Balanced digits of |packed| in base 2^slot: a slot value v (plus the
    // running carry) at or above 2^(slot-1) stands for v - 2^slot and lends
    // one to the next slot. Since every true coefficient lies strictly
    // inside (-2^(slot-1), 2^(slot-1)), the digits of -P are the negated
    // digits of P, so a negative input is unpacked by magnitude.
    OpsCounter::add(packed.limb_count());
    const Limbs& mag = packed.magnitude();
    const std::size_t n = limbs_for(slot_bits);
    const std::size_t half = slot_bits - 1;
    const auto bit = [](const Limbs& v, std::size_t i) {
        return (v[i / 64] >> (i % 64)) & 1u;
    };
    std::vector<BigInt> out(count);
    Limbs v;
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < count; ++j) {
        get_slot(mag, j * slot_bits, slot_bits, v);
        v.push_back(0);  // room for v + carry == 2^slot
        for (std::size_t i = 0; carry != 0 && i <= n; ++i) {
            carry = ++v[i] == 0 ? 1 : 0;
        }
        if (bit(v, slot_bits) != 0) {
            // v + carry == 2^slot: a zero digit that lends on.
            carry = 1;
            continue;
        }
        if (bit(v, half) == 0) {
            out[j] = BigInt::from_parts(packed.sign(), std::move(v));
            continue;
        }
        // Digit v - 2^slot < 0: its magnitude is the slot-wide two's
        // complement of v.
        std::uint64_t inc = 1;
        for (std::size_t i = 0; i < n; ++i) {
            v[i] = ~v[i] + inc;
            inc = inc != 0 && v[i] == 0 ? 1 : 0;
        }
        v[n] = 0;
        if (slot_bits % 64 != 0) {
            v[n - 1] &= ~std::uint64_t{0} >> (64 - slot_bits % 64);
        }
        out[j] = BigInt::from_parts(-packed.sign(), std::move(v));
        carry = 1;
    }
    return out;
}

BigInt kronecker_assemble(std::span<const std::vector<BigInt>> slices,
                          std::size_t digit_bits) {
    // Position t = i * P + j puts coefficient i of slice j at bit
    // t * digit_bits. Sizing each buffer one limb past the widest
    // coefficient's spill limb leaves room for the running carry: a sum of
    // fewer than 2^64 terms below 2^e stays below 2^(e + 64).
    const std::size_t p = slices.size();
    std::size_t n = 0;
    std::size_t len = 0;
    for (std::size_t j = 0; j < p; ++j) {
        len = std::max(len, slices[j].size());
        for (std::size_t i = 0; i < slices[j].size(); ++i) {
            const std::size_t limbs = slices[j][i].limb_count();
            if (limbs == 0) continue;
            n = std::max(n, ((i * p + j) * digit_bits) / 64 + limbs + 2);
        }
    }
    Limbs pos(n, 0);
    Limbs neg;
    std::uint64_t touched = 0;
    // Walk in position order so the writes sweep the buffers once.
    for (std::size_t i = 0; i < len; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
            if (i >= slices[j].size() || slices[j][i].is_zero()) continue;
            const BigInt& c = slices[j][i];
            if (c.is_negative() && neg.empty()) neg.assign(n, 0);
            touched += add_slot(c.is_negative() ? neg : pos, c.magnitude(),
                                (i * p + j) * digit_bits);
        }
    }
    OpsCounter::add(touched);
    BigInt out = BigInt::from_parts(1, std::move(pos));
    if (!neg.empty()) out -= BigInt::from_parts(1, std::move(neg));
    return out;
}

std::vector<BigInt> kronecker_convolve(
    std::span<const BigInt> a, std::span<const BigInt> b,
    const std::function<BigInt(const BigInt&, const BigInt&)>& mul) {
    if (a.empty() || b.empty()) return {};
    const std::size_t slot = kronecker_signed_slot_bits(a, b);
    const BigInt pa = kronecker_pack_signed(a, slot);
    const BigInt pb = kronecker_pack_signed(b, slot);
    const BigInt prod = mul ? mul(pa, pb) : pa * pb;
    return kronecker_unpack_signed(prod, slot, a.size() + b.size() - 1);
}

}  // namespace ftmul
