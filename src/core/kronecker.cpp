#include "core/kronecker.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "bigint/ops_counter.hpp"

namespace ftmul {

namespace {

using detail::Limbs;
using u128 = unsigned __int128;
using i128 = __int128;

std::size_t limbs_for(std::size_t bits) { return (bits + 63) / 64; }

void check_signed_slot(std::size_t slot_bits) {
    if (slot_bits == 0) {
        throw std::invalid_argument("kronecker: a signed slot needs a sign bit");
    }
}

bool negative(const std::uint64_t* c, std::size_t s) {
    return (c[s - 1] >> 63) != 0;
}

/// |c| of the s-limb two's-complement coefficient into @p mag[0..s);
/// returns its normalized limb count.
std::size_t magnitude(const std::uint64_t* c, std::size_t s,
                      std::uint64_t* mag) {
    std::memcpy(mag, c, s * sizeof(std::uint64_t));
    if (negative(c, s)) {
        std::uint64_t carry = 1;
        for (std::size_t i = 0; i < s; ++i) {
            mag[i] = ~mag[i] + carry;
            carry = carry != 0 && mag[i] == 0 ? 1 : 0;
        }
    }
    std::size_t n = s;
    while (n > 0 && mag[n - 1] == 0) --n;
    return n;
}

/// The largest coefficient magnitude bit length in @p v: the bit length of
/// the OR of every magnitude.
std::size_t max_bits(const CoeffBlock& v) {
    const std::size_t s = v.stride();
    if (s == 1) {
        std::uint64_t any = 0;
        for (std::size_t i = 0; i < v.size(); ++i) {
            const std::uint64_t c = v.coeff(i)[0];
            any |= (c >> 63) != 0 ? ~c + 1 : c;
        }
        return static_cast<std::size_t>(std::bit_width(any));
    }
    std::vector<std::uint64_t> any(s, 0);
    std::vector<std::uint64_t> mag(s);
    for (std::size_t i = 0; i < v.size(); ++i) {
        const std::size_t n = magnitude(v.coeff(i), s, mag.data());
        for (std::size_t l = 0; l < n; ++l) any[l] |= mag[l];
    }
    for (std::size_t l = s; l-- > 0;) {
        if (any[l] != 0) {
            return 64 * l + static_cast<std::size_t>(std::bit_width(any[l]));
        }
    }
    return 0;
}

/// OR the @p n limbs of @p d into @p out at bit @p at (slots never overlap).
void put_slot(std::uint64_t* out, const std::uint64_t* d, std::size_t n,
              std::size_t at) {
    const std::size_t w = at / 64;
    const unsigned s = static_cast<unsigned>(at % 64);
    for (std::size_t i = 0; i < n; ++i) {
        out[w + i] |= d[i] << s;
        if (s != 0) out[w + i + 1] |= d[i] >> (64 - s);
    }
}

/// out[0..limbs_for(width)) = bits [at, at + width) of @p src (zero beyond
/// its top); the limbs above are left as they are.
void get_slot(const Limbs& src, std::size_t at, std::size_t width,
              std::uint64_t* out) {
    const std::size_t n = limbs_for(width);
    const std::size_t w = at / 64;
    const unsigned s = static_cast<unsigned>(at % 64);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t lo = w + i < src.size() ? src[w + i] : 0;
        const std::uint64_t hi = w + i + 1 < src.size() ? src[w + i + 1] : 0;
        out[i] = s == 0 ? lo : (lo >> s) | (hi << (64 - s));
    }
    if (width % 64 != 0) out[n - 1] &= ~std::uint64_t{0} >> (64 - width % 64);
}

bool get_bit(const std::uint64_t* v, std::size_t i) {
    return ((v[i / 64] >> (i % 64)) & 1u) != 0;
}

/// Add @p mag[0..n) shifted to bit @p at into @p out, rippling the carry as
/// far as it goes, and return the number of limbs touched. The target bits
/// may already be set (coefficients overlap); the caller sizes @p out so the
/// sum fits.
std::size_t add_slot(Limbs& out, const std::uint64_t* mag, std::size_t n,
                     std::size_t at) {
    const std::size_t w = at / 64;
    const unsigned s = static_cast<unsigned>(at % 64);
    std::size_t k = w;
    std::uint64_t spill = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t m = mag[i];
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

}  // namespace

std::size_t kronecker_slot_bits(const CoeffBlock& a, const CoeffBlock& b) {
    // |c_j| <= min_len * (2^wa - 1)(2^wb - 1) < 2^(wa + wb + bit_width(min_len)),
    // and the balanced unpack needs |c_j| < 2^(slot - 1): one more bit.
    const auto min_len = static_cast<std::uint64_t>(
        std::max<std::size_t>(1, std::min(a.size(), b.size())));
    return max_bits(a) + max_bits(b) +
           static_cast<std::size_t>(std::bit_width(min_len)) + 1;
}

BigInt kronecker_pack(const CoeffBlock& coeffs, std::size_t slot_bits) {
    check_signed_slot(slot_bits);
    // Each coefficient minus the running borrow is written as its low
    // slot_bits (its residue mod 2^slot); a negative difference lends one
    // to the next slot. The walk leaves U = sum residue_i X^i with
    // value = U - borrow * X^count, so a final borrow makes the packed
    // integer -(X^count - U): the count*slot-bit two's complement of U.
    const std::size_t count = coeffs.size();
    const std::size_t s = coeffs.stride();
    const std::size_t sl = limbs_for(slot_bits);
    const std::size_t w = std::max(s, sl) + 1;
    const std::size_t total = count * slot_bits;
    Limbs out(limbs_for(total) + 1, 0);
    bool borrow = false;
    if (s == 1 && slot_bits < 128) {
        // One-limb coefficients in slots under 128 bits: the same walk in
        // __int128, each residue ORed into at most three limbs.
        const u128 mask = (u128{1} << slot_bits) - 1;
        for (std::size_t i = 0; i < count; ++i) {
            const auto c = static_cast<std::int64_t>(coeffs.coeff(i)[0]);
            const std::uint64_t m = c < 0 ? ~static_cast<std::uint64_t>(c) + 1
                                          : static_cast<std::uint64_t>(c);
            if (slot_bits <= 64 && (m >> (slot_bits - 1)) != 0) {
                throw std::invalid_argument(
                    "kronecker_pack: coefficient out of slot range");
            }
            if (c == 0 && !borrow) continue;
            const i128 d = static_cast<i128>(c) - (borrow ? 1 : 0);
            borrow = d < 0;
            const u128 residue = static_cast<u128>(d) & mask;
            const std::size_t at = i * slot_bits;
            const unsigned sh = static_cast<unsigned>(at % 64);
            const u128 low = residue << sh;
            const auto spill =
                sh == 0 ? 0 : static_cast<std::uint64_t>(residue >> (128 - sh));
            // Every bit written lies below count * slot_bits: a nonzero limb
            // is inside the buffer.
            out[at / 64] |= static_cast<std::uint64_t>(low);
            if (const auto mid = static_cast<std::uint64_t>(low >> 64);
                mid != 0) {
                out[at / 64 + 1] |= mid;
            }
            if (spill != 0) out[at / 64 + 2] |= spill;
        }
    } else {
        std::vector<std::uint64_t> t(w);
        std::vector<std::uint64_t> mag(s);
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t* c = coeffs.coeff(i);
            const std::size_t n = magnitude(c, s, mag.data());
            if (n != 0 && 64 * (n - 1) +
                                  static_cast<std::size_t>(
                                      std::bit_width(mag[n - 1])) >
                              slot_bits - 1) {
                throw std::invalid_argument(
                    "kronecker_pack: coefficient out of slot range");
            }
            if (n == 0 && !borrow) continue;
            std::memcpy(t.data(), c, s * sizeof(std::uint64_t));
            std::fill(t.begin() + static_cast<std::ptrdiff_t>(s), t.end(),
                      negative(c, s) ? ~std::uint64_t{0} : 0);
            if (borrow) {
                for (std::size_t l = 0; l < w && t[l]-- == 0; ++l) {
                }
            }
            borrow = (t[w - 1] >> 63) != 0;
            if (slot_bits % 64 != 0) {
                t[sl - 1] &= ~std::uint64_t{0} >> (64 - slot_bits % 64);
            }
            put_slot(out.data(), t.data(), sl, i * slot_bits);
        }
    }
    OpsCounter::add(out.size());
    if (!borrow) return BigInt::from_parts(1, std::move(out));
    // 2^total - U: negate every limb, then keep the low total bits.
    std::uint64_t carry = 1;
    for (std::uint64_t& l : out) {
        l = ~l + carry;
        carry = carry != 0 && l == 0 ? 1 : 0;
    }
    std::size_t keep = total / 64;
    if (total % 64 != 0) {
        out[keep++] &= ~std::uint64_t{0} >> (64 - total % 64);
    }
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(keep), out.end(), 0);
    OpsCounter::add(out.size());
    return BigInt::from_parts(-1, std::move(out));
}

void kronecker_unpack(const BigInt& packed, std::size_t slot_bits,
                      CoeffBlock& out) {
    check_signed_slot(slot_bits);
    // Balanced digits of |packed| in base 2^slot: a slot value v (plus the
    // running carry) at or above 2^(slot-1) stands for v - 2^slot and lends
    // one to the next slot. Since every true coefficient lies strictly
    // inside (-2^(slot-1), 2^(slot-1)), the digits of -P are the negated
    // digits of P, so a negative input is unpacked by magnitude.
    OpsCounter::add(packed.limb_count());
    const Limbs& mag = packed.magnitude();
    const std::size_t s = out.stride();
    if (slot_bits < 128 && s <= 2) {
        // The same walk in __int128 for slots under 128 bits.
        const u128 mask = (u128{1} << slot_bits) - 1;
        const u128 half = u128{1} << (slot_bits - 1);
        const auto limb = [&mag](std::size_t i) -> std::uint64_t {
            return i < mag.size() ? mag[i] : 0;
        };
        bool carry = false;
        for (std::size_t j = 0; j < out.size(); ++j) {
            const std::size_t at = j * slot_bits;
            const std::size_t w = at / 64;
            const unsigned sh = static_cast<unsigned>(at % 64);
            u128 v = (static_cast<u128>(limb(w + 1)) << 64) | limb(w);
            if (sh != 0) {
                v = (v >> sh) | (static_cast<u128>(limb(w + 2)) << (128 - sh));
            }
            v = (v & mask) + (carry ? 1 : 0);
            i128 digit = 0;
            if (v > mask) {
                carry = true;  // v + carry == 2^slot: a zero digit
            } else {
                carry = v >= half;
                digit = static_cast<i128>(carry ? v | ~mask : v);
            }
            if (packed.is_negative()) digit = -digit;
            std::uint64_t* c = out.coeff(j);
            const auto lo = static_cast<std::uint64_t>(digit);
            const auto hi =
                static_cast<std::uint64_t>(static_cast<u128>(digit) >> 64);
            if (s == 1 && hi != ((lo >> 63) != 0 ? ~std::uint64_t{0} : 0)) {
                throw std::overflow_error(
                    "kronecker_unpack: coefficient exceeds its block stride");
            }
            c[0] = lo;
            if (s == 2) c[1] = hi;
        }
        return;
    }
    const std::size_t sl = limbs_for(slot_bits);
    const std::size_t w = std::max(s, sl) + 1;
    const std::size_t top_limb = (slot_bits - 1) / 64;
    const unsigned top_bit = static_cast<unsigned>((slot_bits - 1) % 64);
    std::vector<std::uint64_t> v(w);
    bool carry = false;
    for (std::size_t j = 0; j < out.size(); ++j) {
        std::fill(v.begin(), v.end(), 0);
        get_slot(mag, j * slot_bits, slot_bits, v.data());
        if (carry) {
            for (std::size_t l = 0; l < w && ++v[l] == 0; ++l) {
            }
        }
        if (get_bit(v.data(), slot_bits)) {
            // v + carry == 2^slot: a zero digit that lends on.
            std::fill(out.coeff(j), out.coeff(j) + s, 0);
            carry = true;
            continue;
        }
        carry = get_bit(v.data(), slot_bits - 1);
        if (carry) {
            // Digit v - 2^slot < 0: sign-extend v from its slot's top bit.
            v[top_limb] |= top_bit == 63 ? 0 : ~std::uint64_t{0} << (top_bit + 1);
            std::fill(v.begin() + static_cast<std::ptrdiff_t>(top_limb) + 1,
                      v.end(), ~std::uint64_t{0});
        }
        if (packed.is_negative()) {
            std::uint64_t inc = 1;
            for (std::uint64_t& l : v) {
                l = ~l + inc;
                inc = inc != 0 && l == 0 ? 1 : 0;
            }
        }
        const std::uint64_t fill =
            (v[s - 1] >> 63) != 0 ? ~std::uint64_t{0} : 0;
        for (std::size_t l = s; l < w; ++l) {
            if (v[l] != fill) {
                throw std::overflow_error(
                    "kronecker_unpack: coefficient exceeds its block stride");
            }
        }
        std::memcpy(out.coeff(j), v.data(), s * sizeof(std::uint64_t));
    }
}

void kronecker_convolve(const CoeffBlock& a, const CoeffBlock& b,
                        CoeffBlock& out, const KroneckerMul& mul) {
    if (a.empty() || b.empty()) {
        out = CoeffBlock(out.size(), out.stride());
        return;
    }
    assert(out.size() >= a.size() + b.size() - 1);
    const std::size_t slot = kronecker_slot_bits(a, b);
    const BigInt pa = kronecker_pack(a, slot);
    const BigInt pb = kronecker_pack(b, slot);
    const BigInt prod = mul ? mul(pa, pb) : pa * pb;
    // The digits past |a| + |b| - 1 of an exact product are zero, so the
    // unpack fills the padding too.
    kronecker_unpack(prod, slot, out);
}

BigInt kronecker_assemble(std::span<const CoeffBlock> slices,
                          std::size_t digit_bits) {
    // Position t = i * P + j puts coefficient i of slice j at bit
    // t * digit_bits. Sizing each buffer one limb past the widest
    // coefficient's spill limb leaves room for the running carry: a sum of
    // fewer than 2^64 terms below 2^e stays below 2^(e + 64).
    const std::size_t p = slices.size();
    std::size_t len = 0;
    std::size_t stride = 1;
    for (const CoeffBlock& s : slices) {
        len = std::max(len, s.size());
        stride = std::max(stride, s.stride());
    }
    const std::size_t n =
        len == 0 ? 0 : ((len * p - 1) * digit_bits) / 64 + stride + 2;
    Limbs pos(n, 0);
    Limbs neg;
    std::vector<std::uint64_t> mag(stride);
    std::uint64_t touched = 0;
    // Walk in position order so the writes sweep the buffers once.
    for (std::size_t i = 0; i < len; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
            if (i >= slices[j].size()) continue;
            const std::uint64_t* c = slices[j].coeff(i);
            const std::size_t s = slices[j].stride();
            const std::size_t m = magnitude(c, s, mag.data());
            if (m == 0) continue;
            const bool is_neg = negative(c, s);
            if (is_neg && neg.empty()) neg.assign(n, 0);
            touched += add_slot(is_neg ? neg : pos, mag.data(), m,
                                (i * p + j) * digit_bits);
        }
    }
    OpsCounter::add(touched);
    BigInt out = BigInt::from_parts(1, std::move(pos));
    if (!neg.empty()) out -= BigInt::from_parts(1, std::move(neg));
    return out;
}

// ---- BigInt adapters -----------------------------------------------------

std::size_t kronecker_signed_slot_bits(std::span<const BigInt> a,
                                       std::span<const BigInt> b) {
    return kronecker_slot_bits(from_bigints(a), from_bigints(b));
}

BigInt kronecker_pack_signed(std::span<const BigInt> coeffs,
                             std::size_t slot_bits) {
    check_signed_slot(slot_bits);
    return kronecker_pack(from_bigints(coeffs), slot_bits);
}

std::vector<BigInt> kronecker_unpack_signed(const BigInt& packed,
                                            std::size_t slot_bits,
                                            std::size_t count) {
    check_signed_slot(slot_bits);
    CoeffBlock out(count, stride_for_bits(slot_bits));
    kronecker_unpack(packed, slot_bits, out);
    return to_bigints(out);
}

std::vector<BigInt> kronecker_convolve(std::span<const BigInt> a,
                                       std::span<const BigInt> b,
                                       const KroneckerMul& mul) {
    if (a.empty() || b.empty()) return {};
    const CoeffBlock ba = from_bigints(a);
    const CoeffBlock bb = from_bigints(b);
    CoeffBlock out(a.size() + b.size() - 1,
                   stride_for_bits(kronecker_slot_bits(ba, bb)));
    kronecker_convolve(ba, bb, out, mul);
    return to_bigints(out);
}

}  // namespace ftmul
