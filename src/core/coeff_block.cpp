#include "core/coeff_block.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

#include "bigint/ops_counter.hpp"
#include "core/config.hpp"
#include "toom/plan.hpp"

namespace ftmul {

namespace {

using u128 = unsigned __int128;
using i128 = __int128;
using detail::Limbs;

std::uint64_t fill_of(std::uint64_t top) noexcept {
    return (top >> 63) != 0 ? ~std::uint64_t{0} : 0;
}

bool negative(const std::uint64_t* c, std::size_t s) noexcept {
    return (c[s - 1] >> 63) != 0;
}

/// v = -v over @p w limbs (mod 2^(64 w)).
void negate(std::uint64_t* v, std::size_t w) noexcept {
    std::uint64_t carry = 1;
    for (std::size_t i = 0; i < w; ++i) {
        v[i] = ~v[i] + carry;
        carry = carry != 0 && v[i] == 0 ? 1 : 0;
    }
}

/// dst[0..w) = the @p s-limb value @p c sign-extended (w >= s).
void load_wide(std::uint64_t* dst, std::size_t w, const std::uint64_t* c,
               std::size_t s) noexcept {
    std::memcpy(dst, c, s * sizeof(std::uint64_t));
    std::fill(dst + s, dst + w, fill_of(c[s - 1]));
}

[[noreturn]] void overflow(const char* what) {
    throw std::overflow_error(std::string(what) +
                              ": coefficient exceeds its block stride");
}

/// Store the @p w-limb value @p v into an @p s-limb slot: sign-extend when
/// the slot is wider, else check the limbs dropped are v's sign extension.
void store_wide(std::uint64_t* dst, std::size_t s, const std::uint64_t* v,
                std::size_t w, const char* what) {
    if (s >= w) {
        load_wide(dst, s, v, w);
        return;
    }
    const std::uint64_t fill = fill_of(v[s - 1]);
    for (std::size_t i = s; i < w; ++i) {
        if (v[i] != fill) overflow(what);
    }
    std::memcpy(dst, v, s * sizeof(std::uint64_t));
}

/// Limbs of |c| for the s-limb coefficient c (0 for zero): the limbs below
/// its sign extension. The work charges count these, as the BigInt kernels
/// counted magnitude limbs.
std::size_t value_limbs(const std::uint64_t* c, std::size_t s) noexcept {
    const std::uint64_t fill = fill_of(c[s - 1]);
    std::size_t n = s;
    while (n > 0 && c[n - 1] == fill) --n;
    return n == 0 && fill != 0 ? 1 : n;
}

/// The value of an s <= 2 limb coefficient.
i128 load128(const std::uint64_t* c, std::size_t s) noexcept {
    if (s == 1) return static_cast<std::int64_t>(c[0]);
    return static_cast<i128>((static_cast<u128>(c[1]) << 64) | c[0]);
}

/// p = x * c without a wide overflow check: when |x| < 2^limit and c has at
/// most 126 - limit bits, |x * c| < 2^126. False (p untouched) otherwise.
bool small_product(i128 x, std::int64_t c, unsigned limit, i128& p) noexcept {
    const auto u = static_cast<u128>(x ^ (x >> 127));  // |x| or |x| - 1
    if ((u >> limit) != 0) return false;
    p = x * c;
    return true;
}

/// The limit small_product takes for coefficients of @p c_bits bits.
unsigned product_limit(std::size_t c_bits) noexcept {
    return static_cast<unsigned>(126 - std::min<std::size_t>(c_bits, 64));
}

/// |v| and its limb count.
u128 mag128(i128 v) noexcept {
    return v < 0 ? ~static_cast<u128>(v) + 1 : static_cast<u128>(v);
}
std::uint64_t limbs128(i128 v) noexcept {
    const u128 m = mag128(v);
    return m == 0 ? 0 : (m >> 64) != 0 ? 2 : 1;
}

/// The F charge of acc += p, p = c * x: what BigInt's add_scaled (word c)
/// or add_mul charges for the same values, so a block kernel charges what
/// the sequential BigInt kernels do. The term pays its multiply (@p mul,
/// 0 for c = +-1), then the add: a copy into zero and an exact cancellation
/// are free, a same-sign add pays the longer operand unless the multiply
/// fused it (@p fused), an opposite-sign add pays the larger one.
std::uint64_t add_charge(i128 acc, i128 p, std::uint64_t mul,
                         bool fused) noexcept {
    if (acc == 0) return mul;
    const std::uint64_t la = limbs128(acc);
    const std::uint64_t lp = limbs128(p);
    if ((acc < 0) == (p < 0)) return mul + (fused ? 0 : std::max(la, lp));
    const u128 ma = mag128(acc);
    const u128 mp = mag128(p);
    if (ma == mp) return mul;
    return mul + (ma > mp ? la : lp);
}

/// Store @p v into an s-limb slot, sign-extended; false when it does not fit.
bool store128(std::uint64_t* dst, std::size_t s, i128 v) noexcept {
    const auto lo = static_cast<std::uint64_t>(v);
    const auto hi = static_cast<std::uint64_t>(static_cast<u128>(v) >> 64);
    if (s == 1) {
        if (hi != fill_of(lo)) return false;
        dst[0] = lo;
        return true;
    }
    dst[0] = lo;
    dst[1] = hi;
    std::fill(dst + 2, dst + s, fill_of(hi));
    return true;
}

/// acc[0..w) +=/-= x * mag (mod 2^(64 w)), x an @p xs-limb two's-complement
/// value, mag an @p n-limb magnitude. Exact whenever the true sum fits w.
void addmul_wide(std::uint64_t* acc, std::size_t w, const std::uint64_t* x,
                 std::size_t xs, const std::uint64_t* mag, std::size_t n,
                 bool subtract) noexcept {
    const std::uint64_t xfill = fill_of(x[xs - 1]);
    for (std::size_t j = 0; j < n && j < w; ++j) {
        const std::uint64_t m = mag[j];
        if (m == 0) continue;
        std::uint64_t mul_carry = 0;
        std::uint64_t add_carry = 0;
        for (std::size_t i = 0; i + j < w; ++i) {
            const std::uint64_t xi = i < xs ? x[i] : xfill;
            const u128 p = static_cast<u128>(xi) * m + mul_carry;
            const auto lo = static_cast<std::uint64_t>(p);
            mul_carry = static_cast<std::uint64_t>(p >> 64);
            std::uint64_t& a = acc[i + j];
            if (!subtract) {
                const u128 sum = static_cast<u128>(a) + lo + add_carry;
                a = static_cast<std::uint64_t>(sum);
                add_carry = static_cast<std::uint64_t>(sum >> 64);
            } else {
                const u128 diff = static_cast<u128>(a) - lo - add_carry;
                a = static_cast<std::uint64_t>(diff);
                add_carry = static_cast<std::uint64_t>(diff >> 64) & 1;
            }
        }
    }
}

/// v[0..w) /= d exactly (asserted), v two's complement, d positive.
void divexact_wide(std::uint64_t* v, std::size_t w, const Limbs& d) {
    const bool neg = negative(v, w);
    if (neg) negate(v, w);
    if (d.size() == 1) {
        std::uint64_t r = 0;
        for (std::size_t i = w; i-- > 0;) {
            const u128 cur = (static_cast<u128>(r) << 64) | v[i];
            v[i] = static_cast<std::uint64_t>(cur / d[0]);
            r = static_cast<std::uint64_t>(cur % d[0]);
        }
        assert(r == 0 && "interpolation: division was not exact");
        (void)r;
    } else {
        Limbs a(v, v + w);
        detail::normalize(a);
        Limbs q, r;
        if (!a.empty()) detail::divmod(a, d, q, r);
        assert(r.empty() && "interpolation: division was not exact");
        std::fill(v, v + w, 0);
        std::copy(q.begin(), q.end(), v);
    }
    if (neg) negate(v, w);
}

/// Exact signed division of an int128 by a positive int64.
i128 divexact128(i128 v, std::int64_t d) noexcept {
    if (std::has_single_bit(static_cast<std::uint64_t>(d))) {
        const int sh = std::countr_zero(static_cast<std::uint64_t>(d));
        assert((static_cast<u128>(v) & ((u128{1} << sh) - 1)) == 0 &&
               "interpolation: division was not exact");
        return v >> sh;
    }
    assert(v % d == 0 && "interpolation: division was not exact");
    return v / d;
}

// ---- one linear map, whatever its coefficient type ----------------------

/// The nonzero coefficients of a linear map's rows as signed magnitudes,
/// plus a positive denominator per row; `small` when every coefficient and
/// denominator fits int64, which enables the int128 fast path.
struct LinearMap {
    struct Term {
        std::size_t col;
        bool neg;
        std::size_t off;  ///< magnitude at mags[off, off + n)
        std::size_t n;
        std::int64_t c;   ///< the coefficient, when `small`
        bool unit;        ///< |coefficient| == 1
    };
    struct Row {
        std::vector<Term> terms;
        Limbs den{1};
        std::int64_t small_den = 1;
    };
    std::vector<Row> rows;
    std::vector<std::uint64_t> mags;
    std::size_t max_n = 1;
    bool small = true;
    std::size_t small_bits = 0;  ///< widest |coefficient|, when `small`

    void add_term(Row& row, std::size_t col, const BigInt& c) {
        if (c.is_zero()) return;
        const Limbs& m = c.magnitude();
        const bool fits = c.fits_int64();
        row.terms.push_back({col, c.is_negative(), mags.size(), m.size(),
                             fits ? c.to_int64() : 0,
                             m.size() == 1 && m[0] == 1});
        mags.insert(mags.end(), m.begin(), m.end());
        max_n = std::max(max_n, m.size());
        small = small && fits;
        small_bits = std::max(small_bits, c.bit_length());
    }
    void set_den(Row& row, const BigInt& d) {
        assert(d.sign() > 0);
        row.den = d.magnitude();
        if (d.fits_int64()) {
            row.small_den = d.to_int64();
        } else {
            small = false;
        }
    }
    bool divides(const Row& row) const {
        return !(row.den.size() == 1 && row.den[0] == 1);
    }
};

std::vector<std::size_t> all_rows(std::size_t n) {
    std::vector<std::size_t> r(n);
    std::iota(r.begin(), r.end(), std::size_t{0});
    return r;
}

template <typename T>
LinearMap map_of_matrix(const Matrix<T>& m, std::span<const std::size_t> rows) {
    LinearMap map;
    map.rows.resize(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        assert(rows[r] < m.rows());
        for (std::size_t j = 0; j < m.cols(); ++j) {
            map.add_term(map.rows[r], j, BigInt{m(rows[r], j)});
        }
    }
    return map;
}

LinearMap map_of_interp(const InterpOperator& op) {
    LinearMap map;
    map.rows.resize(op.rows());
    for (std::size_t i = 0; i < op.rows(); ++i) {
        for (std::size_t j = 0; j < op.cols(); ++j) {
            map.add_term(map.rows[i], j, op.numerators()(i, j));
        }
        map.set_den(map.rows[i], op.denominators()[i]);
    }
    return map;
}

/// out block r = (sum_j map(r, j) * in block j) / den(r), elementwise. The
/// int128 path takes every coefficient whose inputs fit two limbs and whose
/// terms and sum do not overflow; the rest take the limb path at a working
/// width wide enough that the sum cannot wrap.
void apply_map(const LinearMap& map, const CoeffBlock& in, CoeffBlock& out,
               std::size_t block_len, const char* what) {
    assert(out.size() == map.rows.size() * block_len);
    const std::size_t xs = in.stride();
    const std::size_t so = out.stride();
    const std::size_t w = std::max(xs + map.max_n, so) + 1;
    const bool fast = map.small && xs <= 2;
    const unsigned limit = product_limit(map.small_bits);
    std::vector<std::uint64_t> acc(w);
    std::uint64_t charge = 0;
    for (std::size_t r = 0; r < map.rows.size(); ++r) {
        const LinearMap::Row& row = map.rows[r];
        const bool divides = map.divides(row);
        for (std::size_t t = 0; t < block_len; ++t) {
            std::uint64_t* dst = out.coeff(r * block_len + t);
            bool done = false;
            if (fast) {
                i128 sum = 0;
                std::uint64_t cost = 0;
                bool ok = true;
                for (const auto& term : row.terms) {
                    const i128 x = load128(in.coeff(term.col * block_len + t), xs);
                    if (x == 0) continue;
                    i128 p;
                    if (!small_product(x, term.c, limit, p)) {
                        ok = false;
                        break;
                    }
                    // add_scaled: a plain add for +-1, else a multiply that
                    // fuses a same-sign add.
                    cost += add_charge(sum, p, term.unit ? 0 : limbs128(x),
                                       !term.unit);
                    if (__builtin_add_overflow(sum, p, &sum)) {
                        ok = false;
                        break;
                    }
                }
                if (ok) {
                    if (divides && sum != 0) {
                        // divmod_small: the quotient's limbs plus one.
                        sum = divexact128(sum, row.small_den);
                        cost += limbs128(sum) + 1;
                    }
                    if (!store128(dst, so, sum)) overflow(what);
                    charge += cost;
                    done = true;
                }
            }
            if (!done) {
                // The wide path charges a multiply-add per input and the
                // division, in the values' limbs.
                std::fill(acc.begin(), acc.end(), 0);
                for (const auto& term : row.terms) {
                    const std::uint64_t* x = in.coeff(term.col * block_len + t);
                    charge += value_limbs(x, xs) * term.n;
                    addmul_wide(acc.data(), w, x, xs, map.mags.data() + term.off,
                                term.n, term.neg);
                }
                if (divides) {
                    divexact_wide(acc.data(), w, row.den);
                    const std::size_t nq = value_limbs(acc.data(), w);
                    charge += nq == 0 ? 0 : nq + 1;
                }
                store_wide(dst, so, acc.data(), w, what);
            }
        }
    }
    OpsCounter::add(charge);
}

}  // namespace

// ---- CoeffBlock ----------------------------------------------------------------

CoeffBlock::CoeffBlock(std::size_t count, std::size_t stride)
    : count_(count), stride_(stride), limbs_(count * stride, 0) {
    if (stride == 0) {
        throw std::invalid_argument("CoeffBlock: stride must be >= 1");
    }
}

void CoeffBlock::clear() noexcept {
    count_ = 0;
    limbs_ = {};
}

// ---- strides -------------------------------------------------------------------

std::size_t stride_for_bits(std::size_t bits) {
    return std::max<std::size_t>(1, (bits + 63) / 64);
}

std::size_t growth_bits(const Matrix<std::int64_t>& m) {
    u128 widest = 0;
    for (std::size_t i = 0; i < m.rows(); ++i) {
        u128 l1 = 0;
        for (std::size_t j = 0; j < m.cols(); ++j) {
            const std::int64_t c = m(i, j);
            l1 += c < 0 ? ~static_cast<std::uint64_t>(c) + 1
                        : static_cast<std::uint64_t>(c);
        }
        widest = std::max(widest, l1);
    }
    if (widest <= 1) return 0;
    const u128 v = widest - 1;  // ceil(log2 l1) = bit_width(l1 - 1)
    const auto hi = static_cast<std::uint64_t>(v >> 64);
    return hi != 0 ? 64 + static_cast<std::size_t>(std::bit_width(hi))
                   : static_cast<std::size_t>(
                         std::bit_width(static_cast<std::uint64_t>(v)));
}

std::size_t growth_bits(const Matrix<BigInt>& m) {
    BigInt widest;
    for (std::size_t i = 0; i < m.rows(); ++i) {
        BigInt l1;
        for (std::size_t j = 0; j < m.cols(); ++j) l1 += m(i, j).abs();
        if (l1 > widest) widest = l1;
    }
    if (widest <= BigInt{1}) return 0;
    return (widest - BigInt{1}).bit_length();
}

BlockStrides block_strides(const ResolvedShape& shape, std::size_t eval_bits,
                           std::size_t interp_bits) {
    const std::size_t operand_bits = shape.digit_bits + eval_bits;
    const auto leaf_bits = static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(shape.leaf_len)));
    BlockStrides s;
    s.operand = stride_for_bits(operand_bits + 1);
    s.product =
        stride_for_bits(2 * operand_bits + leaf_bits + interp_bits + 1);
    return s;
}

BlockStrides block_strides(const ResolvedShape& shape, const ToomPlan& plan,
                           const InterpOperator* top) {
    const auto levels =
        static_cast<std::size_t>(shape.dfs_steps + shape.bfs_steps);
    std::size_t interp = growth_bits(plan.interpolation().numerators());
    if (top != nullptr) interp = std::max(interp, growth_bits(top->numerators()));
    return block_strides(shape, levels * growth_bits(plan.eval_matrix()),
                         interp);
}

// ---- conversions -----------------------------------------------------------------

CoeffBlock from_bigints(std::span<const BigInt> values, std::size_t stride) {
    if (stride == 0) {
        // Two's complement needs a sign bit above |v|, except for the
        // negative powers of two: -2^b fits b + 1 bits.
        std::size_t bits = 1;
        for (const BigInt& v : values) {
            const Limbs& m = v.magnitude();
            const bool min_of_width =
                v.is_negative() && std::has_single_bit(m.back()) &&
                std::all_of(m.begin(), m.end() - 1,
                            [](std::uint64_t l) { return l == 0; });
            bits = std::max(bits, v.bit_length() + (min_of_width ? 0 : 1));
        }
        stride = stride_for_bits(bits);
    }
    CoeffBlock out(values.size(), stride);
    for (std::size_t i = 0; i < values.size(); ++i) {
        const Limbs& mag = values[i].magnitude();
        if (mag.size() > stride) overflow("from_bigints");
        std::uint64_t* c = out.coeff(i);
        std::copy(mag.begin(), mag.end(), c);
        if (values[i].is_negative()) negate(c, stride);
        if (!values[i].is_zero() &&
            negative(c, stride) != values[i].is_negative()) {
            overflow("from_bigints");
        }
    }
    return out;
}

std::vector<BigInt> to_bigints(const CoeffBlock& block) {
    std::vector<BigInt> out(block.size());
    const std::size_t s = block.stride();
    for (std::size_t i = 0; i < block.size(); ++i) {
        const std::uint64_t* c = block.coeff(i);
        Limbs mag(c, c + s);
        const bool neg = negative(c, s);
        if (neg) negate(mag.data(), s);
        detail::normalize(mag);
        if (!mag.empty()) out[i] = BigInt::from_parts(neg ? -1 : 1, std::move(mag));
    }
    return out;
}

void copy_coeffs(const CoeffBlock& src, const CoeffRuns& src_pick,
                 CoeffBlock& dst, const CoeffRuns& dst_pick) {
    assert(src_pick.count == dst_pick.count);
    const std::size_t ss = src.stride();
    const std::size_t ds = dst.stride();
    for (std::size_t e = 0; e < src_pick.count; ++e) {
        const std::uint64_t* from = src.coeff(src_pick.at(e));
        std::uint64_t* to = dst.coeff(dst_pick.at(e));
        if (ss == ds) {
            std::memcpy(to, from, ss * sizeof(std::uint64_t));
        } else {
            store_wide(to, ds, from, ss, "copy_coeffs");
        }
    }
}

// ---- wire format -------------------------------------------------------------------

namespace {

/// |c| into @p mag (s limbs); returns its normalized limb count.
std::size_t magnitude_of(const std::uint64_t* c, std::size_t s, bool neg,
                         std::uint64_t* mag) noexcept {
    std::memcpy(mag, c, s * sizeof(std::uint64_t));
    if (neg) negate(mag, s);
    std::size_t n = s;
    while (n > 0 && mag[n - 1] == 0) --n;
    return n;
}

}  // namespace

std::size_t framed_words(const CoeffBlock& block, const CoeffRuns& pick) {
    const std::size_t s = block.stride();
    std::vector<std::uint64_t> mag(s);
    std::size_t words = 1;
    for (std::size_t e = 0; e < pick.count; ++e) {
        const std::uint64_t* c = block.coeff(pick.at(e));
        words += 2 + magnitude_of(c, s, negative(c, s), mag.data());
    }
    return words;
}

void encode_frame(const CoeffBlock& block, const CoeffRuns& pick,
                  std::vector<std::uint64_t>& out) {
    const std::size_t s = block.stride();
    std::vector<std::uint64_t> mag(s);
    out.push_back(pick.count);
    for (std::size_t e = 0; e < pick.count; ++e) {
        const std::uint64_t* c = block.coeff(pick.at(e));
        const bool neg = negative(c, s);
        const std::size_t n = magnitude_of(c, s, neg, mag.data());
        const std::int64_t sign = n == 0 ? 0 : (neg ? -1 : 1);
        out.push_back(static_cast<std::uint64_t>(sign));
        out.push_back(n);
        out.insert(out.end(), mag.begin(),
                   mag.begin() + static_cast<std::ptrdiff_t>(n));
    }
}

void decode_frame(std::span<const std::uint64_t> words, CoeffBlock& out,
                  const CoeffRuns& pick) {
    if (words.empty()) throw std::runtime_error("decode_frame: empty frame");
    if (words[0] != pick.count) {
        throw std::runtime_error("decode_frame: piece size mismatch");
    }
    const std::size_t s = out.stride();
    std::size_t pos = 1;
    for (std::size_t e = 0; e < pick.count; ++e) {
        if (pos + 2 > words.size()) {
            throw std::runtime_error("decode_frame: truncated header");
        }
        const bool neg = static_cast<std::int64_t>(words[pos]) < 0;
        const std::size_t n = words[pos + 1];
        pos += 2;
        if (n > words.size() - pos) {
            throw std::runtime_error("decode_frame: truncated payload");
        }
        if (n > s) overflow("decode_frame");
        std::uint64_t* c = out.coeff(pick.at(e));
        std::memcpy(c, words.data() + pos, n * sizeof(std::uint64_t));
        std::fill(c + n, c + s, 0);
        pos += n;
        if (neg) negate(c, s);
        if (n != 0 && negative(c, s) != neg) overflow("decode_frame");
    }
}

// ---- linear kernels ---------------------------------------------------------------

void evaluate_blocks(const Matrix<std::int64_t>& m, const CoeffBlock& in,
                     CoeffBlock& out, std::size_t block_len,
                     std::span<const std::size_t> rows) {
    assert(in.size() == m.cols() * block_len);
    const std::vector<std::size_t> every =
        rows.empty() ? all_rows(m.rows()) : std::vector<std::size_t>{};
    apply_map(map_of_matrix(m, rows.empty() ? every : rows), in, out,
              block_len, "evaluate_blocks");
}

void evaluate_blocks(const Matrix<BigInt>& m, const CoeffBlock& in,
                     CoeffBlock& out, std::size_t block_len,
                     std::span<const std::size_t> rows) {
    assert(in.size() == m.cols() * block_len);
    const std::vector<std::size_t> every =
        rows.empty() ? all_rows(m.rows()) : std::vector<std::size_t>{};
    apply_map(map_of_matrix(m, rows.empty() ? every : rows), in, out,
              block_len, "evaluate_blocks");
}

void apply_blocks(const InterpOperator& op, const CoeffBlock& in,
                  CoeffBlock& out, std::size_t block_len) {
    assert(in.size() == op.cols() * block_len);
    apply_map(map_of_interp(op), in, out, block_len, "apply_blocks");
}

void accumulate_column(const InterpOperator& op, std::size_t col,
                       const CoeffBlock& child, CoeffBlock& acc,
                       std::size_t block_len) {
    assert(col < op.cols());
    assert(child.size() == block_len);
    assert(acc.size() == op.rows() * block_len);
    const std::size_t xs = child.stride();
    const std::size_t sa = acc.stride();
    std::vector<std::uint64_t> wide;
    std::uint64_t charge = 0;
    for (std::size_t i = 0; i < op.rows(); ++i) {
        const BigInt& c = op.numerators()(i, col);
        if (c.is_zero()) continue;
        const std::size_t n = c.limb_count();
        const std::size_t w = std::max(sa, xs + n) + 1;
        const bool fast = c.fits_int64() && xs <= 2 && sa <= 2;
        const std::int64_t small = fast ? c.to_int64() : 0;
        const unsigned limit = product_limit(c.bit_length());
        wide.resize(w);
        for (std::size_t t = 0; t < block_len; ++t) {
            std::uint64_t* a = acc.coeff(i * block_len + t);
            if (fast) {
                const i128 x = load128(child.coeff(t), xs);
                if (x == 0) continue;
                i128 p;
                i128 sum = load128(a, sa);
                if (small_product(x, small, limit, p)) {
                    // add_mul: the multiply, then an unfused add.
                    const std::uint64_t cost =
                        add_charge(sum, p, limbs128(x), false);
                    if (!__builtin_add_overflow(sum, p, &sum)) {
                        if (!store128(a, sa, sum)) overflow("accumulate_column");
                        charge += cost;
                        continue;
                    }
                }
            }
            charge += value_limbs(child.coeff(t), xs) * n;
            load_wide(wide.data(), w, a, sa);
            addmul_wide(wide.data(), w, child.coeff(t), xs,
                        c.magnitude().data(), n, c.is_negative());
            store_wide(a, sa, wide.data(), w, "accumulate_column");
        }
    }
    OpsCounter::add(charge);
}

void finalize_blocks(const InterpOperator& op, CoeffBlock& acc,
                     std::size_t block_len) {
    assert(acc.size() == op.rows() * block_len);
    const std::size_t s = acc.stride();
    std::uint64_t charge = 0;
    for (std::size_t i = 0; i < op.rows(); ++i) {
        const BigInt& d = op.denominators()[i];
        if (d == BigInt{1}) continue;
        const bool fast = d.fits_int64() && s <= 2;
        for (std::size_t t = 0; t < block_len; ++t) {
            std::uint64_t* a = acc.coeff(i * block_len + t);
            if (fast) {
                store128(a, s, divexact128(load128(a, s), d.to_int64()));
            } else {
                divexact_wide(a, s, d.magnitude());
            }
            const std::size_t nq = value_limbs(a, s);
            charge += nq == 0 ? 0 : nq + 1;  // divmod_small's charge
        }
    }
    OpsCounter::add(charge);
}

CoeffBlock fold_blocks(const CoeffBlock& blocks,
                       std::span<const std::size_t> offsets, std::size_t rc,
                       std::size_t out_len) {
    assert(blocks.size() == offsets.size() * rc);
    const std::size_t s = blocks.stride();
    CoeffBlock out(out_len, s);
    std::uint64_t charge = 0;  // adds into nonzero values; the rest copy
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        assert(offsets[i] + rc <= out_len);
        for (std::size_t t = 0; t < rc; ++t) {
            std::uint64_t* a = out.coeff(offsets[i] + t);
            const std::uint64_t* b = blocks.coeff(i * rc + t);
            if (s <= 2) {
                const i128 va = load128(a, s);
                const i128 vb = load128(b, s);
                if (vb == 0) continue;
                charge += add_charge(va, vb, 0, false);
                i128 sum;
                if (__builtin_add_overflow(va, vb, &sum) || !store128(a, s, sum)) {
                    overflow("fold_blocks");
                }
                continue;
            }
            const std::size_t na = value_limbs(a, s);
            const std::size_t nb = value_limbs(b, s);
            if (na != 0 && nb != 0) charge += std::max(na, nb);
            const bool sa = negative(a, s);
            const bool sb = negative(b, s);
            std::uint64_t carry = 0;
            for (std::size_t l = 0; l < s; ++l) {
                const u128 sum = static_cast<u128>(a[l]) + b[l] + carry;
                a[l] = static_cast<std::uint64_t>(sum);
                carry = static_cast<std::uint64_t>(sum >> 64);
            }
            if (sa == sb && negative(a, s) != sa) overflow("fold_blocks");
        }
    }
    OpsCounter::add(charge);
    return out;
}

}  // namespace ftmul
