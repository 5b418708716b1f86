#include "core/ft_common.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "core/kronecker.hpp"
#include "core/layout.hpp"
#include "linalg/exact_solve.hpp"
#include "runtime/collectives.hpp"
#include "runtime/fault.hpp"

namespace ftmul::core_detail {

namespace {

/// Tag of the backward-exchange piece for role c: kPieceTag + c.
constexpr int kPieceTag = 60;

/// Vandermonde weight eta_j^position of a column member (eta_j = j+1).
BigInt code_weight(int j, const std::vector<int>& members, int rank) {
    const BigInt eta{static_cast<std::int64_t>(j + 1)};
    return eta.pow(static_cast<std::uint64_t>(
        std::find(members.begin(), members.end(), rank) - members.begin()));
}

}  // namespace

void arm_transport(Machine& machine, const ParallelConfig& cfg) {
    if (cfg.events) machine.enable_event_log();
    if (cfg.transport_guard || cfg.transport_faults.active()) {
        machine.set_transport_guard(true);
    }
    if (cfg.transport_faults.active()) {
        machine.set_transport_faults(cfg.transport_faults);
    }
}

BigInt signed_product(std::span<const CoeffBlock> slices,
                      std::size_t digit_bits, const BigInt& a,
                      const BigInt& b) {
    BigInt prod = kronecker_assemble(slices, digit_bits);
    assert(!prod.is_negative());
    return a.sign() * b.sign() < 0 ? -prod : prod;
}

std::vector<BigInt> pack_pair(const CoeffBlock& x, const CoeffBlock& y) {
    std::vector<BigInt> s = to_bigints(x);
    std::vector<BigInt> t = to_bigints(y);
    s.insert(s.end(), std::make_move_iterator(t.begin()),
             std::make_move_iterator(t.end()));
    return s;
}

void unpack_pair(const std::vector<BigInt>& s, CoeffBlock& x, CoeffBlock& y) {
    const std::span<const BigInt> all(s);
    const std::size_t half = s.size() / 2;
    x = from_bigints(all.first(half), x.stride());
    y = from_bigints(all.subspan(half), y.stride());
}

CoeffBlock fold_blocks_local(const CoeffBlock& blocks, std::size_t npts,
                             std::size_t rc, std::size_t block_gap_local,
                             std::size_t out_local_len) {
    assert((npts - 1) * block_gap_local + rc <= out_local_len);
    std::vector<std::size_t> offsets(npts);
    for (std::size_t i = 0; i < npts; ++i) offsets[i] = i * block_gap_local;
    return fold_blocks(blocks, offsets, rc, out_local_len);
}

const std::vector<int>* ColumnFaults::dead_in(const std::string& phase,
                                              int col) const {
    auto it = by_phase_col.find(phase);
    if (it == by_phase_col.end()) return nullptr;
    auto cit = it->second.find(col);
    return cit == it->second.end() ? nullptr : &cit->second;
}

std::vector<BigInt> encode_column(Rank& rank, const LinearColumn& c,
                                  const std::vector<BigInt>& state, int tag) {
    const bool is_code = c.is_code(rank.id());
    std::vector<BigInt> my_code;
    for (int j = 0; j < c.f; ++j) {
        const int code_rank = c.code_rank(j);
        if (is_code && rank.id() != code_rank) continue;
        Group g;
        g.members = c.members;
        g.members.push_back(code_rank);
        std::vector<BigInt> contribution;
        if (rank.id() != code_rank) {
            const BigInt w = code_weight(j, c.members, rank.id());
            contribution.reserve(state.size());
            for (const BigInt& v : state) contribution.push_back(w * v);
        }
        auto s = reduce_sum(rank, g, code_rank, std::move(contribution),
                            tag + j);
        if (rank.id() == code_rank) my_code = std::move(s);
    }
    return my_code;
}

std::vector<BigInt> recover_column(Rank& rank, const LinearColumn& c,
                                   const std::string& phase,
                                   const std::vector<int>& dead,
                                   const std::vector<BigInt>& state, int tag) {
    const int t = static_cast<int>(dead.size());
    assert(t >= 1 && t <= c.f);
    const bool i_am_dead =
        std::find(dead.begin(), dead.end(), rank.id()) != dead.end();
    const int root = dead.front();

    std::vector<BigInt> rhs_flat;
    for (int j = 0; j < t; ++j) {
        const int code_rank = c.code_rank(j);
        // A code rank only joins the reduce that carries its own code.
        if (c.is_code(rank.id()) && rank.id() != code_rank) continue;
        Group g;
        g.members = c.members;
        g.members.push_back(code_rank);

        std::vector<BigInt> contribution;
        if (rank.id() == code_rank) {
            contribution = state;  // the code vector
        } else if (!i_am_dead) {
            const BigInt w = code_weight(j, c.members, rank.id());
            contribution.reserve(state.size());
            for (const BigInt& v : state) contribution.push_back(-(w * v));
        }
        auto sum = reduce_sum(rank, g, root, std::move(contribution), tag + j);
        if (rank.id() == root) {
            rhs_flat.insert(rhs_flat.end(),
                            std::make_move_iterator(sum.begin()),
                            std::make_move_iterator(sum.end()));
        }
    }
    if (!i_am_dead) return {};

    if (rank.id() != root) {
        const int d = static_cast<int>(
            std::find(dead.begin(), dead.end(), rank.id()) - dead.begin());
        return rank.recv_bigints(root, tag + c.f + d);
    }

    // Solve the t x t Vandermonde-minor system per element:
    //   sum_d eta_j^{l_d} x_d = rhs_j.
    const auto ut = static_cast<std::size_t>(t);
    const std::size_t width = rhs_flat.size() / ut;
    Matrix<BigRational> m(ut, ut);
    for (int j = 0; j < t; ++j) {
        for (int d = 0; d < t; ++d) {
            m(static_cast<std::size_t>(j), static_cast<std::size_t>(d)) =
                BigRational{code_weight(j, c.members,
                                        dead[static_cast<std::size_t>(d)])};
        }
    }
    Matrix<BigRational> inv;
    try {
        inv = inverse(m);
    } catch (const SingularMatrixError&) {
        throw UnrecoverableFault(
            c.engine, phase, dead,
            "singular Vandermonde recovery system; the dead set cannot "
            "be rebuilt from the surviving code rows");
    }
    std::vector<std::vector<BigInt>> solved(ut, std::vector<BigInt>(width));
    for (std::size_t e = 0; e < width; ++e) {
        std::vector<BigRational> rhs(ut);
        for (std::size_t j = 0; j < ut; ++j) {
            rhs[j] = BigRational{rhs_flat[j * width + e]};
        }
        auto x = inv.apply(rhs);
        for (std::size_t d = 0; d < ut; ++d) solved[d][e] = x[d].as_integer();
    }
    for (int d = 1; d < t; ++d) {
        rank.send_bigints(dead[static_cast<std::size_t>(d)], tag + c.f + d,
                          solved[static_cast<std::size_t>(d)]);
    }
    return std::move(solved[0]);
}

bool protect_column(Rank& rank, const LinearColumn& c,
                    const std::string& encode_label, const std::string& phase,
                    const std::vector<int>* dead, std::vector<BigInt>& state,
                    int encode_tag, int recover_tag) {
    const bool is_code = c.is_code(rank.id());
    rank.phase(encode_label);
    std::vector<BigInt> code = encode_column(rank, c, state, encode_tag);

    const bool i_fail = !is_code && rank.phase(phase);
    if (dead == nullptr) return false;
    if (is_code && (rank.id() - c.code_base) / c.code_stride >=
                       static_cast<int>(dead->size())) {
        return false;  // spare code rows sit this recovery out
    }
    rank.phase("recover-" + phase);
    rank.begin_recovery(*dead);
    if (i_fail) state.clear();
    auto rebuilt = recover_column(rank, c, phase, *dead,
                                  is_code ? code : state, recover_tag);
    if (i_fail) state = std::move(rebuilt);
    rank.end_recovery();
    // Resume in a distinct bucket so recovery costs stay visible.
    rank.phase(phase + "+post-recovery");
    return i_fail;
}

PolyLoss::PolyLoss(std::set<int> doomed_cols, int wide_cols, int needed)
    : wide(static_cast<std::size_t>(wide_cols)),
      doomed(std::move(doomed_cols)) {
    for (int c = 0; c < wide_cols; ++c) {
        if (!doomed.count(c)) used.push_back(static_cast<std::size_t>(c));
    }
    sub = used.front();
    used.resize(static_cast<std::size_t>(needed));
}

std::vector<std::size_t> PolyLoss::roles(std::size_t col) const {
    std::vector<std::size_t> r{col};
    if (col == sub) {
        for (int c : doomed) r.push_back(static_cast<std::size_t>(c));
    }
    return r;
}

void exchange_backward_substituted(Rank& rank, const PolyLoss& loss,
                                   std::size_t row, std::size_t col,
                                   const CoeffBlock& child) {
    const std::size_t wide = loss.wide;
    const std::size_t superchunks = child.size() / wide;
    std::map<int, std::vector<TaggedPayload>> outbound;
    for (std::size_t c2 = 0; c2 < wide; ++c2) {
        if (c2 == col) continue;
        const std::size_t dst_col =
            loss.doomed.count(static_cast<int>(c2)) ? loss.sub : c2;
        if (dst_col == col) continue;  // the substitute keeps it locally
        outbound[static_cast<int>(row * wide + dst_col)].push_back(
            {kPieceTag + static_cast<int>(c2),
             frame_coeffs(child, CoeffRuns{c2, superchunks, 1, wide})});
    }
    for (auto& [dst, msgs] : outbound) rank.send_batch(dst, std::move(msgs));
    rank.add_latency(wide - 1);
}

CoeffBlock gather_role(Rank& rank, const PolyLoss& loss, std::size_t row,
                       std::size_t col, std::size_t role,
                       const CoeffBlock& child, std::size_t rc) {
    CoeffBlock children(loss.used.size() * rc, child.stride());
    for (std::size_t u = 0; u < loss.used.size(); ++u) {
        const std::size_t src = loss.used[u];
        const CoeffRuns dst = CoeffRuns::range(u * rc, rc);
        if (src == col) {
            copy_coeffs(child, CoeffRuns{role, rc, 1, loss.wide}, children,
                        dst);
            continue;
        }
        recv_coeffs(rank, static_cast<int>(row * loss.wide + src),
                    kPieceTag + static_cast<int>(role), children, dst);
    }
    return children;
}

void interpolate_roles(Rank& rank, const PolyLoss& loss, std::size_t row,
                       std::size_t col,
                       const std::function<void(std::size_t)>& interpolate) {
    const std::vector<std::size_t> roles = loss.roles(col);
    interpolate(col);
    if (roles.size() == 1) return;
    // Substituting for dead row peers is recovery work: attribute its exact
    // cost to this rank with the ranks it rebuilds.
    std::vector<int> dead;
    for (std::size_t i = 1; i < roles.size(); ++i) {
        dead.push_back(static_cast<int>(row * loss.wide + roles[i]));
    }
    rank.begin_recovery(dead);
    for (std::size_t i = 1; i < roles.size(); ++i) interpolate(roles[i]);
    rank.end_recovery();
}

}  // namespace ftmul::core_detail
