#include "core/layout.hpp"

#include <cassert>
#include <stdexcept>

namespace ftmul {

std::vector<std::size_t> owned_positions(std::size_t len, std::size_t bs,
                                         std::size_t m, std::size_t j) {
    assert(len % (bs * m) == 0);
    std::vector<std::size_t> out;
    out.reserve(len / m);
    for (std::size_t chunk = j * bs; chunk < len; chunk += bs * m) {
        for (std::size_t t = 0; t < bs; ++t) out.push_back(chunk + t);
    }
    return out;
}

std::vector<BigInt> slice_of(const std::vector<BigInt>& full, std::size_t bs,
                             std::size_t m, std::size_t j) {
    std::vector<BigInt> out;
    for (std::size_t t : owned_positions(full.size(), bs, m, j)) {
        out.push_back(full[t]);
    }
    return out;
}

std::vector<BigInt> unslice(const std::vector<std::vector<BigInt>>& slices,
                            std::size_t bs) {
    const std::size_t m = slices.size();
    assert(m > 0);
    const std::size_t len = slices[0].size() * m;
    std::vector<BigInt> full(len);
    for (std::size_t j = 0; j < m; ++j) {
        assert(slices[j].size() == slices[0].size());
        const auto pos = owned_positions(len, bs, m, j);
        for (std::size_t i = 0; i < pos.size(); ++i) full[pos[i]] = slices[j][i];
    }
    return full;
}

Group column_subgroup(const Group& g, std::size_t npts, std::size_t col) {
    assert(g.size() % npts == 0);
    Group out;
    for (std::size_t r = 0; r * npts + col < g.size(); ++r) {
        out.members.push_back(g.members[r * npts + col]);
    }
    return out;
}

PayloadBuf frame_coeffs(const CoeffBlock& block, const CoeffRuns& pick) {
    PayloadBuf buf = MsgPool::instance().acquire(framed_words(block, pick));
    encode_frame(block, pick, buf.storage());
    return buf;
}

void recv_coeffs(Rank& rank, int src, int tag, CoeffBlock& out,
                 const CoeffRuns& pick) {
    const PayloadBuf buf = rank.recv_buf(src, tag);
    decode_frame(buf.words(), out, pick);
}

std::pair<CoeffBlock, CoeffBlock> exchange_forward_pair(
    Rank& rank, const Group& g, std::size_t npts, std::size_t bs,
    CoeffBlock a_local, CoeffBlock b_local, int tag_a, int tag_b) {
    const std::size_t m = g.size();
    assert(m % npts == 0);
    if (a_local.size() % npts != 0 || b_local.size() % npts != 0) {
        throw std::invalid_argument("exchange_forward_pair: bad local size");
    }
    const std::size_t sa = a_local.size() / npts;
    const std::size_t sb = b_local.size() / npts;
    if (sa % bs != 0 || sb % bs != 0) {
        throw std::invalid_argument("exchange_forward_pair: bad local size");
    }

    const std::size_t me = g.index_of(rank.id());
    const std::size_t row = me / npts;
    const std::size_t col = me % npts;

    // One batched delivery per row peer carrying both operands' slices,
    // framed straight out of the evaluation blocks.
    for (std::size_t i = 0; i < npts; ++i) {
        if (i == col) continue;
        std::vector<TaggedPayload> msgs;
        msgs.push_back({tag_a, frame_coeffs(a_local, CoeffRuns::range(i * sa, sa))});
        msgs.push_back({tag_b, frame_coeffs(b_local, CoeffRuns::range(i * sb, sb))});
        rank.send_batch(g.members[row * npts + i], std::move(msgs));
    }
    // The new layout interleaves the row pieces: ascending positions
    // alternate bs-chunks by source column, so piece c2 lands in runs of bs
    // coefficients npts * bs apart starting at c2 * bs.
    const auto piece = [&](std::size_t c2, std::size_t s) {
        return CoeffRuns{c2 * bs, s, bs, npts * bs};
    };
    CoeffBlock a_new(npts * sa, a_local.stride());
    CoeffBlock b_new(npts * sb, b_local.stride());
    copy_coeffs(a_local, CoeffRuns::range(col * sa, sa), a_new, piece(col, sa));
    copy_coeffs(b_local, CoeffRuns::range(col * sb, sb), b_new, piece(col, sb));
    for (std::size_t c2 = 0; c2 < npts; ++c2) {
        if (c2 == col) continue;
        const int peer = g.members[row * npts + c2];
        recv_coeffs(rank, peer, tag_a, a_new, piece(c2, sa));
        recv_coeffs(rank, peer, tag_b, b_new, piece(c2, sb));
    }
    rank.add_latency(2 * (npts - 1));
    return {std::move(a_new), std::move(b_new)};
}

CoeffBlock exchange_backward(Rank& rank, const Group& g, std::size_t npts,
                             std::size_t bs, CoeffBlock child_local, int tag) {
    const std::size_t m = g.size();
    assert(m % npts == 0);
    const std::size_t bs_new = bs * npts;
    if (child_local.size() % bs_new != 0) {
        throw std::invalid_argument("exchange_backward: bad local size");
    }
    const std::size_t sc = child_local.size();
    const std::size_t piece_len = sc / npts;

    const std::size_t me = g.index_of(rank.id());
    const std::size_t row = me / npts;
    const std::size_t col = me % npts;

    // The old-layout piece for the row peer at column c2: within each bs_new
    // superchunk of my new-layout slice, the c2-th bs-chunk.
    const auto piece = [&](std::size_t c2) {
        return CoeffRuns{c2 * bs, piece_len, bs, bs_new};
    };
    for (std::size_t c2 = 0; c2 < npts; ++c2) {
        if (c2 == col) continue;
        rank.send_buf(g.members[row * npts + c2], tag,
                      frame_coeffs(child_local, piece(c2)));
    }

    // Receive my old-layout slice of every column's child result.
    CoeffBlock out(sc, child_local.stride());
    for (std::size_t i = 0; i < npts; ++i) {
        const CoeffRuns dst = CoeffRuns::range(i * piece_len, piece_len);
        if (i == col) {
            copy_coeffs(child_local, piece(col), out, dst);
        } else {
            recv_coeffs(rank, g.members[row * npts + i], tag, out, dst);
        }
    }
    rank.add_latency(npts - 1);
    return out;
}

}  // namespace ftmul
