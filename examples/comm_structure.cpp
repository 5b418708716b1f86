// Visualize the parallel algorithm's communication structure: the paper's
// grid claims made visible. Prints the rank-to-rank traffic matrix of a run,
// folded from its event log — BFS level 0 exchanges only inside rows
// {0,1,2},{3,4,5},...; level 1 only inside the column subgroups
// {c, c+3, c+6}.
//
//   ./comm_structure [bits]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bigint/random.hpp"
#include "core/parallel.hpp"

namespace {

using namespace ftmul;

/// ASCII heat map of the words each rank (row) sent to each rank (column),
/// over the MessageSend events whose phase starts with @p phase_prefix:
/// '.' for none, otherwise the single-digit log10 of the word count.
std::string render_comm_matrix(const EventLog& log, int world,
                               const std::string& phase_prefix = "") {
    const auto n = static_cast<std::size_t>(world);
    std::vector<std::vector<std::uint64_t>> words(
        n, std::vector<std::uint64_t>(n, 0));
    for (const Event& e : log.of_kind(EventKind::MessageSend)) {
        if (e.phase.rfind(phase_prefix, 0) != 0) continue;
        words[static_cast<std::size_t>(e.rank)]
             [static_cast<std::size_t>(e.peer)] += e.words;
    }
    std::string out = "      ";
    for (int j = 0; j < world; ++j) {
        out += std::to_string(j % 10);
        out += ' ';
    }
    out += "  (columns = destination rank)\n";
    for (std::size_t i = 0; i < n; ++i) {
        char head[16];
        std::snprintf(head, sizeof head, "%4zu  ", i);
        out += head;
        for (const std::uint64_t w : words[i]) {
            int mag = 0;
            for (std::uint64_t v = w; v >= 10; v /= 10) ++mag;
            out += w == 0 ? '.' : static_cast<char>('0' + std::min(mag, 9));
            out += ' ';
        }
        out += '\n';
    }
    return out;
}

/// One line per rank: the phases it entered, consecutive repeats collapsed.
std::string render_phase_walks(const EventLog& log, int world) {
    std::string out;
    for (int r = 0; r < world; ++r) {
        out += "rank " + std::to_string(r) + ": ";
        std::string last;
        for (const Event& e : log.for_rank(r)) {
            if (e.kind != EventKind::PhaseBegin || e.phase == last) continue;
            if (!last.empty()) out += " -> ";
            out += e.phase;
            last = e.phase;
        }
        out += '\n';
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t bits =
        argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1 << 14;

    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.events = true;
    Rng rng{3};
    const BigInt a = random_bits(rng, bits);
    const BigInt b = random_bits(rng, bits);
    auto res = parallel_toom_multiply(a, b, cfg);
    std::printf("parallel Toom-2 on a 3x3 grid, n=%zu bits; product %s\n\n",
                bits, res.product == a * b ? "verified" : "WRONG");

    const EventLog& log = *res.events;
    const int world = cfg.processors;
    std::printf("words sent, all phases (digit = log10 of words; '.' = none):\n%s\n",
                render_comm_matrix(log, world).c_str());
    std::printf("BFS step 0 only — communication stays within grid *rows* "
                "{0,1,2}, {3,4,5}, {6,7,8}:\n%s\n",
                render_comm_matrix(log, world, "xfwd-L0").c_str());
    std::printf("BFS step 1 only — rows of the repositioned grid are the "
                "column subgroups {c, c+3, c+6}:\n%s\n",
                render_comm_matrix(log, world, "xfwd-L1").c_str());
    std::printf("phase walk of each processor:\n%s",
                render_phase_walks(log, world).c_str());
    return 0;
}
