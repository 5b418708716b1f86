// Structural claims about who talks to whom, checked by querying a run's
// event log (MessageSend: rank -> peer at phase; PhaseBegin: a rank's walk).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bigint/random.hpp"
#include "core/parallel.hpp"
#include "runtime/collectives.hpp"
#include "runtime/events.hpp"
#include "runtime/machine.hpp"

namespace ftmul {
namespace {

TEST(Tracer, RecordsMessagesAndPhases) {
    Machine m(2);
    EventLog& log = m.enable_event_log();
    m.run([&](Rank& r) {
        r.phase("hello");
        if (r.id() == 0) r.send(1, 7, {1, 2, 3});
        if (r.id() == 1) (void)r.recv(0, 7);
    });
    const std::vector<Event> msgs = log.of_kind(EventKind::MessageSend);
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0].rank, 0);
    EXPECT_EQ(msgs[0].peer, 1);
    EXPECT_EQ(msgs[0].words, 3u);
    EXPECT_EQ(msgs[0].phase, "hello");
    EXPECT_GE(log.of_kind(EventKind::PhaseBegin).size(), 2u);
}

TEST(Tracer, ClearedBetweenRuns) {
    Machine m(2);
    EventLog& log = m.enable_event_log();
    m.run([&](Rank& r) {
        if (r.id() == 0) r.send(1, 1, {9});
        if (r.id() == 1) (void)r.recv(0, 1);
    });
    EXPECT_EQ(log.of_kind(EventKind::MessageSend).size(), 1u);
    m.run([&](Rank&) {});
    EXPECT_EQ(log.of_kind(EventKind::MessageSend).size(), 0u);
}

TEST(Tracer, CommMatrixAndCsv) {
    // The words matrix examples/comm_structure prints, folded from the
    // MessageSend events; each event carries the fields of one CSV row
    // (src, dst, tag, words, phase).
    constexpr int kWorld = 3;
    Machine m(kWorld);
    EventLog& log = m.enable_event_log();
    m.run([&](Rank& r) {
        r.phase("x");
        if (r.id() == 0) {
            r.send(1, 1, std::vector<std::uint64_t>(5, 0));
            r.send(2, 1, std::vector<std::uint64_t>(7, 0));
        } else {
            (void)r.recv(0, 1);
        }
    });
    std::vector<std::vector<std::uint64_t>> cm(
        kWorld, std::vector<std::uint64_t>(kWorld, 0));
    const std::vector<Event> sends = log.of_kind(EventKind::MessageSend);
    for (const Event& e : sends) {
        cm[static_cast<std::size_t>(e.rank)][static_cast<std::size_t>(e.peer)] +=
            e.words;
    }
    EXPECT_EQ(cm[0][1], 5u);
    EXPECT_EQ(cm[0][2], 7u);
    EXPECT_EQ(cm[1][0], 0u);
    const auto row = std::find_if(sends.begin(), sends.end(), [](const Event& e) {
        return e.rank == 0 && e.peer == 1;
    });
    ASSERT_NE(row, sends.end());
    EXPECT_EQ(row->tag, 1);
    EXPECT_EQ(row->words, 5u);
    EXPECT_EQ(row->phase, "x");
}

TEST(Tracer, ParallelToomCommunicatesOnlyWithinRows) {
    // The paper's structural claim (Section 3 / Figure 1): "A BFS step
    // involves communication only within rows of the grid". Level-0 rows of
    // the 3x3 grid are {0,1,2}, {3,4,5}, {6,7,8}; level-1 rows are the
    // column subgroups {c, c+3, c+6}.
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    cfg.events = true;
    Rng rng{5};
    BigInt a = random_bits(rng, 3000), b = random_bits(rng, 3000);
    auto res = parallel_toom_multiply(a, b, cfg);
    ASSERT_NE(res.events, nullptr);

    const std::vector<Event> sends =
        res.events->of_kind(EventKind::MessageSend);
    ASSERT_FALSE(sends.empty());
    for (const Event& msg : sends) {
        const bool level0 = msg.phase.find("L0") != std::string::npos;
        const bool level1 = msg.phase.find("L1") != std::string::npos;
        ASSERT_TRUE(level0 || level1) << msg.phase;
        if (level0) {
            EXPECT_EQ(msg.rank / 3, msg.peer / 3)
                << msg.rank << "->" << msg.peer << " in " << msg.phase;
        } else {
            EXPECT_EQ(msg.rank % 3, msg.peer % 3)
                << msg.rank << "->" << msg.peer << " in " << msg.phase;
        }
    }

    // Every rank walks the same phase skeleton.
    for (int r = 0; r < cfg.processors; ++r) {
        std::vector<std::string> walk;
        for (const Event& e : res.events->for_rank(r)) {
            if (e.kind == EventKind::PhaseBegin) walk.push_back(e.phase);
        }
        const auto entered = [&](const char* phase) {
            return std::find(walk.begin(), walk.end(), phase) != walk.end();
        };
        EXPECT_TRUE(entered("eval-L0")) << "rank " << r;
        EXPECT_TRUE(entered("leaf-mul")) << "rank " << r;
    }
}

TEST(Tracer, CollectivesStayInsideTheirGroup) {
    Machine m(6);
    EventLog& log = m.enable_event_log();
    m.run([&](Rank& r) {
        Group g = r.id() < 3 ? Group::strided(0, 3) : Group::strided(3, 3);
        (void)allreduce_sum(r, g, {BigInt{1}}, 4);
    });
    const std::vector<Event> sends = log.of_kind(EventKind::MessageSend);
    ASSERT_FALSE(sends.empty());
    for (const Event& msg : sends) {
        EXPECT_EQ(msg.rank < 3, msg.peer < 3) << msg.rank << "->" << msg.peer;
    }
}

}  // namespace
}  // namespace ftmul
