#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    std::string spans_out;  ///< traced mode: where the span log goes
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// What one benchmark run prints: the result line's fields plus notes (host
/// noise, sample counts) for the human-readable lines before it.
struct RunReport {
    bool correct = true;          ///< no product failed the oracle
    std::uint64_t attempted = 0;  ///< operations issued
    std::uint64_t failed = 0;     ///< operations without a correct product
    std::vector<Metric> metrics;
    std::vector<std::string> notes;
};

/// Run one workload for opt.seconds. Untraced runs report every end-to-end
/// metric; traced runs report every per-layer metric. Throws
/// std::runtime_error when a metric cannot be measured (for example a
/// percentile without enough samples beyond it).
RunReport run_workload(const Options& opt);

}  // namespace perfbench
