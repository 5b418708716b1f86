#pragma once

#include <cstdint>

namespace ftmul {

/// Thread-local arithmetic-work counter.
///
/// Every low-level limb kernel (add, multiply, divide, shift) adds the number
/// of word-level operations it performed. This is the quantity the paper
/// calls the arithmetic cost F, counted per processor; the runtime snapshots
/// it at phase boundaries to accumulate critical-path totals.
class OpsCounter {
public:
    /// Add @p n word operations to this thread's tally.
    static void add(std::uint64_t n) noexcept { tally_ += n; }

    /// Current tally for this thread.
    static std::uint64_t get() noexcept { return tally_; }

    /// Reset this thread's tally to zero.
    static void reset() noexcept { tally_ = 0; }

private:
    // Defined here, constant-initialized: every TU reads the slot directly
    // instead of through a TLS wrapper call.
    static inline constinit thread_local std::uint64_t tally_ = 0;
};

}  // namespace ftmul
