// Counting global allocator, linked into the traced driver only.
//
// The untraced driver does not define these functions' allocator at all,
// so its hot path runs on the plain system operator new.
#pragma once

#include <cstdint>

namespace perfbench {

/// Starts/stops counting heap allocations made through operator new.
void alloc_count_arm(bool on);
/// Allocations counted since the last arm(true).
[[nodiscard]] std::uint64_t alloc_count();
/// steady_clock nanoseconds of the most recent counted allocation (0 when
/// none).  Destructors free without allocating, so the last allocation of
/// a call marks where its teardown began.
[[nodiscard]] std::int64_t last_alloc_ns();

}  // namespace perfbench
