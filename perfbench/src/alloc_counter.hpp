#pragma once

#include <cstdint>

namespace perfbench {

/// Process-wide heap-allocation counter behind a replaced global
/// operator new. It counts every allocation made through operator new —
/// by the benchmark and by the qkmps library linked into it, on every
/// thread — but only while switched on; when off, the replacement costs
/// one relaxed load per allocation.
void set_alloc_counting(bool on);
std::uint64_t alloc_count();

}  // namespace perfbench
