// Host-process memory probe: peak resident set size.
//
// Wall-clock/host-side quantities never enter simulated reports; this one
// feeds the `--profile` stderr report and perfbench — the same quarantine
// every steady_clock figure lives under.
#pragma once

#include <cstdint>

namespace pcs::util {

/// Peak resident set size of this process in kilobytes (Linux: VmHWM from
/// /proc/self/status).  Returns 0 where the probe is unavailable, so
/// callers can gate on `!= 0` instead of platform ifdefs.
[[nodiscard]] std::uint64_t peak_rss_kb();

}  // namespace pcs::util
