#pragma once

namespace perfbench {

/// Seconds taken by a fixed floating-point loop that touches no qkmps
/// code. Recorded next to the measurements so an outlier run can be
/// explained by a slow host; it never rescales or filters a metric.
double host_probe_seconds();

/// Resets the process's resident-set high-water mark (VmHWM) to the
/// current RSS. Returns false where the kernel refuses the reset.
bool reset_peak_rss();

/// VmHWM in MiB; 0 when /proc/self/status cannot be read.
double peak_rss_mb();

}  // namespace perfbench
