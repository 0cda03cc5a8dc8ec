#pragma once

#include <cstdlib>
#include <string>

namespace qkmps {

/// Reads scaling knobs from the environment. The bench harness defaults to
/// CI-scale parameters; setting QKMPS_FULL=1 switches every bench to the
/// paper-scale sweep (see DESIGN.md section 7).
bool full_scale_requested();

/// Integer environment variable with a default.
long long env_int(const std::string& name, long long fallback);

/// Floating-point environment variable with a default.
double env_double(const std::string& name, double fallback);

}  // namespace qkmps
