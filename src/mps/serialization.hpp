#pragma once

#include <iosfwd>
#include <string>

#include "kernel/kernel_matrix.hpp"
#include "mps/mps.hpp"

namespace qkmps::mps {

/// Binary (de)serialization of MPS states and kernel matrices. In the
/// paper's workflow the training-stage MPS are kept resident across
/// processes for later inference (Sec. III-A, "assuming the MPS of each of
/// the quantum states from the training stage are stored in memory");
/// persisting them makes the train-once / infer-later split work across
/// program runs too. Format: little-endian, versioned magic header.
/// Loaders treat their bytes as hostile: a corrupt file fails as
/// qkmps::Error, and no allocation sized from a header field may exceed
/// what a seekable stream still holds (io::remaining_bytes).

void save_mps(const Mps& psi, std::ostream& os);
Mps load_mps(std::istream& is);

void save_mps(const Mps& psi, const std::string& path);
Mps load_mps(const std::string& path);

/// Kernel (Gram) matrices, e.g. a precomputed training kernel.
void save_kernel(const kernel::RealMatrix& k, const std::string& path);
kernel::RealMatrix load_kernel(const std::string& path);

}  // namespace qkmps::mps
