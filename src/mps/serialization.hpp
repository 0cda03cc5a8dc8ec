#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mps/mps.hpp"

namespace qkmps::mps {

/// Binary (de)serialization of MPS states. In the paper's workflow the
/// training-stage MPS are kept resident across processes for later
/// inference (Sec. III-A, "assuming the MPS of each of the quantum states
/// from the training stage are stored in memory"); persisting them makes
/// the train-once / infer-later split work across program runs too, and
/// the Fig. 4 ring sends one such encoding per travelling state. Format
/// ("QKMS", version 1, native little-endian through util/binary_io.hpp):
/// magic, version, int64 sites, int64 center, then per site int64 left,
/// int64 right and its left x 2 x right complex amplitudes. load_mps
/// treats its bytes as hostile: a corrupt or truncated encoding, a shape
/// larger than the bytes hold, a non-finite amplitude, or bytes past the
/// last site fail as qkmps::Error before any allocation sized from them.

std::vector<std::uint8_t> save_mps(const Mps& psi);
Mps load_mps(const std::vector<std::uint8_t>& bytes);

void save_mps(const Mps& psi, const std::string& path);
Mps load_mps(const std::string& path);

}  // namespace qkmps::mps
