#pragma once
// Hierarchy serialization: the AMG setup phase is the expensive part of a
// solve (strength + coarsening + interpolation + SpGEMMs), so production
// users persist it and reload it for repeated right-hand sides. The format
// is a self-describing text container of Matrix Market blocks plus the CF
// splittings.

#include <iosfwd>
#include <string>

#include "amg/hierarchy.hpp"

namespace asyncmg {

/// Writes the hierarchy (operators, interpolations, splittings).
void save_hierarchy(std::ostream& out, const Hierarchy& h);
void save_hierarchy_file(const std::string& path, const Hierarchy& h);

/// Reads a hierarchy previously written by save_hierarchy, array for array:
/// every level's CSR arrays come back exactly as they were stored. Validates
/// the interpolation chain; throws std::runtime_error on malformed input.
Hierarchy load_hierarchy(std::istream& in);
Hierarchy load_hierarchy_file(const std::string& path);

/// In-memory round-trip: the serialized container as a string. This is the
/// primitive the HierarchyCache spill path builds on (serialize once, then
/// hand the bytes to whatever store backs the cache).
std::string save_hierarchy_string(const Hierarchy& h);
Hierarchy load_hierarchy_string(const std::string& bytes);

}  // namespace asyncmg
