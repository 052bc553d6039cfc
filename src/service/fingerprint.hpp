#pragma once
// Content fingerprint of a CSR matrix: shape + nnz + a 64-bit content hash
// (content_hash below) over the row pointers, column indices, and values.
// The HierarchyCache keys completed AMG setups by this fingerprint, so two
// byte-identical matrices share one setup while any structural or numerical
// change (even a single value bit) maps to a different entry.

#include <cstddef>
#include <cstdint>
#include <string>

#include "sparse/csr.hpp"

namespace asyncmg {

struct MatrixFingerprint {
  Index rows = 0;
  Index cols = 0;
  Index nnz = 0;
  std::uint64_t hash = 0;

  bool operator==(const MatrixFingerprint&) const = default;

  /// Compact key string, e.g. "3375x3375-n22475-h1a2b3c4d5e6f708"; stable
  /// across runs, used for spill file names and JSON stats.
  std::string to_string() const;
};

MatrixFingerprint matrix_fingerprint(const CsrMatrix& a);

inline constexpr std::uint64_t kContentHashSeed = 14695981039346656037ull;

/// The one 64-bit content hash of the library (matrix fingerprints, ring
/// positions, net setup keys), seedable for chaining. Each 8-byte word
/// (the tail zero-padded into one more) is xor-multiplied into the state,
/// then the high half is xor-shifted down, so a difference confined to a
/// word's top bit -- a sign flip -- cannot pass every later multiply
/// unchanged and cancel against a second one. A murmur3 fmix64 finalizer
/// avalanches the result, so inputs that differ in one low byte (ring
/// labels) land far apart.
std::uint64_t content_hash(const void* data, std::size_t len,
                           std::uint64_t seed = kContentHashSeed);

struct MatrixFingerprintHasher {
  std::size_t operator()(const MatrixFingerprint& f) const {
    // The content hash already mixes everything; fold in the shape cheaply.
    return static_cast<std::size_t>(
        f.hash ^ (static_cast<std::uint64_t>(f.rows) << 32) ^
        static_cast<std::uint64_t>(f.nnz));
  }
};

}  // namespace asyncmg
