#include "service/fingerprint.hpp"

#include <cstdio>
#include <cstring>

namespace asyncmg {

std::uint64_t content_hash(const void* data, std::size_t len,
                           std::uint64_t seed) {
  // Word-at-a-time: the fingerprint hashes megabytes of CSR arrays on every
  // request, and a byte-at-a-time loop would cost as much as the solve it
  // keys.
  constexpr std::uint64_t kMul = 0xff51afd7ed558ccdull;  // odd, dense bits
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  auto step = [&h](std::uint64_t w) {
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  };
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    step(w);
  }
  if (i < len) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, len - i);
    step(w);
  }
  // murmur3 fmix64.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

MatrixFingerprint matrix_fingerprint(const CsrMatrix& a) {
  MatrixFingerprint f;
  f.rows = a.rows();
  f.cols = a.cols();
  f.nnz = a.nnz();
  std::uint64_t h = content_hash(a.row_ptr().data(),
                                 a.row_ptr().size_bytes());
  h = content_hash(a.col_idx().data(), a.col_idx().size_bytes(), h);
  // Hash the value bytes at the stored width: client matrices are fp64 (so
  // existing fingerprints are unchanged), and an fp32 copy of the same
  // operator keys differently from its fp64 original, as it must.
  a.with_values([&](const auto* v) {
    h = content_hash(v, a.value_bytes(), h);
  });
  f.hash = h;
  return f;
}

std::string MatrixFingerprint::to_string() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%dx%d-n%d-h%016llx", rows, cols, nnz,
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace asyncmg
