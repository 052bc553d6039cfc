#pragma once
// Matrix Market I/O so users can bring their own systems (the paper's MFEM
// matrices are distributed in this format) and so test fixtures can be
// round-tripped.

#include <iosfwd>
#include <string>

#include "sparse/csr.hpp"

namespace asyncmg {

/// Reads a Matrix Market "coordinate real {general|symmetric}" matrix.
/// Symmetric files are expanded to full storage. Throws std::runtime_error
/// on malformed input.
CsrMatrix read_matrix_market(std::istream& in);
CsrMatrix read_matrix_market_file(const std::string& path);

/// Reads a "coordinate real general" matrix whose entries run row by row,
/// as write_matrix_market writes them, into CSR arrays in stored order:
/// column order within a row and duplicate entries are kept as they are,
/// so a write/read round trip reproduces the arrays exactly. Throws
/// std::runtime_error on an entry out of row order or malformed input.
CsrMatrix read_matrix_market_stored(std::istream& in);

/// Writes coordinate real general format (1-based indices).
void write_matrix_market(std::ostream& out, const CsrMatrix& a);
void write_matrix_market_file(const std::string& path, const CsrMatrix& a);

/// Plain-text vector I/O: first line is the length, then one value per line.
Vector read_vector(std::istream& in);
void write_vector(std::ostream& out, const Vector& v);

}  // namespace asyncmg
