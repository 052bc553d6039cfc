#include "sparse/io.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace asyncmg {

namespace {

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

struct MmHeader {
  bool symmetric = false;
  long long rows = 0, cols = 0, nnz = 0;
};

// Banner, comments and dimension line of a coordinate real file.
MmHeader read_mm_header(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("mm: empty stream");
  std::istringstream banner(line);
  std::string tag, object, format, field, symmetry;
  banner >> tag >> object >> format >> field >> symmetry;
  if (tag != "%%MatrixMarket" || lower(object) != "matrix" ||
      lower(format) != "coordinate" || lower(field) != "real") {
    throw std::runtime_error("mm: unsupported banner: " + line);
  }
  const std::string sym = lower(symmetry);
  if (sym != "general" && sym != "symmetric") {
    throw std::runtime_error("mm: unsupported symmetry: " + symmetry);
  }
  // Skip comments.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  MmHeader h;
  h.symmetric = sym == "symmetric";
  std::istringstream dims(line);
  constexpr long long kMax = std::numeric_limits<Index>::max();
  if (!(dims >> h.rows >> h.cols >> h.nnz) || h.rows < 0 || h.cols < 0 ||
      h.nnz < 0 || h.rows > kMax || h.cols > kMax || h.nnz > kMax) {
    throw std::runtime_error("mm: bad dimension line");
  }
  return h;
}

}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  const MmHeader h = read_mm_header(in);
  std::vector<Triplet> trips;
  trips.reserve(static_cast<std::size_t>(h.symmetric ? 2 * h.nnz : h.nnz));
  for (long long k = 0; k < h.nnz; ++k) {
    long long i = 0, j = 0;
    double v = 0.0;
    if (!(in >> i >> j >> v)) throw std::runtime_error("mm: truncated entries");
    const auto r = static_cast<Index>(i - 1);
    const auto c = static_cast<Index>(j - 1);
    trips.push_back({r, c, v});
    if (h.symmetric && r != c) trips.push_back({c, r, v});
  }
  return CsrMatrix::from_triplets(static_cast<Index>(h.rows),
                                  static_cast<Index>(h.cols), std::move(trips));
}

CsrMatrix read_matrix_market_stored(std::istream& in) {
  const MmHeader h = read_mm_header(in);
  if (h.symmetric) throw std::runtime_error("mm: stored order needs general");
  std::vector<Index> row_ptr(static_cast<std::size_t>(h.rows) + 1, 0);
  std::vector<Index> col_idx;
  std::vector<double> values;
  col_idx.reserve(static_cast<std::size_t>(h.nnz));
  values.reserve(static_cast<std::size_t>(h.nnz));
  long long row = 1;  // 1-based row of the previous entry
  for (long long k = 0; k < h.nnz; ++k) {
    long long i = 0, j = 0;
    double v = 0.0;
    if (!(in >> i >> j >> v)) throw std::runtime_error("mm: truncated entries");
    if (i < row || i > h.rows || j < 1 || j > h.cols) {
      throw std::runtime_error("mm: entry out of row order or range");
    }
    row = i;
    ++row_ptr[static_cast<std::size_t>(i)];
    col_idx.push_back(static_cast<Index>(j - 1));
    values.push_back(v);
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(h.rows); ++r) {
    row_ptr[r + 1] += row_ptr[r];
  }
  return CsrMatrix::from_csr(static_cast<Index>(h.rows),
                             static_cast<Index>(h.cols), std::move(row_ptr),
                             std::move(col_idx), std::move(values));
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("mm: cannot open " + path);
  return read_matrix_market(f);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  // fp32 values widen exactly to double; 17 significant digits round-trips
  // either width through the text form.
  out.precision(17);
  a.with_values([&](const auto* v) {
    for (Index i = 0; i < a.rows(); ++i) {
      for (Index k = rp[i]; k < rp[i + 1]; ++k) {
        out << (i + 1) << ' ' << (ci[static_cast<std::size_t>(k)] + 1) << ' '
            << static_cast<double>(v[static_cast<std::size_t>(k)]) << '\n';
      }
    }
  });
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& a) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("mm: cannot open " + path);
  write_matrix_market(f, a);
}

Vector read_vector(std::istream& in) {
  std::size_t n = 0;
  if (!(in >> n)) throw std::runtime_error("vec: bad length");
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(in >> v[i])) throw std::runtime_error("vec: truncated");
  }
  return v;
}

void write_vector(std::ostream& out, const Vector& v) {
  out << v.size() << '\n';
  out.precision(17);
  for (double x : v) out << x << '\n';
}

}  // namespace asyncmg
