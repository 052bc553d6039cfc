#include "amg/serialize.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sparse/io.hpp"

namespace asyncmg {

namespace {
// v2 adds a per-level "precision <a> <p>" line carrying the stored scalar
// widths; v1 files (all-fp64) are still accepted by load_hierarchy.
constexpr const char* kMagic = "asyncmg-hierarchy-v2";
constexpr const char* kMagicV1 = "asyncmg-hierarchy-v1";
}

void save_hierarchy(std::ostream& out, const Hierarchy& h) {
  out << kMagic << '\n' << h.num_levels() << '\n';
  for (std::size_t k = 0; k < h.num_levels(); ++k) {
    const AmgLevel& lvl = h.level(k);
    const bool coarsest = k + 1 == h.num_levels();
    out << "level " << k << '\n';
    // Values are written as exactly-widened doubles (Matrix Market text),
    // row by row in stored order; the loader keeps that order and the
    // precision tags restore the stored width, so every level's arrays
    // round-trip exactly (fp32 levels and unsorted or duplicate columns
    // included).
    out << "precision " << precision_name(lvl.a.precision()) << ' '
        << (coarsest ? "-" : precision_name(lvl.p.precision())) << '\n';
    out << "matrix\n";
    write_matrix_market(out, lvl.a);
    out << "interp " << (coarsest ? 0 : 1) << '\n';
    if (!coarsest) write_matrix_market(out, lvl.p);
    out << "split " << lvl.split.size() << '\n';
    for (std::size_t i = 0; i < lvl.split.size(); ++i) {
      out << (lvl.split[i] == PointType::kCoarse ? 1 : 0)
          << ((i + 1) % 64 == 0 ? '\n' : ' ');
    }
    out << '\n';
  }
}

void save_hierarchy_file(const std::string& path, const Hierarchy& h) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("save_hierarchy: cannot open " + path);
  save_hierarchy(f, h);
}

namespace {

std::string expect_token(std::istream& in, const std::string& what) {
  std::string tok;
  if (!(in >> tok)) {
    throw std::runtime_error("load_hierarchy: truncated, expected " + what);
  }
  return tok;
}

void require(bool cond, const std::string& msg) {
  if (!cond) throw std::runtime_error("load_hierarchy: " + msg);
}

Precision parse_precision(const std::string& tok) {
  if (tok == "f32") return Precision::kF32;
  require(tok == "f64", "bad precision tag '" + tok + "'");
  return Precision::kF64;
}

}  // namespace

Hierarchy load_hierarchy(std::istream& in) {
  const std::string magic = expect_token(in, "magic");
  const bool v1 = magic == kMagicV1;
  require(v1 || magic == kMagic, "bad magic");
  std::size_t nl = 0;
  in >> nl;
  require(in.good() && nl > 0 && nl < 1000, "bad level count");

  std::vector<AmgLevel> levels;
  levels.reserve(nl);
  for (std::size_t k = 0; k < nl; ++k) {
    require(expect_token(in, "level") == "level", "expected 'level'");
    std::size_t idx = 0;
    in >> idx;
    require(idx == k, "level index mismatch");
    Precision a_prec = Precision::kF64;
    Precision p_prec = Precision::kF64;
    if (!v1) {
      require(expect_token(in, "precision") == "precision",
              "expected 'precision'");
      a_prec = parse_precision(expect_token(in, "matrix precision"));
      const std::string ptok = expect_token(in, "interp precision");
      if (ptok != "-") p_prec = parse_precision(ptok);
    }
    require(expect_token(in, "matrix") == "matrix", "expected 'matrix'");
    in.ignore();  // consume newline before the Matrix Market banner
    AmgLevel lvl;
    lvl.a = read_matrix_market_stored(in);
    lvl.a.convert_precision(a_prec);
    require(expect_token(in, "interp") == "interp", "expected 'interp'");
    int has_p = 0;
    in >> has_p;
    if (has_p) {
      in.ignore();
      lvl.p = read_matrix_market_stored(in);
      lvl.p.convert_precision(p_prec);
    }
    require(expect_token(in, "split") == "split", "expected 'split'");
    std::size_t ns = 0;
    in >> ns;
    require(in.good() && ns <= static_cast<std::size_t>(lvl.a.rows()),
            "bad split size");
    lvl.split.resize(ns);
    for (std::size_t i = 0; i < ns; ++i) {
      int v = 0;
      in >> v;
      require(in.good() && (v == 0 || v == 1), "bad split entry");
      lvl.split[i] = v ? PointType::kCoarse : PointType::kFine;
    }
    levels.push_back(std::move(lvl));
  }
  return Hierarchy::from_levels(std::move(levels));
}

Hierarchy load_hierarchy_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("load_hierarchy: cannot open " + path);
  return load_hierarchy(f);
}

std::string save_hierarchy_string(const Hierarchy& h) {
  std::ostringstream out;
  save_hierarchy(out, h);
  return std::move(out).str();
}

Hierarchy load_hierarchy_string(const std::string& bytes) {
  std::istringstream in(bytes);
  return load_hierarchy(in);
}

}  // namespace asyncmg
