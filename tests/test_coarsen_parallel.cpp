// Property tests for the row-parallel C/F splitting (DESIGN.md section 13).
// Over seeded random CSR strength graphs and structured Laplacian strength
// matrices, every algorithm must (a) be bitwise identical for every thread
// count, (b) equal oracle::coarsen_parallel_oracle -- the naive full-sweep
// serial implementation of the same rounds in tests/oracle -- exactly, and
// (c) satisfy the splitting contracts: a valid independent set on symmetric
// strength graphs and C-coverage of every non-isolated F point in general.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "amg/coarsen.hpp"
#include "amg/hierarchy.hpp"
#include "amg/strength.hpp"
#include "mesh/problems.hpp"
#include "oracle/coarsen_oracle.hpp"
#include "sparse/csr.hpp"
#include "sparse/spgemm.hpp"
#include "util/rng.hpp"

namespace asyncmg {
namespace {

// 8 oversubscribes small machines on purpose: the splitting must not depend
// on how many cores actually exist.
const std::vector<int> kThreadCounts = {1, 2, 4, 8};

const std::vector<CoarsenAlgo> kAlgos = {CoarsenAlgo::kRS, CoarsenAlgo::kPMIS,
                                         CoarsenAlgo::kHMIS};

const char* algo_name(CoarsenAlgo a) {
  switch (a) {
    case CoarsenAlgo::kRS:
      return "RS";
    case CoarsenAlgo::kPMIS:
      return "PMIS";
    case CoarsenAlgo::kHMIS:
      return "HMIS";
  }
  return "?";
}

/// Random sparse 0/1 strength pattern (no diagonal, duplicate entries merge,
/// some rows come out empty -- the isolated-point paths get exercised).
/// Sized above kSetupSerialCutoff so the OpenMP paths actually run.
CsrMatrix random_strength(Index n, double avg_degree, Rng& rng) {
  std::vector<Triplet> trips;
  const auto target =
      static_cast<std::size_t>(avg_degree * static_cast<double>(n));
  for (std::size_t k = 0; k < target; ++k) {
    Triplet t;
    t.row = static_cast<Index>(rng.uniform_int(0, n - 1));
    t.col = static_cast<Index>(rng.uniform_int(0, n - 1));
    if (t.row == t.col) continue;
    t.value = 1.0;
    trips.push_back(t);
  }
  return CsrMatrix::from_triplets(n, n, std::move(trips));
}

/// Pattern-symmetrized copy: S + S^T (values irrelevant, only the pattern
/// drives the splitting's neighbor loops).
CsrMatrix symmetrize(const CsrMatrix& s) {
  return add(s, s.transpose(), 1.0, 1.0);
}

void expect_same_splitting(const Splitting& a, const Splitting& b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i] == PointType::kCoarse, b[i] == PointType::kCoarse)
        << what << ": point " << i;
  }
}

/// The graphs every equivalence test runs over: random patterns of varying
/// density plus the strength matrices of structured Laplacians.
std::vector<CsrMatrix> test_graphs() {
  std::vector<CsrMatrix> graphs;
  Rng rng(20240808);
  graphs.push_back(random_strength(3000, 2.0, rng));
  graphs.push_back(random_strength(3000, 6.0, rng));
  graphs.push_back(random_strength(4096, 12.0, rng));
  graphs.push_back(strength_matrix(make_laplace_7pt(14).a, 0.25));
  graphs.push_back(strength_matrix(make_laplace_27pt(16).a, 0.25));
  return graphs;
}

TEST(CoarsenParallel, BitIdenticalAcrossThreadCountsAndToOracle) {
  const std::vector<CsrMatrix> graphs = test_graphs();
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (CoarsenAlgo algo : kAlgos) {
      CoarsenParams p;
      p.algo = algo;
      p.seed = 42 + g;
      const Splitting oracle = oracle::coarsen_parallel_oracle(graphs[g], p);
      for (int nt : kThreadCounts) {
        p.num_threads = nt;
        expect_same_splitting(oracle, coarsen_parallel(graphs[g], p),
                              std::string("graph ") + std::to_string(g) +
                                  " algo " + algo_name(algo) + " nt " +
                                  std::to_string(nt));
      }
    }
  }
}

TEST(CoarsenParallel, IndependentSetOnSymmetricGraphs) {
  Rng rng(99);
  for (const double deg : {2.0, 5.0, 10.0}) {
    const CsrMatrix s = symmetrize(random_strength(3000, deg, rng));
    for (CoarsenAlgo algo : kAlgos) {
      CoarsenParams p;
      p.algo = algo;
      const Splitting split = coarsen_parallel(s, p);
      EXPECT_GT(count_coarse(split), 0) << algo_name(algo);
      const auto rp = s.row_ptr();
      const auto ci = s.col_idx();
      for (Index i = 0; i < s.rows(); ++i) {
        const bool ic = split[static_cast<std::size_t>(i)] == PointType::kCoarse;
        bool c_neighbor = false;
        for (Index k = rp[i]; k < rp[i + 1]; ++k) {
          const Index j = ci[static_cast<std::size_t>(k)];
          const bool jc =
              split[static_cast<std::size_t>(j)] == PointType::kCoarse;
          c_neighbor = c_neighbor || jc;
          // Independence: no strong edge connects two C points.
          ASSERT_FALSE(ic && jc)
              << algo_name(algo) << ": adjacent C points " << i << "," << j;
        }
        // Maximality: every F point with a nonempty neighborhood sees a C
        // point (isolated points legitimately stay F).
        if (!ic && rp[i + 1] > rp[i]) {
          ASSERT_TRUE(c_neighbor)
              << algo_name(algo) << ": F point " << i << " uncovered";
        }
      }
    }
  }
}

TEST(CoarsenParallel, EveryFinePointIsIsolatedOrDependsOnCoarse) {
  // General (asymmetric) graphs: the splitting contract all interpolation
  // builders rely on. F points are demoted only by a strong influence
  // turning C, so every non-isolated F point must see a C point in its
  // dependency row.
  const std::vector<CsrMatrix> graphs = test_graphs();
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const CsrMatrix& s = graphs[g];
    const CsrMatrix st = s.transpose();
    for (CoarsenAlgo algo : kAlgos) {
      CoarsenParams p;
      p.algo = algo;
      const Splitting split = coarsen_parallel(s, p);
      const auto rp = s.row_ptr();
      const auto ci = s.col_idx();
      const auto trp = st.row_ptr();
      for (Index i = 0; i < s.rows(); ++i) {
        if (split[static_cast<std::size_t>(i)] == PointType::kCoarse) continue;
        const bool no_dep = rp[i + 1] == rp[i];
        const bool no_infl = trp[i + 1] == trp[i];
        if (no_dep && no_infl) continue;  // isolated: F by definition
        bool dep_on_c = false;
        for (Index k = rp[i]; k < rp[i + 1]; ++k) {
          if (split[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])] ==
              PointType::kCoarse) {
            dep_on_c = true;
            break;
          }
        }
        ASSERT_TRUE(dep_on_c) << "graph " << g << " algo " << algo_name(algo)
                              << ": F point " << i << " has no C influence";
      }
    }
  }
}

TEST(CoarsenParallel, HashTieWeightsDeterministicAndInRange) {
  const Index n = 5000;  // above the serial cutoff
  const std::vector<double> ref =
      coarsen_tie_weights(n, 42, 1);
  ASSERT_EQ(ref.size(), static_cast<std::size_t>(n));
  for (double w : ref) {
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, 1.0);
  }
  for (int nt : kThreadCounts) {
    const std::vector<double> got =
        coarsen_tie_weights(n, 42, nt);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << "weight " << i << " at nt " << nt;
    }
  }
  // Different seeds must give different weight streams.
  const std::vector<double> other =
      coarsen_tie_weights(n, 43, 1);
  EXPECT_NE(ref, other);
}

TEST(CoarsenParallel, AggressiveStageBitIdenticalAcrossThreadCounts) {
  const CsrMatrix s = strength_matrix(make_laplace_27pt(16).a, 0.25);
  for (CoarsenAlgo algo : kAlgos) {
    CoarsenParams p;
    p.algo = algo;
    const Splitting first = coarsen_parallel(s, p);
    const Splitting ref = coarsen_aggressive_parallel(s, first, p);
    // The C set shrinks to a subset of the first stage's C set.
    EXPECT_LT(count_coarse(ref), count_coarse(first)) << algo_name(algo);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (ref[i] == PointType::kCoarse) {
        ASSERT_EQ(first[i], PointType::kCoarse) << algo_name(algo);
      }
    }
    for (int nt : kThreadCounts) {
      CoarsenParams pt = p;
      pt.num_threads = nt;
      expect_same_splitting(ref, coarsen_aggressive_parallel(s, first, pt),
                            std::string("aggressive ") + algo_name(algo) +
                                " nt " + std::to_string(nt));
    }
  }
}

void expect_identical_matrix(const CsrMatrix& a, const CsrMatrix& b,
                             const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.nnz(), b.nnz()) << what;
  const auto arp = a.row_ptr(), brp = b.row_ptr();
  const auto aci = a.col_idx(), bci = b.col_idx();
  const auto av = a.values(), bv = b.values();
  for (std::size_t i = 0; i <= static_cast<std::size_t>(a.rows()); ++i) {
    ASSERT_EQ(arp[i], brp[i]) << what << ": row_ptr[" << i << "]";
  }
  for (std::size_t k = 0; k < static_cast<std::size_t>(a.nnz()); ++k) {
    ASSERT_EQ(aci[k], bci[k]) << what << ": col_idx[" << k << "]";
    ASSERT_EQ(av[k], bv[k]) << what << ": values[" << k << "]";
  }
}

TEST(CoarsenParallel, HierarchyBuildBitIdenticalAcrossSetupThreads) {
  // End-to-end: the default (parallel coarsening) setup phase must produce
  // one hierarchy regardless of setup_threads, aggressive levels included.
  const CsrMatrix a = make_laplace_27pt(16).a;
  for (const int aggressive : {0, 1}) {
    AmgOptions opts;
    opts.num_aggressive_levels = aggressive;
    opts.precision = PrecisionPolicy{};  // pin the fp64 oracle
    opts.setup_threads = 1;
    const Hierarchy ref = Hierarchy::build(a, opts);
    ASSERT_GE(ref.num_levels(), 2u);
    for (int nt : {2, 4, 8}) {
      opts.setup_threads = nt;
      const Hierarchy h = Hierarchy::build(a, opts);
      ASSERT_EQ(ref.num_levels(), h.num_levels()) << "nt " << nt;
      for (std::size_t k = 0; k < ref.num_levels(); ++k) {
        const std::string tag = "aggr " + std::to_string(aggressive) +
                                " nt " + std::to_string(nt) + " level " +
                                std::to_string(k);
        expect_identical_matrix(ref.matrix(k), h.matrix(k), tag + " A");
        if (k + 1 < ref.num_levels()) {
          expect_identical_matrix(ref.interpolation(k), h.interpolation(k),
                                  tag + " P");
        }
        ASSERT_EQ(ref.level(k).split.size(), h.level(k).split.size()) << tag;
        for (std::size_t i = 0; i < ref.level(k).split.size(); ++i) {
          ASSERT_EQ(ref.level(k).split[i], h.level(k).split[i])
              << tag << " split " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace asyncmg
