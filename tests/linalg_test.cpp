#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "src/linalg/dense_matrix.hpp"
#include "src/linalg/iterative.hpp"
#include "src/linalg/lu.hpp"
#include "src/linalg/poisson.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace nvp::linalg {
namespace {

// ---- DenseMatrix ------------------------------------------------------------

TEST(DenseMatrix, IdentityAndElementAccess) {
  auto id = DenseMatrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
}

TEST(DenseMatrix, MultiplyMatchesHandComputation) {
  DenseMatrix a(2, 3);
  DenseMatrix b(3, 2);
  int v = 1;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = v++;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 2; ++j) b(i, j) = v++;
  const auto c = a.multiply(b);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

/// The textbook i-k-j product, zero skip included: the loop the tiled
/// kernel replaced, kept here as its bit-level reference.
DenseMatrix naive_product(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  return out;
}

/// Entries in [-1, 1), about a third of them exact zeros.
DenseMatrix random_matrix(std::size_t rows, std::size_t cols,
                          util::RandomStream& rng) {
  DenseMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      m(i, j) = rng.uniform01() < 1.0 / 3.0 ? 0.0 : rng.uniform(-1.0, 1.0);
  return m;
}

bool same_bits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.row_data(0), b.row_data(0),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

TEST(DenseMatrix, TiledProductIsBitIdenticalToTheNaiveLoop) {
  util::RandomStream rng(11);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 70u, 117u,
                              176u}) {
    // Square, then ragged shapes so every tile edge (rows % 4, cols % 4)
    // is exercised.
    for (const auto& [rows, inner, cols] :
         {std::tuple{n, n, n}, std::tuple{n + 1, n + 2, n + 3},
          std::tuple{n + 3, n, n + 1}}) {
      const DenseMatrix a = random_matrix(rows, inner, rng);
      const DenseMatrix b = random_matrix(inner, cols, rng);
      const DenseMatrix expected = naive_product(a, b);
      EXPECT_TRUE(same_bits(a.multiply(b), expected))
          << rows << "x" << inner << " * " << inner << "x" << cols;
      // A caller-owned buffer of the wrong shape is reshaped; one of the
      // right shape is overwritten whatever it held.
      DenseMatrix out(2, 2, 5.0);
      a.multiply_into(b, out);
      EXPECT_TRUE(same_bits(out, expected));
      a.multiply_into(b, out);
      EXPECT_TRUE(same_bits(out, expected));
    }
  }
}

TEST(DenseMatrix, VectorProducts) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const Vector x = {1.0, 1.0};
  const auto ax = a.multiply(x);
  EXPECT_DOUBLE_EQ(ax[0], 3.0);
  EXPECT_DOUBLE_EQ(ax[1], 7.0);
  const auto xa = a.left_multiply(x);
  EXPECT_DOUBLE_EQ(xa[0], 4.0);
  EXPECT_DOUBLE_EQ(xa[1], 6.0);
}

TEST(DenseMatrix, TransposeAndNorms) {
  DenseMatrix a(2, 3, 0.0);
  a(1, 2) = -5.0;
  const auto t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), -5.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 5.0);
  EXPECT_TRUE(a.all_finite());
  a(0, 0) = std::nan("");
  EXPECT_FALSE(a.all_finite());
}

TEST(VectorOps, NormsSumsAndDot) {
  const Vector v = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(v), 4.0);
  EXPECT_DOUBLE_EQ(sum(v), -1.0);
  EXPECT_DOUBLE_EQ(dot(v, v), 25.0);
  Vector w = {1.0, 3.0};
  normalize_l1(w);
  EXPECT_DOUBLE_EQ(w[0], 0.25);
  Vector zero = {0.0};
  EXPECT_THROW(normalize_l1(zero), util::ContractViolation);
}

// ---- LU ----------------------------------------------------------------------

TEST(Lu, SolvesKnownSystem) {
  DenseMatrix a(3, 3);
  const double data[3][3] = {{2, 1, 1}, {1, 3, 2}, {1, 0, 0}};
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = data[i][j];
  const Vector b = {4, 5, 6};
  const auto x = solve_linear_system(a, b);
  // Solution: x = 6, y = 15, z = -23.
  EXPECT_NEAR(x[0], 6.0, 1e-12);
  EXPECT_NEAR(x[1], 15.0, 1e-12);
  EXPECT_NEAR(x[2], -23.0, 1e-12);
}

TEST(Lu, RandomRoundTrip) {
  util::RandomStream rng(42);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n = 1 + rng.uniform_index(20);
    DenseMatrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 5.0;  // well-conditioned
    Vector x_true(n);
    for (auto& v : x_true) v = rng.normal();
    const Vector b = a.multiply(x_true);
    const auto x = solve_linear_system(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
  }
}

TEST(Lu, DetectsSingularity) {
  DenseMatrix a(2, 2, 0.0);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;  // rank 1
  EXPECT_THROW(LuDecomposition{a}, SingularMatrixError);
}

TEST(Lu, DeterminantWithPivoting) {
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;  // permutation matrix, det = -1
  EXPECT_NEAR(LuDecomposition{a}.determinant(), -1.0, 1e-12);
}

TEST(Lu, ReusesFactorizationForMultipleRhs) {
  DenseMatrix a(2, 2);
  a(0, 0) = 4.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  LuDecomposition lu(a);
  const auto x1 = lu.solve({1.0, 0.0});
  const auto x2 = lu.solve({0.0, 1.0});
  // Inverse of [[4,1],[1,3]] is [[3,-1],[-1,4]]/11.
  EXPECT_NEAR(x1[0], 3.0 / 11.0, 1e-12);
  EXPECT_NEAR(x2[1], 4.0 / 11.0, 1e-12);
}

// ---- iterative -----------------------------------------------------------------

TEST(Iterative, PowerIterationFindsStationary) {
  // Two-state chain: P = [[0.9, 0.1], [0.5, 0.5]]; pi = (5/6, 1/6).
  DenseMatrix p(2, 2);
  p(0, 0) = 0.9;
  p(0, 1) = 0.1;
  p(1, 0) = 0.5;
  p(1, 1) = 0.5;
  const auto res = stationary_power_iteration(p);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 5.0 / 6.0, 1e-9);
  EXPECT_NEAR(res.x[1], 1.0 / 6.0, 1e-9);
}

// ---- sparse --------------------------------------------------------------------

TEST(Sparse, AssemblySumsDuplicatesAndDropsZeros) {
  SparseMatrixCsr m(2, 2,
                    {{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}, {1, 0, 0.0}});
  EXPECT_EQ(m.nonzeros(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
}

TEST(Sparse, MultiplyAgreesWithDense) {
  util::RandomStream rng(11);
  std::vector<Triplet> triplets;
  for (int k = 0; k < 40; ++k)
    triplets.push_back({rng.uniform_index(6), rng.uniform_index(5),
                        rng.normal()});
  SparseMatrixCsr sparse(6, 5, triplets);
  const auto dense = sparse.to_dense();
  Vector x(5), y(6);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  const auto s1 = sparse.multiply(x);
  const auto d1 = dense.multiply(x);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(s1[i], d1[i], 1e-12);
  const auto s2 = sparse.left_multiply(y);
  const auto d2 = dense.left_multiply(y);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(s2[i], d2[i], 1e-12);
}

TEST(Sparse, StationaryMatchesDenseSolver) {
  // Simple 3-state stochastic matrix.
  std::vector<Triplet> t = {{0, 1, 1.0},  {1, 0, 0.3}, {1, 2, 0.7},
                            {2, 0, 0.5},  {2, 2, 0.5}};
  SparseMatrixCsr p(3, 3, t);
  const auto sparse_res = stationary_power_iteration(p);
  const auto dense_res = stationary_power_iteration(p.to_dense());
  ASSERT_TRUE(sparse_res.converged);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(sparse_res.x[i], dense_res.x[i], 1e-9);
}

// ---- poisson -------------------------------------------------------------------

TEST(Poisson, DegenerateAtZeroMean) {
  const auto terms = poisson_terms(0.0);
  ASSERT_EQ(terms.pmf.size(), 1u);
  EXPECT_DOUBLE_EQ(terms.pmf[0], 1.0);
}

TEST(Poisson, MassSumsToOne) {
  for (double mean : {0.1, 1.0, 5.0, 30.0, 200.0, 2000.0}) {
    const auto terms = poisson_terms(mean, 1e-13);
    double total = 0.0;
    for (double p : terms.pmf) total += p;
    EXPECT_NEAR(total, 1.0, 1e-11) << "mean " << mean;
    EXPECT_LE(terms.tail_mass, 1e-11);
  }
}

TEST(Poisson, MatchesExactPmfSmallMean) {
  const double mean = 3.0;
  const auto terms = poisson_terms(mean);
  double expected = std::exp(-mean);  // k = 0
  EXPECT_NEAR(terms.pmf[0], expected, 1e-14);
  expected *= mean;  // k = 1
  EXPECT_NEAR(terms.pmf[1], expected, 1e-14);
  expected *= mean / 2.0;  // k = 2
  EXPECT_NEAR(terms.pmf[2], expected, 1e-14);
}

TEST(Poisson, MeanOfDistributionMatches) {
  const auto terms = poisson_terms(12.5, 1e-14);
  double mean = 0.0;
  for (std::size_t k = 0; k < terms.pmf.size(); ++k)
    mean += static_cast<double>(k) * terms.pmf[k];
  EXPECT_NEAR(mean, 12.5, 1e-9);
}

}  // namespace
}  // namespace nvp::linalg
