// Row-major dense matrix: the feature-table container for the ML stack.
// Deliberately minimal — the heavy lifting (trees, attention) works on
// raw spans for speed; Matrix provides safe construction, views, and the
// few dense ops linear regression needs. Below the class live the free
// batched kernels the attention fast path is built from: every kernel
// documents (and tests pin) its per-element accumulation order, so the
// blocked/vectorized forms are bit-identical to the scalar loops they
// replace.
#pragma once

#include <cmath>
#include <span>
#include <vector>

namespace dfv::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  [[nodiscard]] std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::vector<double> col(std::size_t c) const;

  [[nodiscard]] std::span<double> data() noexcept { return data_; }
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }

  void append_row(std::span<const double> values);
  /// Pre-size the backing store for `n` total rows (no-op if already that
  /// large); sample builders call this so append_row never reallocates.
  void reserve_rows(std::size_t n) { data_.reserve(n * cols_); }

  /// Select a subset of rows (copy).
  [[nodiscard]] Matrix select_rows(std::span<const std::size_t> idx) const;
  /// Select a subset of columns (copy).
  [[nodiscard]] Matrix select_cols(std::span<const std::size_t> idx) const;

  /// this^T * this (Gram matrix), used by ridge regression.
  [[nodiscard]] Matrix gram() const;
  /// this^T * y.
  [[nodiscard]] std::vector<double> tdot(std::span<const double> y) const;
  /// this * w.
  [[nodiscard]] std::vector<double> dot(std::span<const double> w) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// Solve A x = b for symmetric positive-definite A via Cholesky; A is
/// modified in place. Throws ContractError if A is not SPD (after the
/// ridge term callers add, this indicates a logic error).
[[nodiscard]] std::vector<double> cholesky_solve(Matrix& a, std::vector<double> b);

/// Non-owning batch of equally shaped sample rows. Logical row r is
/// `groups` chunks of `width` contiguous doubles, chunk g starting at
/// base[r] + g * stride; a contiguous matrix row is the stride == width
/// special case. This is how the forecasting layer feeds m-step windows
/// as strided views into cached per-run feature tables (stride = the
/// table's full feature count) without materializing m x F copies.
struct RowBatch {
  std::span<const double* const> base;  ///< one pointer per logical row
  std::size_t groups = 1;   ///< chunks per row (window steps m)
  std::size_t width = 0;    ///< doubles per chunk (features per step)
  std::size_t stride = 0;   ///< doubles between chunk starts

  [[nodiscard]] std::size_t size() const noexcept { return base.size(); }
  [[nodiscard]] std::size_t row_len() const noexcept { return groups * width; }
  /// Copy logical row `r` contiguously into out[0 .. row_len()).
  void gather(std::size_t r, double* out) const noexcept {
    const double* src = base[r];
    for (std::size_t g = 0; g < groups; ++g, src += stride, out += width)
      for (std::size_t c = 0; c < width; ++c) out[c] = src[c];
  }
};

/// Row pointers of `x` (helper to view a Matrix as a RowBatch).
[[nodiscard]] std::vector<const double*> row_pointers(const Matrix& x);

// ---- batched kernels (attention fast path) --------------------------------
//
// All kernels work on raw row-major buffers, compiled per-ISA via
// target_clones and with FP contraction disabled for the whole ml target;
// the d_model = 12 forms hold rows as explicit vector registers. Every
// form produces exactly the scalar IEEE sequence it documents. "r ascending" etc. states the per-output-element
// accumulation order, which is the determinism/bit-identity contract.

/// out[r,:] = init[(r % init_period),:] + x[r,:] * wt, with wt stored
/// transposed (f x d, wt[c*d + j]): per element (r, j) the products are
/// added in ascending c onto the init seed — the same order as the
/// scalar `s = init; for c: s += w[j,c] * x[c]` loop.
void affine_rows(const double* x, std::size_t n, std::size_t f, const double* wt,
                 std::size_t d, const double* init, std::size_t init_period,
                 double* out);

/// y[r] = init + sum_c x[r,c] * w[c], c ascending (4-row blocked).
void matvec_rows(const double* x, std::size_t n, std::size_t f, const double* w,
                 double init, double* y);

/// out[r,:] = a[r,:] * w (a: n x k, w: k x d): per element (r, j) the
/// products are added in ascending k onto a zero accumulator row.
void matmul_nn(const double* a, std::size_t n, std::size_t k, const double* w,
               std::size_t d, double* out);

/// out (k x d) += a^T * b (a: n x k, b: n x d): per element (i, j) rows
/// are accumulated in ascending r — the backprop weight-gradient kernel.
void add_matmul_tn(const double* a, std::size_t n, std::size_t k, const double* b,
                   std::size_t d, double* out);

/// out[c] += sum_r x[r,c] * y[r], r ascending (accumulating x^T y).
void add_tdot(const double* x, std::size_t n, std::size_t c, const double* y,
              double* out);

/// out[:] += sum_r x[r,:], r ascending (column sums).
void add_colsum(const double* x, std::size_t n, std::size_t d, double* out);

/// out[r] = sum_j x[r,j] * y[(r/group), j], j ascending — per-row dot
/// against a per-group vector (the attention d(alpha) reduction: group
/// = m steps share their sample's context gradient).
void dot_rows_grouped(const double* x, std::size_t n, std::size_t d,
                      const double* y, std::size_t group, double* out);

/// de[r,:] = a[r] * yg[(r/group),:] + b[r] * q[:] — the attention embed
/// gradient assembly; per element exactly the two-op sequence
/// `de = a*yg; de += b*q` of the scalar loops.
void attn_dembed(const double* a, const double* b, const double* yg,
                 const double* q, std::size_t n, std::size_t d,
                 std::size_t group, double* de);

/// The embed backward tail in one pass over the rows: per element
/// dz = de[r,j] * (1 - e[r,j]*e[r,j]) is stored in place into de, then
/// gb[j] += dz and gp[(r % period), j] += dz, r ascending in both sums —
/// the tanh backward followed by the bias column sums and the
/// positional (period = m steps) column sums.
void tanh_backward_colsums(const double* e, std::size_t n, std::size_t d, std::size_t period,
                           double* de, double* gb, double* gp);

/// out[g*width + c] = (src[g*stride + c] - mean[g*width + c]) / sd[g*width + c]
/// for `groups` chunks of `width` — the standardization of one strided
/// window (stride == width for a contiguous row). `out` may equal `src`.
void standardize_groups(const double* src, std::size_t groups, std::size_t width,
                        std::size_t stride, const double* mean, const double* sd, double* out);

/// dst[i] += src[i] (the ordered slab-partial combine).
void acc_add(double* dst, const double* src, std::size_t n);

/// One Adam step over a parameter region; per element exactly:
///   gi = g[i] + wd*w[i];
///   m1[i] = b1*m1[i] + (1-b1)*gi;   m2[i] = b2*m2[i] + (1-b2)*gi*gi;
///   w[i] -= lr * (m1[i]/bc1) / (sqrt(m2[i]/bc2) + eps);
void adam_step(double* w, const double* g, double* m1, double* m2, std::size_t n,
               double lr, double wd, double b1, double b2, double bc1, double bc2,
               double eps);

// ---- fast tanh ------------------------------------------------------------
//
// Rational approximation from the tanh continued fraction truncated at
// depth 12: tanh(x) = x * N(x^2) / D(x^2) with all-positive integer
// coefficients (every coefficient is exactly representable in a double
// and Horner never cancels), max relative error 5e-15 on |x| <= 3. The
// attention stack calls tanh m*d times per sample per epoch; libm tanh
// is ~4x the cost of this polynomial and cannot vectorize.

/// N/D convergent; accurate for |x| <= 3 only — callers branch to
/// tanh_tail beyond that.
[[nodiscard]] inline double tanh_poly(double x) noexcept {
  const double u = x * x;
  double n = 78.0;
  n = n * u + 75075.0;
  n = n * u + 18378360.0;
  n = n * u + 1571349780.0;
  n = n * u + 45831035250.0;
  n = n * u + 316234143225.0;
  double d = u + 3003.0;
  d = d * u + 1351350.0;
  d = d * u + 192972780.0;
  d = d * u + 9820936125.0;
  d = d * u + 151242416325.0;
  d = d * u + 316234143225.0;
  return x * n / d;
}

/// exp-based exact form for |x| >= 3 (rare on standardized activations);
/// saturates to +/-1 beyond |x| >= 20 where exp(-2x) underflows anyway.
[[nodiscard]] inline double tanh_tail(double x) noexcept {
  const double a = std::fabs(x);
  if (a >= 20.0) return x > 0.0 ? 1.0 : -1.0;
  const double e = std::exp(-2.0 * a);
  const double t = (1.0 - e) / (1.0 + e);
  return x < 0.0 ? -t : t;
}

[[nodiscard]] inline double fast_tanh(double x) noexcept {
  return std::fabs(x) < 3.0 ? tanh_poly(x) : tanh_tail(x);
}

/// out[i] = fast_tanh(z[i]): the polynomial pass runs branch-free over
/// every element (vectorizable, division included), then the rare
/// |z| >= 3 lanes are fixed up with tanh_tail — element-for-element
/// identical to calling fast_tanh in a scalar loop.
void tanh_rows(const double* z, std::size_t n, double* out);

}  // namespace dfv::ml
