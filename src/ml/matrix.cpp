#include "ml/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"

namespace dfv::ml {

std::vector<double> Matrix::col(std::size_t c) const {
  DFV_CHECK(c < cols_);
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::append_row(std::span<const double> values) {
  if (rows_ == 0 && cols_ == 0) cols_ = values.size();
  DFV_CHECK_MSG(values.size() == cols_, "appending row of width " << values.size()
                                                                  << " to matrix with "
                                                                  << cols_ << " columns");
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

Matrix Matrix::select_rows(std::span<const std::size_t> idx) const {
  Matrix out(idx.size(), cols_);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    DFV_CHECK(idx[i] < rows_);
    const auto src = row(idx[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

Matrix Matrix::select_cols(std::span<const std::size_t> idx) const {
  Matrix out(rows_, idx.size());
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t i = 0; i < idx.size(); ++i) {
      DFV_CHECK(idx[i] < cols_);
      out(r, i) = (*this)(r, idx[i]);
    }
  return out;
}

Matrix Matrix::gram() const {
  // Tiled upper-triangle accumulation: the (i, j) output tile stays
  // cache-resident while all rows stream past it, which matters for the
  // wide matrices the attention/linear solvers produce. Every cell still
  // sums rows in ascending order into a single accumulator, so the
  // result is bit-identical to the naive triple loop. (The old
  // `xi == 0.0` skip was a branch-per-element pessimization on dense
  // standardized data and is gone.)
  constexpr std::size_t kTile = 64;
  Matrix g(cols_, cols_);
  for (std::size_t ib = 0; ib < cols_; ib += kTile) {
    const std::size_t i_hi = std::min(cols_, ib + kTile);
    for (std::size_t jb = ib; jb < cols_; jb += kTile) {
      const std::size_t j_hi = std::min(cols_, jb + kTile);
      for (std::size_t r = 0; r < rows_; ++r) {
        const double* x = data_.data() + r * cols_;
        for (std::size_t i = ib; i < i_hi; ++i) {
          const double xi = x[i];
          double* gi = g.data().data() + i * cols_;
          for (std::size_t j = std::max(i, jb); j < j_hi; ++j) gi[j] += xi * x[j];
        }
      }
    }
  }
  for (std::size_t i = 0; i < cols_; ++i)
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  return g;
}

std::vector<double> Matrix::tdot(std::span<const double> y) const {
  DFV_CHECK(y.size() == rows_);
  std::vector<double> out(cols_, 0.0);
  // Rows are register-blocked in fours: each out[c] is read and written
  // once per block instead of once per row, while its additions keep the
  // exact ascending-row order of the naive loop (bit-identical result).
  std::size_t r = 0;
  for (; r + 4 <= rows_; r += 4) {
    const double* x0 = data_.data() + r * cols_;
    const double* x1 = x0 + cols_;
    const double* x2 = x1 + cols_;
    const double* x3 = x2 + cols_;
    const double y0 = y[r], y1 = y[r + 1], y2 = y[r + 2], y3 = y[r + 3];
    for (std::size_t c = 0; c < cols_; ++c) {
      double acc = out[c];
      acc += x0[c] * y0;
      acc += x1[c] * y1;
      acc += x2[c] * y2;
      acc += x3[c] * y3;
      out[c] = acc;
    }
  }
  for (; r < rows_; ++r) {
    const double* x = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) out[c] += x[c] * y[r];
  }
  return out;
}

std::vector<double> Matrix::dot(std::span<const double> w) const {
  DFV_CHECK(w.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  // Four rows share each w[c] load; every row keeps its own accumulator
  // summed in ascending column order (bit-identical to the naive loop).
  std::size_t r = 0;
  for (; r + 4 <= rows_; r += 4) {
    const double* x0 = data_.data() + r * cols_;
    const double* x1 = x0 + cols_;
    const double* x2 = x1 + cols_;
    const double* x3 = x2 + cols_;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      const double wc = w[c];
      s0 += x0[c] * wc;
      s1 += x1[c] * wc;
      s2 += x2[c] * wc;
      s3 += x3[c] * wc;
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < rows_; ++r) {
    const double* x = data_.data() + r * cols_;
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += x[c] * w[c];
    out[r] = s;
  }
  return out;
}

std::vector<const double*> row_pointers(const Matrix& x) {
  DFV_CHECK(x.rows() == 0 || x.cols() > 0);
  std::vector<const double*> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = x.row(r).data();
  return out;
}

// Per-ISA clones of the batched kernels: the container toolchain targets
// baseline x86-64, but the fleet CPUs have AVX2/AVX-512, so the hot
// loops dispatch at load time via ifunc. Combined with the ml-target
// -ffp-contract=off this is numerically safe: every clone executes the
// same unfused IEEE mul/add sequence, just more lanes per instruction.
// Clones are disabled under ThreadSanitizer: the ifunc resolvers run
// during relocation processing, before the TSan runtime has set up its
// TLS, and the instrumented resolver segfaults at startup. The default
// clone is bit-identical anyway, so TSan loses nothing but lanes.
#if defined(__SANITIZE_THREAD__)
#define DFV_ML_KERNEL
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DFV_ML_KERNEL
#endif
#endif
#if !defined(DFV_ML_KERNEL) && defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define DFV_ML_KERNEL __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef DFV_ML_KERNEL
#define DFV_ML_KERNEL
#endif

namespace {

// always_inline: each helper compiles inside the per-ISA clone that calls
// it, so it inherits that clone's target ISA.
#define DFV_ML_INLINE inline __attribute__((always_inline))

// Explicit GCC vector types for the 12-wide rows of the attention model
// (d_model = 12): one v8d plus one v4d per row. Held as `double acc[12]`
// arrays, GCC 12's SLP vectorizer rebuilds such accumulators with
// per-iteration lane inserts (vinsertf64x4, vmovhpd) and spends more on
// shuffles than on the multiply-adds; as vectors each accumulator stays
// one register set for the whole reduction. Vector `+` and `*` are the
// element-wise IEEE operations of the scalar loops (the ml target
// compiles with -ffp-contract=off), so each lane computes exactly its
// scalar sequence; the default clone lowers them to SSE2 halves. The
// helpers fill references and never return vectors by value: a by-value
// AVX-512 vector changes the psABI of the default clone (-Wpsabi).
typedef double v8d __attribute__((vector_size(64)));
typedef double v4d __attribute__((vector_size(32)));

struct Row12 {
  v8d lo;
  v4d hi;
};

DFV_ML_INLINE void load12(Row12& v, const double* p) {
  std::memcpy(&v.lo, p, sizeof v.lo);
  std::memcpy(&v.hi, p + 8, sizeof v.hi);
}

DFV_ML_INLINE void store12(double* p, const Row12& v) {
  std::memcpy(p, &v.lo, sizeof v.lo);
  std::memcpy(p + 8, &v.hi, sizeof v.hi);
}

/// acc[j] += s * w[j] for the 12 lanes.
DFV_ML_INLINE void axpy12(Row12& acc, double s, const Row12& w) {
  acc.lo += s * w.lo;
  acc.hi += s * w.hi;
}

/// Column view of 12 rows: v[i] = p[i * stride].
DFV_ML_INLINE void load_col12(Row12& v, const double* p, std::size_t stride) {
  double t[12];
  for (std::size_t i = 0; i < 12; ++i) t[i] = p[i * stride];
  load12(v, t);
}

DFV_ML_INLINE void store_col12(double* p, std::size_t stride, const Row12& v) {
  double t[12];
  store12(t, v);
  for (std::size_t i = 0; i < 12; ++i) p[i * stride] = t[i];
}

/// Next row's seed slot: (q + 1) % period without the division.
DFV_ML_INLINE std::size_t next_slot(std::size_t q, std::size_t period) {
  return q + 1 >= period ? 0 : q + 1;
}

/// affine_rows at d = 12: four output rows stay in registers for the
/// whole reduction over c and share each wt row load.
DFV_ML_INLINE void affine_rows12(const double* __restrict x, std::size_t n, std::size_t f,
                                 const double* __restrict wt, const double* __restrict init,
                                 std::size_t period, double* __restrict out) {
  std::size_t r = 0, q = 0;  // q = r % period
  for (; r + 4 <= n; r += 4) {
    const double* x0 = x + r * f;
    const double* x1 = x0 + f;
    const double* x2 = x1 + f;
    const double* x3 = x2 + f;
    const std::size_t q1 = next_slot(q, period), q2 = next_slot(q1, period),
                      q3 = next_slot(q2, period);
    Row12 a0, a1, a2, a3, w;
    load12(a0, init + q * 12);
    load12(a1, init + q1 * 12);
    load12(a2, init + q2 * 12);
    load12(a3, init + q3 * 12);
    for (std::size_t c = 0; c < f; ++c) {
      load12(w, wt + c * 12);
      axpy12(a0, x0[c], w);
      axpy12(a1, x1[c], w);
      axpy12(a2, x2[c], w);
      axpy12(a3, x3[c], w);
    }
    double* o = out + r * 12;
    store12(o, a0);
    store12(o + 12, a1);
    store12(o + 24, a2);
    store12(o + 36, a3);
    q = next_slot(q3, period);
  }
  for (; r < n; ++r, q = next_slot(q, period)) {
    const double* xr = x + r * f;
    Row12 a, w;
    load12(a, init + q * 12);
    for (std::size_t c = 0; c < f; ++c) {
      load12(w, wt + c * 12);
      axpy12(a, xr[c], w);
    }
    store12(out + r * 12, a);
  }
}

}  // namespace

DFV_ML_KERNEL
void affine_rows(const double* __restrict x, std::size_t n, std::size_t f, const double* __restrict wt,
                 std::size_t d, const double* __restrict init, std::size_t init_period,
                 double* __restrict out) {
  const std::size_t period = init_period > 1 ? init_period : 1;
  if (d == 12) return affine_rows12(x, n, f, wt, init, period, out);
  // c-outer / j-inner so the j loop vectorizes over the output row; each
  // out[r, j] still receives its products in ascending c on top of the
  // init seed, exactly like the scalar j-outer dot-product loop.
  for (std::size_t r = 0, q = 0; r < n; ++r, q = next_slot(q, period)) {
    const double* xr = x + r * f;
    const double* ir = init + q * d;
    double* o = out + r * d;
    for (std::size_t j = 0; j < d; ++j) o[j] = ir[j];
    for (std::size_t c = 0; c < f; ++c) {
      const double xc = xr[c];
      const double* wc = wt + c * d;
      for (std::size_t j = 0; j < d; ++j) o[j] += xc * wc[j];
    }
  }
}

DFV_ML_KERNEL
void matvec_rows(const double* __restrict x, std::size_t n, std::size_t f, const double* __restrict w,
                 double init, double* __restrict y) {
  // Four rows share each w[c] load; per-row accumulators keep ascending
  // column order (same recipe as Matrix::dot).
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const double* x0 = x + r * f;
    const double* x1 = x0 + f;
    const double* x2 = x1 + f;
    const double* x3 = x2 + f;
    double s0 = init, s1 = init, s2 = init, s3 = init;
    for (std::size_t c = 0; c < f; ++c) {
      const double wc = w[c];
      s0 += x0[c] * wc;
      s1 += x1[c] * wc;
      s2 += x2[c] * wc;
      s3 += x3[c] * wc;
    }
    y[r] = s0;
    y[r + 1] = s1;
    y[r + 2] = s2;
    y[r + 3] = s3;
  }
  for (; r < n; ++r) {
    const double* xr = x + r * f;
    double s = init;
    for (std::size_t c = 0; c < f; ++c) s += xr[c] * w[c];
    y[r] = s;
  }
}

DFV_ML_KERNEL
void matmul_nn(const double* __restrict a, std::size_t n, std::size_t k, const double* __restrict w,
               std::size_t d, double* __restrict out) {
  // A zero seed row makes this affine_rows' sequence exactly: 0 + p0 + p1 ...
  static constexpr double kZero12[12] = {};
  if (d == 12) return affine_rows12(a, n, k, w, kZero12, 1, out);
  for (std::size_t r = 0; r < n; ++r) {
    const double* ar = a + r * k;
    double* o = out + r * d;
    for (std::size_t j = 0; j < d; ++j) o[j] = 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double ak = ar[kk];
      const double* wk = w + kk * d;
      for (std::size_t j = 0; j < d; ++j) o[j] += ak * wk[j];
    }
  }
}

DFV_ML_KERNEL
void add_matmul_tn(const double* __restrict a, std::size_t n, std::size_t k, const double* __restrict b,
                   std::size_t d, double* __restrict out) {
  if (k == 12) {
    // The embed weight gradient (k = d_model, d = features per step):
    // four output columns j each keep their 12 rows out[0..11, j] in
    // registers across the whole reduction over r, so one load of a's
    // row feeds 4 x 12 products.
    std::size_t j = 0;
    for (; j + 4 <= d; j += 4) {
      Row12 c0, c1, c2, c3, ar;
      load_col12(c0, out + j, d);
      load_col12(c1, out + j + 1, d);
      load_col12(c2, out + j + 2, d);
      load_col12(c3, out + j + 3, d);
      for (std::size_t r = 0; r < n; ++r) {
        load12(ar, a + r * 12);
        const double* br = b + r * d + j;
        axpy12(c0, br[0], ar);
        axpy12(c1, br[1], ar);
        axpy12(c2, br[2], ar);
        axpy12(c3, br[3], ar);
      }
      store_col12(out + j, d, c0);
      store_col12(out + j + 1, d, c1);
      store_col12(out + j + 2, d, c2);
      store_col12(out + j + 3, d, c3);
    }
    for (; j < d; ++j) {
      Row12 c0, ar;
      load_col12(c0, out + j, d);
      for (std::size_t r = 0; r < n; ++r) {
        load12(ar, a + r * 12);
        axpy12(c0, b[r * d + j], ar);
      }
      store_col12(out + j, d, c0);
    }
    return;
  }
  if (d == 12) {
    // The head and query gradients: each 12-wide out row stays in
    // registers across the reduction over r.
    Row12 o, br;
    for (std::size_t i = 0; i < k; ++i) {
      load12(o, out + i * 12);
      for (std::size_t r = 0; r < n; ++r) {
        load12(br, b + r * 12);
        axpy12(o, a[r * k + i], br);
      }
      store12(out + i * 12, o);
    }
    return;
  }
  // r-outer keeps every out[i, j] accumulating in ascending r; the j
  // loop vectorizes and out rows stay cache-resident (k*d is small for
  // the attention shapes).
  for (std::size_t r = 0; r < n; ++r) {
    const double* ar = a + r * k;
    const double* br = b + r * d;
    for (std::size_t i = 0; i < k; ++i) {
      const double ai = ar[i];
      double* o = out + i * d;
      for (std::size_t j = 0; j < d; ++j) o[j] += ai * br[j];
    }
  }
}

DFV_ML_KERNEL
void add_tdot(const double* __restrict x, std::size_t n, std::size_t c, const double* __restrict y,
              double* __restrict out) {
  // Same 4-row register blocking as Matrix::tdot, accumulating into the
  // caller's buffer: each out[j] adds rows in ascending order.
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const double* x0 = x + r * c;
    const double* x1 = x0 + c;
    const double* x2 = x1 + c;
    const double* x3 = x2 + c;
    const double y0 = y[r], y1 = y[r + 1], y2 = y[r + 2], y3 = y[r + 3];
    for (std::size_t j = 0; j < c; ++j) {
      double acc = out[j];
      acc += x0[j] * y0;
      acc += x1[j] * y1;
      acc += x2[j] * y2;
      acc += x3[j] * y3;
      out[j] = acc;
    }
  }
  for (; r < n; ++r) {
    const double* xr = x + r * c;
    for (std::size_t j = 0; j < c; ++j) out[j] += xr[j] * y[r];
  }
}

DFV_ML_KERNEL
void add_colsum(const double* __restrict x, std::size_t n, std::size_t d, double* __restrict out) {
  for (std::size_t r = 0; r < n; ++r) {
    const double* xr = x + r * d;
    for (std::size_t j = 0; j < d; ++j) out[j] += xr[j];
  }
}

DFV_ML_KERNEL
void dot_rows_grouped(const double* __restrict x, std::size_t n, std::size_t d,
                      const double* __restrict y, std::size_t group,
                      double* __restrict out) {
  // Rows of one group share the y vector; four independent per-row
  // accumulator chains keep each dot in ascending j.
  for (std::size_t base = 0, gi = 0; base < n; base += group, ++gi) {
    const double* yr = y + gi * d;
    const std::size_t lim = std::min(group, n - base);
    std::size_t r = 0;
    for (; r + 4 <= lim; r += 4) {
      const double* x0 = x + (base + r) * d;
      const double* x1 = x0 + d;
      const double* x2 = x1 + d;
      const double* x3 = x2 + d;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        const double yj = yr[j];
        s0 += x0[j] * yj;
        s1 += x1[j] * yj;
        s2 += x2[j] * yj;
        s3 += x3[j] * yj;
      }
      out[base + r] = s0;
      out[base + r + 1] = s1;
      out[base + r + 2] = s2;
      out[base + r + 3] = s3;
    }
    for (; r < lim; ++r) {
      const double* xr = x + (base + r) * d;
      double s = 0.0;
      for (std::size_t j = 0; j < d; ++j) s += xr[j] * yr[j];
      out[base + r] = s;
    }
  }
}

DFV_ML_KERNEL
void attn_dembed(const double* __restrict a, const double* __restrict b,
                 const double* __restrict yg, const double* __restrict q, std::size_t n,
                 std::size_t d, std::size_t group, double* __restrict de) {
  for (std::size_t r = 0; r < n; ++r) {
    const double ar = a[r], br = b[r];
    const double* yr = yg + (r / group) * d;
    double* o = de + r * d;
    for (std::size_t j = 0; j < d; ++j) o[j] = ar * yr[j] + br * q[j];
  }
}

DFV_ML_KERNEL
void tanh_backward_colsums(const double* __restrict e, std::size_t n, std::size_t d,
                           std::size_t period, double* __restrict de, double* __restrict gb,
                           double* __restrict gp) {
  if (period < 1) period = 1;
  if (d == 12) {
    // The bias sums stay in registers across all rows; each row's dz is
    // computed once and feeds both sums and the in-place store.
    Row12 sb, sp, ev, dv;
    load12(sb, gb);
    for (std::size_t r = 0, q = 0; r < n; ++r, q = next_slot(q, period)) {
      load12(ev, e + r * 12);
      load12(dv, de + r * 12);
      dv.lo = dv.lo * (1.0 - ev.lo * ev.lo);
      dv.hi = dv.hi * (1.0 - ev.hi * ev.hi);
      store12(de + r * 12, dv);
      sb.lo += dv.lo;
      sb.hi += dv.hi;
      load12(sp, gp + q * 12);
      sp.lo += dv.lo;
      sp.hi += dv.hi;
      store12(gp + q * 12, sp);
    }
    store12(gb, sb);
    return;
  }
  for (std::size_t r = 0, q = 0; r < n; ++r, q = next_slot(q, period)) {
    const double* er = e + r * d;
    double* dr = de + r * d;
    double* pr = gp + q * d;
    for (std::size_t j = 0; j < d; ++j) {
      const double dz = dr[j] * (1.0 - er[j] * er[j]);
      dr[j] = dz;
      gb[j] += dz;
      pr[j] += dz;
    }
  }
}

DFV_ML_KERNEL
void standardize_groups(const double* src, std::size_t groups, std::size_t width,
                        std::size_t stride, const double* __restrict mean,
                        const double* __restrict sd, double* out) {
  // src and out carry no __restrict: StandardScaler::transform(Matrix&)
  // standardizes rows in place (out == src).
  for (std::size_t g = 0; g < groups; ++g, src += stride, mean += width, sd += width,
                   out += width)
    for (std::size_t c = 0; c < width; ++c) out[c] = (src[c] - mean[c]) / sd[c];
}

DFV_ML_KERNEL
void acc_add(double* __restrict dst, const double* __restrict src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

DFV_ML_KERNEL
void adam_step(double* __restrict w, const double* __restrict g, double* __restrict m1,
               double* __restrict m2, std::size_t n, double lr, double wd, double b1,
               double b2, double bc1, double bc2, double eps) {
  for (std::size_t i = 0; i < n; ++i) {
    const double gi = g[i] + wd * w[i];
    m1[i] = b1 * m1[i] + (1.0 - b1) * gi;
    m2[i] = b2 * m2[i] + (1.0 - b2) * gi * gi;
    w[i] -= lr * (m1[i] / bc1) / (std::sqrt(m2[i] / bc2) + eps);
  }
}

DFV_ML_KERNEL
void tanh_rows(const double* __restrict z, std::size_t n, double* __restrict out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = tanh_poly(z[i]);
  for (std::size_t i = 0; i < n; ++i)
    if (std::fabs(z[i]) >= 3.0) out[i] = tanh_tail(z[i]);
}

std::vector<double> cholesky_solve(Matrix& a, std::vector<double> b) {
  const std::size_t n = a.rows();
  DFV_CHECK(a.cols() == n && b.size() == n);
  // In-place Cholesky: A = L L^T (lower triangle of `a` becomes L).
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    DFV_CHECK_MSG(d > 0.0, "matrix not positive definite at pivot " << j);
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / ljj;
    }
  }
  // Forward substitution: L z = b.
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= a(i, k) * b[k];
    b[i] = s / a(i, i);
  }
  // Back substitution: L^T x = z.
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= a(k, i) * b[k];
    b[i] = s / a(i, i);
  }
  return b;
}

}  // namespace dfv::ml
