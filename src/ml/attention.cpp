#include "ml/attention.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/check.hpp"
#include "exec/exec.hpp"
#include "ml/compiled.hpp"
#include "ml/metrics.hpp"

namespace dfv::ml {

namespace {

/// Samples per gradient slab. Every minibatch is cut into fixed
/// kSlabRows-sample slabs; each slab's forward/backward runs as one task
/// and produces a private partial gradient, and the partials combine in
/// ascending slab order. The slab structure is part of the training
/// semantics — the batched and the per-sample reference path both use
/// it — so results are bit-identical for any thread count and between
/// the two paths.
constexpr std::size_t kSlabRows = 8;

/// Offsets of each parameter's gradient inside the flat per-slab arena.
struct GradLayout {
  std::size_t w_embed, b_embed, pos, query, w_head, b_head, w_out, b_out, total;
  GradLayout(std::size_t m, std::size_t d, std::size_t h, std::size_t f) {
    w_embed = 0;
    b_embed = w_embed + d * f;
    pos = b_embed + d;
    query = pos + m * d;
    w_head = query + d;
    b_head = w_head + h * d;
    w_out = b_head + h;
    b_out = w_out + h;
    total = b_out + 1;
  }
};

/// Little-endian codec of to_bytes / from_bytes.
void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(char((v >> (8 * i)) & 0xffu));
}

[[nodiscard]] std::uint64_t get_le(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v |= std::uint64_t(std::uint8_t(p[i])) << (8 * i);
  return v;
}

/// to_bytes' four u32 shape fields: m, feat_dim, d_model, d_hidden.
constexpr std::size_t kShapeBytes = 4 * 4;

}  // namespace

struct AttentionForecaster::Workspace {
  // Forward activations for up to kSlabRows samples (row-major slabs).
  std::vector<double> xs;       ///< S x (m*f) standardized windows
  std::vector<double> pre;      ///< (S*m) x d embed pre-activations
  std::vector<double> embed;    ///< (S*m) x d post-tanh
  std::vector<double> scores;   ///< S x m
  std::vector<double> alpha;    ///< S x m (softmax)
  std::vector<double> context;  ///< S x d
  std::vector<double> hidden;   ///< S x h (post-ReLU)
  std::vector<double> y_hat;    ///< S
  std::vector<double> tz;       ///< S standardized targets
  std::vector<double> dy;       ///< S loss gradients

  // Backward scratch + the slab's private flat gradient.
  std::vector<double> d_embed;   ///< (S*m) x d; reused in place for dz
  std::vector<double> d_context; ///< S x d
  std::vector<double> d_pre;     ///< S x h
  std::vector<double> d_scores;  ///< S x m (slab-wide d(alpha)/d(score) scratch)
  std::vector<double> grad;      ///< GradLayout::total

  // Shared per-minibatch state (owned by the caller, same for all slabs).
  const KernelTables* tables = nullptr;
  double inv_b = 1.0;  ///< 1 / minibatch size

  void init(std::size_t S, std::size_t m, std::size_t d, std::size_t h,
            std::size_t f, std::size_t gsize) {
    xs.resize(S * m * f);
    pre.resize(S * m * d);
    embed.resize(S * m * d);
    scores.resize(S * m);
    alpha.resize(S * m);
    context.resize(S * d);
    hidden.resize(S * h);
    y_hat.resize(S);
    tz.resize(S);
    dy.resize(S);
    d_embed.resize(S * m * d);
    d_context.resize(S * d);
    d_pre.resize(S * h);
    d_scores.resize(S * m);
    grad.resize(gsize);
  }
};

AttentionForecaster::AttentionForecaster(int m, int feat_dim, AttentionParams params)
    : m_(m), feat_dim_(feat_dim), params_(params) {
  DFV_CHECK(m >= 1 && feat_dim >= 1);
  DFV_CHECK(params_.d_model >= 1 && params_.d_hidden >= 1);
  const std::size_t d = std::size_t(params_.d_model);
  const std::size_t h = std::size_t(params_.d_hidden);
  const std::size_t f = std::size_t(feat_dim_);

  Rng rng(params_.seed);
  auto init = [&rng](std::vector<double>& w, std::size_t n, double scale) {
    w.resize(n);
    for (double& v : w) v = scale * (2.0 * rng.uniform() - 1.0);
  };
  init(w_embed_, d * f, 1.0 / std::sqrt(double(f)));
  init(b_embed_, d, 0.01);
  init(pos_embed_, std::size_t(m) * d, 0.3);
  init(query_, d, 1.0 / std::sqrt(double(d)));
  init(w_head_, h * d, 1.0 / std::sqrt(double(d)));
  init(b_head_, h, 0.01);
  init(w_out_, h, 1.0 / std::sqrt(double(h)));
  b_out_ = 0.0;
}

// dfv-lint: allow(contract): private packing of the model's own weights; no caller input to validate
void AttentionForecaster::pack_tables(KernelTables& t) const {
  const std::size_t d = std::size_t(params_.d_model);
  const std::size_t h = std::size_t(params_.d_hidden);
  const std::size_t f = std::size_t(feat_dim_);
  const std::size_t m = std::size_t(m_);
  t.wt_embed.resize(f * d);
  t.wt_head.resize(d * h);
  t.init_embed.resize(m * d);
  for (std::size_t j = 0; j < d; ++j)
    for (std::size_t c = 0; c < f; ++c) t.wt_embed[c * d + j] = w_embed_[j * f + c];
  for (std::size_t k = 0; k < h; ++k)
    for (std::size_t j = 0; j < d; ++j) t.wt_head[j * h + k] = w_head_[k * d + j];
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < d; ++j)
      t.init_embed[i * d + j] = b_embed_[j] + pos_embed_[i * d + j];
}

void AttentionForecaster::forward_slab(Workspace& ws, std::size_t rows) const {
  const std::size_t d = std::size_t(params_.d_model);
  const std::size_t h = std::size_t(params_.d_hidden);
  const std::size_t f = std::size_t(feat_dim_);
  const std::size_t m = std::size_t(m_);
  const double inv_sqrt_d = 1.0 / std::sqrt(double(d));
  const std::size_t steps = rows * m;
  DFV_CHECK(rows >= 1 && ws.xs.size() >= steps * f);

  // e_(b,i) = tanh(W_e x_(b,i) + b_e + p_i): all the slab's steps go
  // through the blocked kernels as one (rows*m) x f operand.
  affine_rows(ws.xs.data(), steps, f, ws.tables->wt_embed.data(), d,
              ws.tables->init_embed.data(), m, ws.pre.data());
  tanh_rows(ws.pre.data(), steps * d, ws.embed.data());

  // scores = (q . e_i) / sqrt(d), then per-sample softmax + context.
  matvec_rows(ws.embed.data(), steps, d, query_.data(), 0.0, ws.scores.data());
  for (std::size_t i = 0; i < steps; ++i) ws.scores[i] *= inv_sqrt_d;
  for (std::size_t b = 0; b < rows; ++b) {
    const double* sc = ws.scores.data() + b * m;
    double* al = ws.alpha.data() + b * m;
    double max_score = -1e30;
    for (std::size_t i = 0; i < m; ++i) max_score = std::max(max_score, sc[i]);
    double z = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      al[i] = std::exp(sc[i] - max_score);
      z += al[i];
    }
    for (std::size_t i = 0; i < m; ++i) al[i] /= z;
    // ctx = alpha (1 x m) * embed_b (m x d): zero-seeded, i ascending —
    // exactly the scalar accumulation loop.
    matmul_nn(al, 1, m, ws.embed.data() + b * m * d, d, ws.context.data() + b * d);
  }

  // FC head: hidden = relu(W_h c + b_h), y = b_o + w_o . hidden.
  affine_rows(ws.context.data(), rows, d, ws.tables->wt_head.data(), h, b_head_.data(),
              1, ws.hidden.data());
  for (std::size_t i = 0; i < rows * h; ++i)
    ws.hidden[i] = ws.hidden[i] > 0.0 ? ws.hidden[i] : 0.0;
  matvec_rows(ws.hidden.data(), rows, h, w_out_.data(), b_out_, ws.y_hat.data());
}

void AttentionForecaster::backward_slab(Workspace& ws, std::size_t rows) const {
  const std::size_t d = std::size_t(params_.d_model);
  const std::size_t h = std::size_t(params_.d_hidden);
  const std::size_t f = std::size_t(feat_dim_);
  const std::size_t m = std::size_t(m_);
  const double inv_sqrt_d = 1.0 / std::sqrt(double(d));
  const std::size_t steps = rows * m;
  DFV_CHECK(rows >= 1 && ws.xs.size() >= steps * f);
  const GradLayout L(m, d, h, f);
  double* g = ws.grad.data();

  // Head backward. Each gradient element accumulates samples in
  // ascending order, matching the reference loop element for element.
  for (std::size_t b = 0; b < rows; ++b) g[L.b_out] += ws.dy[b];
  add_tdot(ws.hidden.data(), rows, h, ws.dy.data(), g + L.w_out);
  for (std::size_t b = 0; b < rows; ++b) {
    const double dyb = ws.dy[b];
    const double* hb = ws.hidden.data() + b * h;
    double* dp = ws.d_pre.data() + b * h;
    for (std::size_t k = 0; k < h; ++k)
      dp[k] = hb[k] > 0.0 ? dyb * w_out_[k] : 0.0;
  }
  add_colsum(ws.d_pre.data(), rows, h, g + L.b_head);
  add_matmul_tn(ws.d_pre.data(), rows, h, ws.context.data(), d, g + L.w_head);
  matmul_nn(ws.d_pre.data(), rows, h, w_head_.data(), d, ws.d_context.data());

  // Attention backward (softmax + scores). Staged through kernels:
  // da[b,i] = ctxg_b . e_(b,i) (j ascending), the m-element softmax
  // Jacobian per sample stays scalar, then the embed gradient and the
  // query gradient run as one slab-wide pass each.
  double* ds = ws.d_scores.data();
  dot_rows_grouped(ws.embed.data(), steps, d, ws.d_context.data(), m, ds);
  for (std::size_t b = 0; b < rows; ++b) {
    const double* al = ws.alpha.data() + b * m;
    double* dab = ds + b * m;
    double alpha_dot = 0.0;
    for (std::size_t i = 0; i < m; ++i) alpha_dot += al[i] * dab[i];
    // dsc = al * (da - alpha_dot), then the 1/sqrt(d) score scale — the
    // same two multiplications, in the same order, as the scalar path.
    for (std::size_t i = 0; i < m; ++i) dab[i] = al[i] * (dab[i] - alpha_dot) * inv_sqrt_d;
  }
  // de = alpha * ctxg + ds * q (the scalar path's write-then-add pair),
  // and g_query accumulates ds-weighted embeddings in ascending (b, i).
  attn_dembed(ws.alpha.data(), ds, ws.d_context.data(), query_.data(), steps, d, m,
              ws.d_embed.data());
  add_matmul_tn(ds, steps, 1, ws.embed.data(), d, g + L.query);

  // Embed backward: dz = d_embed * (1 - e^2) in place together with the
  // bias and positional column sums in one pass, then the weight
  // gradient over all the slab's steps.
  tanh_backward_colsums(ws.embed.data(), steps, d, m, ws.d_embed.data(), g + L.b_embed,
                        g + L.pos);
  add_matmul_tn(ws.d_embed.data(), steps, d, ws.xs.data(), f, g + L.w_embed);
}

void AttentionForecaster::slab_reference(Workspace& ws, std::size_t rows) const {
  // The retained per-sample scalar path: identical math to
  // forward_slab/backward_slab (same activation functions, same
  // per-element accumulation orders, same slab-private gradient), just
  // written as the textbook loops. Tests pin bit-equality of the two.
  const std::size_t d = std::size_t(params_.d_model);
  const std::size_t h = std::size_t(params_.d_hidden);
  const std::size_t f = std::size_t(feat_dim_);
  const std::size_t m = std::size_t(m_);
  const double inv_sqrt_d = 1.0 / std::sqrt(double(d));
  const GradLayout L(m, d, h, f);
  double* g = ws.grad.data();
  DFV_CHECK(rows >= 1 && ws.xs.size() >= rows * m * f);

  for (std::size_t b = 0; b < rows; ++b) {
    const double* xw = ws.xs.data() + b * m * f;
    double* embed = ws.embed.data() + b * m * d;
    double* alpha = ws.alpha.data() + b * m;
    double* scores = ws.scores.data() + b * m;
    double* context = ws.context.data() + b * d;
    double* hidden = ws.hidden.data() + b * h;

    // ---- forward ----
    for (std::size_t i = 0; i < m; ++i) {
      const double* xi = xw + i * f;
      for (std::size_t j = 0; j < d; ++j) {
        double s = b_embed_[j] + pos_embed_[i * d + j];
        const double* wrow = w_embed_.data() + j * f;
        for (std::size_t c = 0; c < f; ++c) s += wrow[c] * xi[c];
        embed[i * d + j] = fast_tanh(s);
      }
    }
    double max_score = -1e30;
    for (std::size_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < d; ++j) s += query_[j] * embed[i * d + j];
      scores[i] = s * inv_sqrt_d;
      max_score = std::max(max_score, scores[i]);
    }
    double z = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      alpha[i] = std::exp(scores[i] - max_score);
      z += alpha[i];
    }
    for (std::size_t i = 0; i < m; ++i) alpha[i] /= z;
    for (std::size_t j = 0; j < d; ++j) context[j] = 0.0;
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < d; ++j) context[j] += alpha[i] * embed[i * d + j];
    double y = b_out_;
    for (std::size_t k = 0; k < h; ++k) {
      double s = b_head_[k];
      const double* wrow = w_head_.data() + k * d;
      for (std::size_t j = 0; j < d; ++j) s += wrow[j] * context[j];
      hidden[k] = s > 0.0 ? s : 0.0;
      y += w_out_[k] * hidden[k];
    }
    ws.y_hat[b] = y;
    const double dy = 2.0 * (y - ws.tz[b]) * ws.inv_b;
    ws.dy[b] = dy;

    // ---- backward ----
    g[L.b_out] += dy;
    double* d_context = ws.d_context.data();
    std::fill(d_context, d_context + d, 0.0);
    for (std::size_t k = 0; k < h; ++k) {
      g[L.w_out + k] += dy * hidden[k];
      const double dh = dy * w_out_[k];
      const double dpre = hidden[k] > 0.0 ? dh : 0.0;
      g[L.b_head + k] += dpre;
      double* gw = g + L.w_head + k * d;
      const double* wrow = w_head_.data() + k * d;
      for (std::size_t j = 0; j < d; ++j) {
        gw[j] += dpre * context[j];
        d_context[j] += dpre * wrow[j];
      }
    }
    double* d_embed = ws.d_embed.data();
    double* d_scores = ws.d_scores.data();
    double alpha_dot = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      double da = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        da += d_context[j] * embed[i * d + j];
        d_embed[i * d + j] = alpha[i] * d_context[j];
      }
      d_scores[i] = da;  // temporarily d(alpha_i)
      alpha_dot += alpha[i] * da;
    }
    for (std::size_t i = 0; i < m; ++i)
      d_scores[i] = alpha[i] * (d_scores[i] - alpha_dot);
    for (std::size_t i = 0; i < m; ++i) {
      const double ds = d_scores[i] * inv_sqrt_d;
      for (std::size_t j = 0; j < d; ++j) {
        g[L.query + j] += ds * embed[i * d + j];
        d_embed[i * d + j] += ds * query_[j];
      }
    }
    // embed = tanh(W_e x_i + b_e + p_i); note: no dz == 0 skip — the
    // blocked kernels accumulate every term, and skipping exact zeros
    // would flip ±0.0 sums in the last bit.
    for (std::size_t i = 0; i < m; ++i) {
      const double* xi = xw + i * f;
      for (std::size_t j = 0; j < d; ++j) {
        const double e = embed[i * d + j];
        const double dz = d_embed[i * d + j] * (1.0 - e * e);
        g[L.b_embed + j] += dz;
        g[L.pos + i * d + j] += dz;
        double* gw = g + L.w_embed + j * f;
        for (std::size_t c = 0; c < f; ++c) gw[c] += dz * xi[c];
      }
    }
  }
}

void AttentionForecaster::fit_impl(const RowBatch& x, std::span<const double> y,
                                   bool batched) {
  const std::size_t n = x.size();
  DFV_CHECK(n == y.size());
  DFV_CHECK(x.row_len() == std::size_t(m_) * std::size_t(feat_dim_));
  DFV_CHECK(n >= 2);

  scaler_.fit(x);
  scaler_.fit_target(y);

  const std::size_t d = std::size_t(params_.d_model);
  const std::size_t h = std::size_t(params_.d_hidden);
  const std::size_t f = std::size_t(feat_dim_);
  const std::size_t m = std::size_t(m_);
  const std::size_t mf = m * f;
  const GradLayout L(m, d, h, f);

  // Windows stay in the caller's views: each slab standardizes its own
  // rows into its arena every epoch, so a fit holds no copy of its
  // training set.
  std::vector<double> tz(n);
  for (std::size_t i = 0; i < n; ++i) tz[i] = scaler_.transform_target(y[i]);

  // Per-slab arenas (slab s of every minibatch reuses arena s).
  const std::size_t batch = std::size_t(params_.batch);
  const std::size_t max_slabs = (batch + kSlabRows - 1) / kSlabRows;
  std::vector<Workspace> slabs(max_slabs);
  for (Workspace& ws : slabs) ws.init(kSlabRows, m, d, h, f, L.total);

  // Kernel-side weight tables, refreshed after every Adam step.
  KernelTables tables;

  // Adam over the flat gradient; b_out is excluded from weight decay.
  struct Region {
    double* w;
    std::size_t off, size;
    bool decay;
  };
  const Region regions[] = {
      {w_embed_.data(), L.w_embed, d * f, true},
      {b_embed_.data(), L.b_embed, d, true},
      {pos_embed_.data(), L.pos, m * d, true},
      {query_.data(), L.query, d, true},
      {w_head_.data(), L.w_head, h * d, true},
      {b_head_.data(), L.b_head, h, true},
      {w_out_.data(), L.w_out, h, true},
      {&b_out_, L.b_out, 1, false},
  };
  std::vector<double> grad(L.total), am1(L.total, 0.0), am2(L.total, 0.0);
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
  long adam_t = 0;

  Rng rng(hash_combine(params_.seed, 0xf17));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t(0));

  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t end = std::min(n, start + batch);
      const std::size_t bsz = end - start;
      const double inv_b = 1.0 / double(bsz);
      const std::size_t nslabs = (bsz + kSlabRows - 1) / kSlabRows;
      pack_tables(tables);

      // One task per slab; each writes only its own arena.
      exec::parallel_for(0, nslabs, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          Workspace& ws = slabs[s];
          const std::size_t sb = start + s * kSlabRows;
          const std::size_t rows = std::min(kSlabRows, end - sb);
          ws.tables = &tables;
          ws.inv_b = inv_b;
          for (std::size_t b = 0; b < rows; ++b) {
            const std::size_t row = order[sb + b];
            scaler_.transform_row(x, row, ws.xs.data() + b * mf);
            ws.tz[b] = tz[row];
          }
          std::fill(ws.grad.begin(), ws.grad.end(), 0.0);
          if (batched) {
            forward_slab(ws, rows);
            for (std::size_t b = 0; b < rows; ++b)
              ws.dy[b] = 2.0 * (ws.y_hat[b] - ws.tz[b]) * inv_b;
            backward_slab(ws, rows);
          } else {
            slab_reference(ws, rows);
          }
        }
      });

      // Combine slab partials in ascending slab order.
      std::fill(grad.begin(), grad.end(), 0.0);
      for (std::size_t s = 0; s < nslabs; ++s)
        acc_add(grad.data(), slabs[s].grad.data(), L.total);

      // ---- Adam update ----
      ++adam_t;
      const double bc1 = 1.0 - std::pow(kBeta1, double(adam_t));
      const double bc2 = 1.0 - std::pow(kBeta2, double(adam_t));
      for (const Region& reg : regions) {
        const double wd = reg.decay ? params_.weight_decay : 0.0;
        adam_step(reg.w, grad.data() + reg.off, am1.data() + reg.off,
                  am2.data() + reg.off, reg.size, params_.lr, wd, kBeta1, kBeta2,
                  bc1, bc2, kEps);
      }
    }
  }
}

void AttentionForecaster::fit(const Matrix& x, std::span<const double> y) {
  DFV_CHECK(x.rows() == y.size());
  const auto ptrs = row_pointers(x);
  fit_impl(RowBatch{ptrs, 1, x.cols(), x.cols()}, y, /*batched=*/true);
}

void AttentionForecaster::fit(const RowBatch& x, std::span<const double> y) {
  fit_impl(x, y, /*batched=*/true);
}

void AttentionForecaster::fit_reference(const Matrix& x, std::span<const double> y) {
  DFV_CHECK(x.rows() == y.size());
  const auto ptrs = row_pointers(x);
  fit_impl(RowBatch{ptrs, 1, x.cols(), x.cols()}, y, /*batched=*/false);
}

std::vector<double> AttentionForecaster::predict(const RowBatch& x) const {
  return compile().predict_many(x);
}

std::vector<double> AttentionForecaster::predict_reference(const RowBatch& x) const {
  const std::size_t d = std::size_t(params_.d_model);
  const std::size_t h = std::size_t(params_.d_hidden);
  const std::size_t f = std::size_t(feat_dim_);
  const std::size_t m = std::size_t(m_);
  const std::size_t mf = m * f;
  DFV_CHECK(x.row_len() == mf);
  const std::size_t n = x.size();
  const GradLayout L(m, d, h, f);
  KernelTables tables;
  pack_tables(tables);
  std::vector<double> out(n);
  // Rows are independent through the whole forward pass (the 4-row
  // blocking keeps per-row accumulators), so any chunking gives the
  // same bits; chunks only amortize the arena.
  exec::parallel_for(0, n, 4 * kSlabRows, [&](std::size_t lo, std::size_t hi) {
    Workspace ws;
    ws.init(kSlabRows, m, d, h, f, L.total);
    ws.tables = &tables;
    for (std::size_t s = lo; s < hi; s += kSlabRows) {
      const std::size_t rows = std::min(kSlabRows, hi - s);
      for (std::size_t b = 0; b < rows; ++b)
        scaler_.transform_row(x, s + b, ws.xs.data() + b * mf);
      forward_slab(ws, rows);
      for (std::size_t b = 0; b < rows; ++b)
        out[s + b] = scaler_.inverse_target(ws.y_hat[b]);
    }
  });
  return out;
}

std::vector<double> AttentionForecaster::predict(const Matrix& x) const {
  DFV_CHECK(x.cols() == std::size_t(m_) * std::size_t(feat_dim_));
  const auto ptrs = row_pointers(x);
  return predict(RowBatch{ptrs, 1, x.cols(), x.cols()});
}

std::string AttentionForecaster::to_bytes() const {
  const std::size_t mf = std::size_t(m_) * std::size_t(feat_dim_);
  DFV_CHECK_MSG(scaler_.means().size() == mf && scaler_.stddevs().size() == mf,
                "to_bytes needs a fitted model");
  std::string out;
  for (const int v : {m_, feat_dim_, params_.d_model, params_.d_hidden})
    put_le(out, std::uint32_t(v), 4);
  const auto put = [&out](double v) { put_le(out, std::bit_cast<std::uint64_t>(v), 8); };
  for (const std::vector<double>* w : weight_arrays(*this))
    for (const double v : *w) put(v);
  put(b_out_);
  for (const double v : scaler_.means()) put(v);
  for (const double v : scaler_.stddevs()) put(v);
  put(scaler_.target_mean());
  put(scaler_.target_stddev());
  return out;
}

AttentionForecaster AttentionForecaster::from_bytes(int m, int feat_dim,
                                                    AttentionParams params,
                                                    std::string_view bytes) {
  AttentionForecaster model(m, feat_dim, params);
  const std::size_t mf = std::size_t(m) * std::size_t(feat_dim);
  std::size_t doubles = 1 + 2 * mf + 2;  // b_out, the scaler's statistics
  for (const std::vector<double>* w : weight_arrays(model)) doubles += w->size();
  DFV_CHECK_MSG(bytes.size() == kShapeBytes + 8 * doubles,
                "model bytes: " << bytes.size() << " bytes, the shape needs "
                                << kShapeBytes + 8 * doubles);
  const char* p = bytes.data();
  for (const int v : {m, feat_dim, params.d_model, params.d_hidden}) {
    DFV_CHECK_MSG(get_le(p, 4) == std::uint64_t(v),
                  "model bytes hold another shape than m " << m << ", feat_dim " << feat_dim
                                                           << ", d_model " << params.d_model
                                                           << ", d_hidden " << params.d_hidden);
    p += 4;
  }
  const auto next = [&p] {
    const double v = std::bit_cast<double>(get_le(p, 8));
    p += 8;
    return v;
  };
  for (std::vector<double>* w : weight_arrays(model))
    for (double& v : *w) v = next();
  model.b_out_ = next();
  std::vector<double> means(mf), stddevs(mf);
  for (double& v : means) v = next();
  for (double& v : stddevs) v = next();
  const double y_mean = next();
  const double y_std = next();
  model.scaler_.restore(std::move(means), std::move(stddevs), y_mean, y_std);
  return model;
}

double AttentionForecaster::predict_one(std::span<const double> window) const {
  DFV_CHECK(window.size() == std::size_t(m_) * std::size_t(feat_dim_));
  const double* base = window.data();
  return predict(RowBatch{{&base, 1}, 1, window.size(), window.size()})[0];
}

std::vector<double> AttentionForecaster::attention_weights(
    std::span<const double> window) const {
  DFV_CHECK(window.size() == std::size_t(m_) * std::size_t(feat_dim_));
  const std::size_t d = std::size_t(params_.d_model);
  const std::size_t h = std::size_t(params_.d_hidden);
  const std::size_t f = std::size_t(feat_dim_);
  const std::size_t m = std::size_t(m_);
  const GradLayout L(m, d, h, f);
  KernelTables tables;
  pack_tables(tables);
  Workspace ws;
  ws.init(1, m, d, h, f, L.total);
  ws.tables = &tables;
  scaler_.transform_row(window, ws.xs.data());
  forward_slab(ws, 1);
  return {ws.alpha.begin(), ws.alpha.begin() + long(m)};
}

std::vector<double> AttentionForecaster::permutation_importance(const Matrix& x,
                                                                std::span<const double> y,
                                                                Rng& rng,
                                                                int repeats) const {
  DFV_CHECK(x.rows() == y.size());
  const std::size_t F = std::size_t(feat_dim_);
  const std::vector<double> base_pred = predict(x);
  const double base_err = mape(y, base_pred);

  // One working copy for the whole scan: shuffle feature f's columns in
  // place, predict, then restore them from the original (the old path
  // copied the full design matrix per feature per repeat).
  Matrix xp = x;
  const auto ptrs = row_pointers(xp);
  const RowBatch rb{ptrs, 1, xp.cols(), xp.cols()};
  std::vector<double> importance(F, 0.0);
  std::vector<std::size_t> perm(x.rows());
  for (std::size_t f = 0; f < F; ++f) {
    double acc = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
      for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      rng.shuffle(perm);
      // Shuffle feature f at every time position simultaneously.
      for (std::size_t r = 0; r < x.rows(); ++r)
        for (int t = 0; t < m_; ++t) {
          const std::size_t col = std::size_t(t) * F + f;
          xp(r, col) = x(perm[r], col);
        }
      acc += std::max(0.0, mape(y, predict(rb)) - base_err);
      for (std::size_t r = 0; r < x.rows(); ++r)
        for (int t = 0; t < m_; ++t) {
          const std::size_t col = std::size_t(t) * F + f;
          xp(r, col) = x(r, col);
        }
    }
    importance[f] = acc / double(repeats);
  }
  const double total = std::accumulate(importance.begin(), importance.end(), 0.0);
  if (total > 0.0)
    for (double& v : importance) v /= total;
  return importance;
}

}  // namespace dfv::ml
