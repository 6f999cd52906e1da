#include "ml/compiled.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "exec/exec.hpp"
#include "ml/attention.hpp"
#include "ml/gbr.hpp"

namespace dfv::ml {

namespace {

// At -O3, GCC's -fsplit-paths duplicates the join after the child-select
// ternary, which replaces the cmov with data-dependent branches and makes
// interleaved tree traversal ~3x slower (bin codes are effectively random,
// so the branches mispredict constantly). Pin the kernel to branchless
// codegen; this is pure instruction selection, never a numeric change.
#if defined(__GNUC__) && !defined(__clang__)
#define DFV_ML_TRAVERSAL __attribute__((optimize("no-split-paths")))
#else
#define DFV_ML_TRAVERSAL
#endif

/// Recursively emit the subtree rooted at `src` in preorder and return
/// its flattened index. The left child always lands immediately after
/// its parent (skip 1); the right-child skip is the left subtree size
/// plus one. Leaf payloads fold the learning rate in: payload =
/// lr * value is exactly the multiply the reference update performs per
/// query, so summing payloads reproduces the reference bits.
std::uint32_t flatten_subtree(std::span<const RegressionTree::Node> tree,
                              std::int32_t src, double lr,
                              std::vector<CompiledGbr::Node>& out) {
  const auto idx = DFV_NARROW(std::uint32_t, out.size());
  const RegressionTree::Node sn = tree[std::size_t(src)];
  out.push_back(CompiledGbr::Node{});
  if (sn.feature < 0) {  // leaf (self-loops in the source table)
    out[idx].payload = lr * sn.value;
    return idx;
  }
  (void)flatten_subtree(tree, sn.left, lr, out);  // lands at idx + 1
  const std::uint32_t right = flatten_subtree(tree, sn.right, lr, out);
  out[idx].payload = sn.threshold;
  out[idx].feature = sn.feature;
  out[idx].bin = sn.bin;
  out[idx].left = 1;
  out[idx].right = right - idx;
  return idx;
}

}  // namespace

CompiledGbr::CompiledGbr(const GradientBoostedRegressor& model) : f0_(model.f0_) {
  DFV_CHECK(model.params_.learning_rate > 0.0);
  const double lr = model.params_.learning_rate;
  std::size_t total = 0;
  for (const RegressionTree& t : model.trees_) total += t.node_count();
  nodes_.reserve(total);
  roots_.reserve(model.trees_.size());
  depths_.reserve(model.trees_.size());
  for (const RegressionTree& t : model.trees_) {
    DFV_CHECK(t.node_count() > 0);
    roots_.push_back(flatten_subtree(t.nodes(), 0, lr, nodes_));
    depths_.push_back(t.fitted_depth());
    for (const RegressionTree::Node& n : t.nodes())
      max_feature_ = std::max(max_feature_, n.feature);
  }
}

DFV_ML_TRAVERSAL
double CompiledGbr::predict_one(std::span<const double> x) const {
  DFV_CHECK(std::size_t(max_feature_ + 1) <= x.size());
  double s = f0_;
  const Node* base = nodes_.data();
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const Node* nd = base + roots_[t];
    const std::int32_t depth = depths_[t];
    for (std::int32_t d = 0; d < depth; ++d)
      nd += x[std::size_t(nd->feature)] <= nd->payload ? nd->left : nd->right;
    s += nd->payload;
  }
  return s;
}

std::vector<double> CompiledGbr::predict(const Matrix& x) const {
  DFV_CHECK(x.rows() == 0 || std::size_t(max_feature_ + 1) <= x.cols());
  std::vector<double> out(x.rows());
  exec::parallel_for(0, x.rows(), 128, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) out[r] = predict_one(x.row(r));
  });
  return out;
}

DFV_ML_TRAVERSAL
double CompiledGbr::predict_binned(const BinnedDataset& data, std::size_t r) const {
  DFV_CHECK(r < data.rows() && std::size_t(max_feature_ + 1) <= data.features());
  const std::uint8_t* codes = data.features() > 0 ? data.feature_codes(0).data() : nullptr;
  const std::size_t R = data.rows();
  double s = f0_;
  const Node* base = nodes_.data();
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const Node* nd = base + roots_[t];
    const std::int32_t depth = depths_[t];
    for (std::int32_t d = 0; d < depth; ++d)
      nd += codes[std::size_t(nd->feature) * R + r] <= nd->bin ? nd->left : nd->right;
    s += nd->payload;
  }
  return s;
}

/// Batched kernel for one chunk: rows advance through each tree in
/// interleaved blocks of 16 so the per-row dependent-load chains overlap
/// (~1.6x over per-row traversal on the serve shapes). Per output
/// element the accumulation is f0, then tree 0, 1, ... — exactly the
/// reference predict_rows order, so the bits match row for row.
DFV_ML_TRAVERSAL
void CompiledGbr::predict_span(const std::uint8_t* codes, std::size_t data_rows,
                               std::span<const std::size_t> rows, std::size_t lo,
                               std::size_t hi, double* out) const {
  for (std::size_t j = lo; j < hi; ++j) out[j] = f0_;
  constexpr std::size_t kBlock = 16;
  const Node* nodes = nodes_.data();
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const Node* base = nodes + roots_[t];
    const std::int32_t depth = depths_[t];
    std::uint32_t cur[kBlock];
    for (std::size_t j0 = lo; j0 < hi; j0 += kBlock) {
      const std::size_t cnt = std::min(kBlock, hi - j0);
      for (std::size_t i = 0; i < cnt; ++i) cur[i] = 0;
      for (std::int32_t d = 0; d < depth; ++d)
        for (std::size_t i = 0; i < cnt; ++i) {
          const Node& nd = base[cur[i]];
          const std::uint8_t code =
              codes[std::size_t(nd.feature) * data_rows + rows[j0 + i]];
          cur[i] += code <= nd.bin ? nd.left : nd.right;
        }
      for (std::size_t i = 0; i < cnt; ++i) out[j0 + i] += base[cur[i]].payload;
    }
  }
}

std::vector<double> CompiledGbr::predict_many(const BinnedDataset& data,
                                              std::span<const std::size_t> rows) const {
  DFV_CHECK(rows.empty() || std::size_t(max_feature_ + 1) <= data.features());
  for (std::size_t r : rows) DFV_CHECK(r < data.rows());
  std::vector<double> out(rows.size());
  if (rows.empty()) return out;
  const std::uint8_t* codes = data.features() > 0 ? data.feature_codes(0).data() : nullptr;
  exec::parallel_for(0, rows.size(), 256, [&](std::size_t lo, std::size_t hi) {
    predict_span(codes, data.rows(), rows, lo, hi, out.data());
  });
  return out;
}

CompiledGbr GradientBoostedRegressor::compile() const { return CompiledGbr(*this); }

namespace {

/// Samples per prediction slab; mirrors the training-side constant (the
/// slab structure never changes bits on the forward pass — rows are
/// independent — but keeping the same shape keeps the kernels on the
/// operand sizes they were tuned for).
constexpr std::size_t kSlabRows = 8;

}  // namespace

CompiledAttention::CompiledAttention(const AttentionForecaster& model)
    : m_(model.m_),
      feat_dim_(model.feat_dim_),
      d_(std::size_t(model.params_.d_model)),
      h_(std::size_t(model.params_.d_hidden)),
      scaler_(model.scaler_),
      query_(model.query_),
      b_head_(model.b_head_),
      w_out_(model.w_out_),
      b_out_(model.b_out_) {
  const std::size_t m = std::size_t(m_);
  const std::size_t f = std::size_t(feat_dim_);
  // The scaler statistics only exist after fit; compiling an unfitted
  // forecaster is a logic error (the reference path would fault too).
  DFV_CHECK(scaler_.means().size() == m * f && scaler_.stddevs().size() == m * f);
  // Pack once what the reference predict packs per call, through the
  // same routine, so the kernels see identical operands.
  AttentionForecaster::KernelTables tables;
  model.pack_tables(tables);
  wt_embed_ = std::move(tables.wt_embed);
  wt_head_ = std::move(tables.wt_head);
  init_embed_ = std::move(tables.init_embed);
}

// dfv-lint: allow(contract): private arena sizing; the predict entry points validate shapes
void CompiledAttention::ensure(Scratch& ws, std::size_t slab) const {
  const std::size_t m = std::size_t(m_);
  const std::size_t f = std::size_t(feat_dim_);
  const std::size_t steps = slab * m;
  // Each buffer grows on its own: one Scratch may serve models of
  // different history lengths and widths, and must fit the largest of each.
  const auto fit = [](std::vector<double>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
  };
  fit(ws.xs, steps * f);
  fit(ws.pre, steps * d_);
  fit(ws.embed, steps * d_);
  fit(ws.scores, steps);
  fit(ws.alpha, steps);
  fit(ws.context, slab * d_);
  fit(ws.hidden, slab * h_);
  fit(ws.y_hat, slab);
}

/// Forward pass over `rows` standardized windows sitting in ws.xs: the
/// exact kernel sequence of AttentionForecaster::forward_slab on the
/// pre-packed operands, hence bit-identical activations throughout.
void CompiledAttention::forward(Scratch& ws, std::size_t rows) const {
  const std::size_t m = std::size_t(m_);
  const std::size_t f = std::size_t(feat_dim_);
  const double inv_sqrt_d = 1.0 / std::sqrt(double(d_));
  const std::size_t steps = rows * m;
  DFV_CHECK(rows >= 1 && ws.xs.size() >= steps * f);

  // e_(b,i) = tanh(W_e x_(b,i) + b_e + p_i), all steps in one operand.
  affine_rows(ws.xs.data(), steps, f, wt_embed_.data(), d_, init_embed_.data(), m,
              ws.pre.data());
  tanh_rows(ws.pre.data(), steps * d_, ws.embed.data());

  // scores = (q . e_i) / sqrt(d), then per-sample softmax + context.
  matvec_rows(ws.embed.data(), steps, d_, query_.data(), 0.0, ws.scores.data());
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
    matmul_nn(al, 1, m, ws.embed.data() + b * m * d_, d_, ws.context.data() + b * d_);
  }

  // FC head: hidden = relu(W_h c + b_h), y = b_o + w_o . hidden.
  affine_rows(ws.context.data(), rows, d_, wt_head_.data(), h_, b_head_.data(), 1,
              ws.hidden.data());
  for (std::size_t i = 0; i < rows * h_; ++i)
    ws.hidden[i] = ws.hidden[i] > 0.0 ? ws.hidden[i] : 0.0;
  matvec_rows(ws.hidden.data(), rows, h_, w_out_.data(), b_out_, ws.y_hat.data());
}

// dfv-lint: allow(contract): delegates to the Scratch overload, which validates the window
double CompiledAttention::predict_one(std::span<const double> window) const {
  Scratch ws;
  return predict_one(window, ws);
}

double CompiledAttention::predict_one(std::span<const double> window,
                                      Scratch& ws) const {
  const std::size_t mf = std::size_t(m_) * std::size_t(feat_dim_);
  DFV_CHECK(window.size() == mf);
  ensure(ws, 1);
  scaler_.transform_row(window, ws.xs.data());
  forward(ws, 1);
  return scaler_.inverse_target(ws.y_hat[0]);
}

std::vector<double> CompiledAttention::predict_many(const RowBatch& x) const {
  const std::size_t m = std::size_t(m_);
  const std::size_t f = std::size_t(feat_dim_);
  const std::size_t mf = m * f;
  DFV_CHECK(x.row_len() == mf);
  const std::size_t n = x.size();
  std::vector<double> out(n);
  // Rows are independent through the whole forward pass, so any chunking
  // gives the same bits; chunks only amortize the arena.
  exec::parallel_for(0, n, 4 * kSlabRows, [&](std::size_t lo, std::size_t hi) {
    Scratch ws;
    ensure(ws, kSlabRows);
    for (std::size_t s = lo; s < hi; s += kSlabRows) {
      const std::size_t rows = std::min(kSlabRows, hi - s);
      for (std::size_t b = 0; b < rows; ++b)
        scaler_.transform_row(x, s + b, ws.xs.data() + b * mf);
      forward(ws, rows);
      for (std::size_t b = 0; b < rows; ++b)
        out[s + b] = scaler_.inverse_target(ws.y_hat[b]);
    }
  });
  return out;
}

CompiledAttention AttentionForecaster::compile() const {
  return CompiledAttention(*this);
}

}  // namespace dfv::ml
