// Attention-based forecaster (§IV-C): scalar dot-product attention over
// the embedded history window followed by a fully connected head, trained
// with Adam on standardized inputs/targets — a from-scratch implementation
// of the model family the paper uses ("the popular scalar dot-product
// attention along with a fully connected neural network").
//
// Input: a window of m time steps, each with `feat_dim` features
// (network counters, optionally placement / io / sys), flattened
// time-major into one row of length m * feat_dim.
// Output: y_tot^k(t_c), the sum of the next k step times.
#pragma once

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "ml/matrix.hpp"
#include "ml/scaler.hpp"

namespace dfv::ml {

class CompiledAttention;

struct AttentionParams {
  int d_model = 12;   ///< embedding width per time step
  int d_hidden = 16;  ///< FC head width
  int epochs = 40;
  int batch = 32;
  double lr = 3e-3;
  double weight_decay = 1e-5;
  std::uint64_t seed = 0xa77;
};

class AttentionForecaster {
 public:
  /// `m`: history length (time steps per window); `feat_dim`: features per step.
  AttentionForecaster(int m, int feat_dim, AttentionParams params = {});

  /// Train on windows (rows of length m*feat_dim) and targets. Features
  /// and targets are standardized internally.
  ///
  /// Training runs the batched fast path: each minibatch is cut into
  /// fixed kSlabRows-sample slabs whose forward/backward passes run as
  /// parallel tasks through the blocked matrix kernels, and whose
  /// partial gradients combine in slab order — bit-identical for any
  /// thread count and to fit_reference. Each slab standardizes its rows
  /// straight from `x`, so a fit keeps no copy of its training windows.
  void fit(const Matrix& x, std::span<const double> y);
  /// Same, over strided window views (no materialized design matrix).
  void fit(const RowBatch& x, std::span<const double> y);

  /// Per-sample scalar-loop implementation of exactly the same training
  /// semantics (same slab structure, same activation functions, same
  /// accumulation orders). Kept as the readability/equality reference:
  /// tests assert fit and fit_reference produce bit-identical models.
  void fit_reference(const Matrix& x, std::span<const double> y);

  [[nodiscard]] double predict_one(std::span<const double> window) const;
  [[nodiscard]] std::vector<double> predict(const Matrix& x) const;
  /// Batched prediction over strided window views, through compile().
  [[nodiscard]] std::vector<double> predict(const RowBatch& x) const;
  /// The same forward pass, packing its operands per call instead of
  /// through compile(). Kept as the test oracle the compiled route must
  /// match bit for bit.
  [[nodiscard]] std::vector<double> predict_reference(const RowBatch& x) const;

  /// Permutation importance per feature dimension (shuffling a feature
  /// across samples at all m time positions simultaneously) measured as
  /// the increase in MAPE; non-negative, normalized to sum to 1.
  [[nodiscard]] std::vector<double> permutation_importance(const Matrix& x,
                                                           std::span<const double> y,
                                                           Rng& rng,
                                                           int repeats = 2) const;

  [[nodiscard]] int history() const noexcept { return m_; }
  [[nodiscard]] int feat_dim() const noexcept { return feat_dim_; }
  /// Attention weights over the m history steps for one window (useful
  /// for inspecting what the model attends to).
  [[nodiscard]] std::vector<double> attention_weights(std::span<const double> window) const;

  /// Snapshot the fitted model into the pre-packed inference layout
  /// (see ml/compiled.hpp); predictions are bit-identical to
  /// predict_reference. Requires a fitted model. Every predict method
  /// takes this route.
  [[nodiscard]] CompiledAttention compile() const;

  /// The fitted model's state as bytes: m, feat_dim, d_model and d_hidden
  /// as little-endian u32, then every weight, b_out, the scaler's means
  /// and stddevs and the target mean and stddev as little-endian IEEE-754
  /// doubles. Requires a fitted model. This is the one place that knows
  /// the model's layout; the bytes carry no checksum or training key.
  [[nodiscard]] std::string to_bytes() const;
  /// Rebuild a fitted model of shape (m, feat_dim, params) from to_bytes
  /// output: it predicts bit-identically to the model that wrote them.
  /// Throws ContractError when the bytes hold another shape or their
  /// length does not match it.
  [[nodiscard]] static AttentionForecaster from_bytes(int m, int feat_dim,
                                                      AttentionParams params,
                                                      std::string_view bytes);

 private:
  friend class CompiledAttention;

  struct Workspace;  // per-slab forward/backward arena (defined in .cpp)

  /// The forward kernels' operands packed from the current weights.
  struct KernelTables {
    std::vector<double> wt_embed;    ///< f x d transposed embed weights
    std::vector<double> wt_head;     ///< d x h transposed head weights
    std::vector<double> init_embed;  ///< m x d fused b_embed + pos_embed
  };
  /// (Re)pack `t` from the current weights; buffers are reused across calls.
  void pack_tables(KernelTables& t) const;

  void fit_impl(const RowBatch& x, std::span<const double> y, bool batched);
  /// Batched forward/backward over one slab of `rows` samples whose
  /// standardized windows sit in the workspace arena.
  void forward_slab(Workspace& ws, std::size_t rows) const;
  void backward_slab(Workspace& ws, std::size_t rows) const;
  /// Scalar per-sample forward+backward for the same slab (the reference
  /// path; bit-identical to forward_slab + backward_slab).
  void slab_reference(Workspace& ws, std::size_t rows) const;

  /// The weight arrays in to_bytes order (b_out follows them there).
  template <class Self>
  [[nodiscard]] static auto weight_arrays(Self& self) {
    return std::array{&self.w_embed_, &self.b_embed_, &self.pos_embed_, &self.query_,
                      &self.w_head_,  &self.b_head_,  &self.w_out_};
  }

  int m_, feat_dim_;
  AttentionParams params_;
  StandardScaler scaler_;

  // Parameters (flattened):
  std::vector<double> w_embed_;    ///< d_model x feat_dim
  std::vector<double> b_embed_;    ///< d_model
  std::vector<double> pos_embed_;  ///< m x d_model learned positional encoding
  std::vector<double> query_;      ///< d_model
  std::vector<double> w_head_;   ///< d_hidden x d_model
  std::vector<double> b_head_;   ///< d_hidden
  std::vector<double> w_out_;    ///< d_hidden
  double b_out_ = 0.0;
};

}  // namespace dfv::ml
