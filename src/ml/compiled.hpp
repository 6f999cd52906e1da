// Compiled surrogate inference (ROADMAP item 3): serve-rate prediction
// for the fitted models the analysis stack trains once and then queries
// millions of times (SMART frames runtime prediction as a surrogate
// *serving* problem; monitoring a machine over months of telemetry
// assumes cheap repeated predictions).
//
// A compile step snapshots a fitted model into an inference-only layout:
//
//  - CompiledGbr flattens every tree of a GradientBoostedRegressor into
//    one contiguous preorder node array ({payload, feature, skip, bin}
//    records; learning rate pre-folded into leaf payloads) traversed
//    branch-free over BinnedDataset uint8 codes or raw double rows — no
//    virtual dispatch, no per-tree allocation, no per-tree pointer hop.
//  - CompiledAttention pre-packs the attention operands the reference
//    predict path rebuilds per call (transposed embed/head weights,
//    fused bias + positional-embedding init rows) and rides the same
//    target_clones kernels from matrix.{hpp,cpp}.
//
// The models' own batch predict methods always take this route. The
// per-row walks (GradientBoostedRegressor::predict_one/predict_binned)
// and AttentionForecaster::predict_reference stay as test oracles.
//
// Bit-identity contract: every compiled prediction is bit-identical to
// those oracles for any thread count. Flattening only reorders storage;
// payload = learning_rate * leaf_value is the exact IEEE multiply the
// per-tree walk performs at query time, and the attention forward
// replays the reference kernel sequence on identical operands.
// tests/test_compiled.cpp pins this with EXPECT_EQ on doubles across
// 1/2/8 threads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/binned.hpp"
#include "ml/matrix.hpp"
#include "ml/scaler.hpp"

namespace dfv::ml {

class GradientBoostedRegressor;
class AttentionForecaster;

/// Inference-only snapshot of a fitted GradientBoostedRegressor. Owns no
/// training state; cheap to build (one pass over the fitted trees) and
/// safe to keep after the source model is destroyed.
class CompiledGbr {
 public:
  /// One flattened tree node (24 bytes; the whole default ensemble fits
  /// in a few pages). Children are preorder *skips* from the node itself:
  /// the left child is always the next record (skip 1), the right child
  /// sits one past the left subtree. Leaves skip 0 (self-loop), so a
  /// fixed-depth descent parks on its leaf with no exit branch.
  struct Node {
    double payload = 0.0;       ///< internal: split threshold; leaf: lr * value
    std::int32_t feature = 0;   ///< split feature (leaves: 0, harmless read)
    std::uint32_t left = 0;     ///< skip to left child (1; leaves: 0)
    std::uint32_t right = 0;    ///< skip to right child (leaves: 0)
    std::uint8_t bin = 0;       ///< go left if code(feature) <= bin
  };

  /// Snapshot `model` (which may be unfitted: zero trees compile to an
  /// f0-only predictor, matching the reference).
  explicit CompiledGbr(const GradientBoostedRegressor& model);

  /// Bit-identical to GradientBoostedRegressor::predict_one(x).
  [[nodiscard]] double predict_one(std::span<const double> x) const;
  /// Bit-identical to predict_one on every row of `x`.
  [[nodiscard]] std::vector<double> predict(const Matrix& x) const;
  /// Bit-identical to GradientBoostedRegressor::predict_binned(data, r).
  [[nodiscard]] double predict_binned(const BinnedDataset& data, std::size_t r) const;
  /// Batched uint8-code prediction for a row view; bit-identical to
  /// GradientBoostedRegressor::predict_binned on each row for any thread
  /// count (rows are independent; chunking never changes per-row
  /// accumulation order).
  [[nodiscard]] std::vector<double> predict_many(const BinnedDataset& data,
                                                 std::span<const std::size_t> rows) const;

  [[nodiscard]] std::size_t tree_count() const noexcept { return roots_.size(); }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  /// Highest feature index any split reads (-1 if the ensemble never
  /// splits); callers' rows/views must be wider than this.
  [[nodiscard]] int max_feature() const noexcept { return max_feature_; }

 private:
  void predict_span(const std::uint8_t* codes, std::size_t data_rows,
                    std::span<const std::size_t> rows, std::size_t lo, std::size_t hi,
                    double* out) const;

  std::vector<Node> nodes_;           ///< all trees, preorder, back to back
  std::vector<std::uint32_t> roots_;  ///< root index of each tree in nodes_
  std::vector<std::int32_t> depths_;  ///< fitted depth of each tree
  double f0_ = 0.0;
  int max_feature_ = -1;
};

/// Inference-only snapshot of a fitted AttentionForecaster: the operand
/// packing the reference predict path performs per call (weight
/// transposes, bias + positional-embedding fusion) is done once here, so
/// a resident server pays it at model-build time instead of per request.
class CompiledAttention {
 public:
  /// Reusable forward arena (the per-request predict_one allocation the
  /// serve hot path avoids by keeping one Scratch per session). Plain
  /// buffers; each only grows, so one Scratch serves models of any shape.
  struct Scratch {
    std::vector<double> xs;       ///< S x (m*f) standardized windows
    std::vector<double> pre;      ///< (S*m) x d embed pre-activations
    std::vector<double> embed;    ///< (S*m) x d post-tanh
    std::vector<double> scores;   ///< S x m
    std::vector<double> alpha;    ///< S x m (softmax)
    std::vector<double> context;  ///< S x d
    std::vector<double> hidden;   ///< S x h (post-ReLU)
    std::vector<double> y_hat;    ///< S
  };

  /// Snapshot `model`, which must be fitted (the scaler statistics the
  /// forward pass standardizes with only exist after fit).
  explicit CompiledAttention(const AttentionForecaster& model);

  /// Bit-identical to AttentionForecaster::predict_reference on the
  /// one-window batch.
  [[nodiscard]] double predict_one(std::span<const double> window) const;
  /// Same, reusing a caller-owned arena (no allocation after warmup).
  [[nodiscard]] double predict_one(std::span<const double> window, Scratch& ws) const;
  /// Slab-batched prediction over strided window views; bit-identical to
  /// AttentionForecaster::predict_reference(x) for any thread count.
  [[nodiscard]] std::vector<double> predict_many(const RowBatch& x) const;

  [[nodiscard]] int history() const noexcept { return m_; }
  [[nodiscard]] int feat_dim() const noexcept { return feat_dim_; }

 private:
  void ensure(Scratch& ws, std::size_t slab) const;
  void forward(Scratch& ws, std::size_t rows) const;

  int m_ = 0;
  int feat_dim_ = 0;
  std::size_t d_ = 0;  ///< d_model
  std::size_t h_ = 0;  ///< d_hidden
  StandardScaler scaler_;

  // Pre-packed operands (layouts match the reference predict packing).
  std::vector<double> wt_embed_;    ///< f x d transposed embed weights
  std::vector<double> wt_head_;     ///< d x h transposed head weights
  std::vector<double> init_embed_;  ///< m x d fused b_embed + pos_embed
  std::vector<double> query_;       ///< d
  std::vector<double> b_head_;      ///< h
  std::vector<double> w_out_;       ///< h
  double b_out_ = 0.0;
};

}  // namespace dfv::ml
