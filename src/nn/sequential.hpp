// Sequential network: a named chain of layers with activation taps.
//
// The feature extractor uses ForwardWithTaps() to collect intermediate
// activations (paper §3.1) and stops at the deepest tap it needs, so running
// microclassifiers fed from conv4_2/sep never pays for conv5/conv6.
//
// In inference mode every forward entry point runs a Conv2D or
// DepthwiseConv2D followed by a ReLU/ReLU6 as one fused op: the conv applies
// the activation to each output block in place and the result is published
// under the activation layer's name. A pair does not fuse in training mode
// or when the conv's own (pre-activation) output is a requested tap.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>

#include "nn/layer.hpp"

namespace ff::nn {

class Sequential {
 public:
  explicit Sequential(std::string name) : name_(std::move(name)) {}

  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  const std::string& name() const { return name_; }

  // Appends a layer; returns a reference for inline tweaks. Layer names must
  // be unique within the network.
  Layer& Add(LayerPtr layer);

  std::size_t n_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  // Index of the named layer; checks existence.
  std::size_t IndexOf(const std::string& layer_name) const;
  bool Contains(const std::string& layer_name) const;

  // Full forward pass.
  Tensor Forward(const TensorView& in);

  // Forward pass that stops after `last_layer` (inclusive).
  Tensor ForwardTo(const TensorView& in, const std::string& last_layer);

  // Forward through layers [begin, end) only. The windowed microclassifier
  // uses this to run its shared per-frame 1x1 conv once per frame and the
  // trunk once per window (paper §3.3.3's buffer-reuse optimization).
  Tensor ForwardRange(const TensorView& in, std::size_t begin, std::size_t end);

  // Forward collecting the outputs of every layer named in `taps`, stopping
  // at the deepest one. Returns the map tap-name -> activation.
  std::map<std::string, Tensor> ForwardWithTaps(const TensorView& in,
                                                const std::set<std::string>& taps);

  // Backpropagates through all layers (most recent Forward must have been in
  // training mode); returns gradient w.r.t. the network input.
  Tensor Backward(const Tensor& grad_out);

  std::vector<ParamView> Params();
  void ZeroGrad();
  void SetTraining(bool training);

  // Output shape after the whole chain (or up to `last_layer`).
  Shape OutputShape(const Shape& in) const;
  Shape OutputShapeAt(const Shape& in, const std::string& last_layer) const;

  // Total multiply-adds per image for the whole chain (or a prefix).
  std::uint64_t Macs(const Shape& in) const;
  std::uint64_t MacsTo(const Shape& in, const std::string& last_layer) const;

  // Per-layer (name, macs, output shape) trace — used by the Fig. 2 bench.
  struct LayerCost {
    std::string name;
    std::uint64_t macs;
    Shape out_shape;
  };
  std::vector<LayerCost> CostTrace(const Shape& in) const;

  // Number of parameters (floats) across all layers.
  std::int64_t ParamCount() const;

 private:
  // The one forward loop behind Forward/ForwardTo/ForwardRange/
  // ForwardWithTaps: runs layers [begin, end), fusing activation pairs,
  // and stores the output of every layer named in `taps` into `*tapped`.
  // When layer end-1 is itself a tap its output is moved into `*tapped`
  // and the returned tensor is empty.
  Tensor Run(const TensorView& in, std::size_t begin, std::size_t end,
             const std::set<std::string>* taps,
             std::map<std::string, Tensor>* tapped);

  std::string name_;
  std::vector<LayerPtr> layers_;
  std::map<std::string, std::size_t> index_;
};

// The fused-activation pairing rule shared by float inference (the loop
// above) and the int8 planner (quantize.cpp): the epilogue the compute layer
// at index i absorbs when layer i + 1 is a ReLU or ReLU6 Activation, else
// kNone. The fused op takes the activation layer's name.
Epilogue FusableEpilogue(const Sequential& net, std::size_t i);

}  // namespace ff::nn
