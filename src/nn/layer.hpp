// Layer interface for the from-scratch NN engine.
//
// Design notes:
//  * Forward() takes a non-owning tensor::TensorView (owning Tensors convert
//    implicitly), so the multi-tenant edge node can feed cropped or
//    full-frame feature-map taps without materializing a per-tenant copy.
//    Kernels read through the view's row stride; layers that genuinely need
//    dense storage materialize internally.
//  * Forward() is usable standalone for inference. When training() is set,
//    layers retain whatever context Backward() needs (inputs, masks,
//    argmaxes). Inference mode retains nothing, keeping the multi-tenant
//    pipeline's memory footprint flat.
//  * Backward() accumulates parameter gradients (so shared-weight layers can
//    be applied several times per step) and returns the input gradient.
//  * Macs() implements the multiply-add formulas of paper §4.5; Fig. 7's
//    x-axis is produced by these, not by timing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "tensor/tensor_view.hpp"

namespace ff::nn {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorView;

// An activation a compute layer applies in place to each finished output
// block, while the block is still in cache (float inference only). See
// FusableEpilogue() in sequential.hpp for when a layer pair fuses.
enum class Epilogue { kNone, kRelu, kRelu6 };

// Non-owning handle to one parameter blob and its gradient accumulator.
struct ParamView {
  std::string name;
  std::vector<float>* value = nullptr;
  std::vector<float>* grad = nullptr;
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const { return name_; }

  // Shape of the output produced for input shape `in`; checks validity.
  virtual Shape OutputShape(const Shape& in) const = 0;

  virtual Tensor Forward(const TensorView& in) = 0;

  // Gradient w.r.t. the layer input, given gradient w.r.t. the output of the
  // most recent Forward() (which must have run with training() == true).
  virtual Tensor Backward(const Tensor& grad_out) = 0;

  // Parameter blobs (empty for stateless layers).
  virtual std::vector<ParamView> Params() { return {}; }

  // Multiply-adds for one forward pass on input shape `in` (per batch image).
  virtual std::uint64_t Macs(const Shape& in) const = 0;

  void set_training(bool t) { training_ = t; }
  bool training() const { return training_; }

  // Zeroes all parameter gradients.
  void ZeroGrad() {
    for (auto& p : Params()) {
      std::fill(p.grad->begin(), p.grad->end(), 0.0f);
    }
  }

 protected:
  bool training_ = false;

 private:
  std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace ff::nn
