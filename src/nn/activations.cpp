#include "nn/activations.hpp"

#include <cmath>

#include "nn/kernels.hpp"

namespace ff::nn {

namespace {

template <typename Op>
void ApplyElementwise(const TensorView& in, Tensor& out, Op op) {
  float* y = out.data();
  if (in.contiguous()) {
    const float* x = in.data();
    const std::int64_t n = in.elements();
    for (std::int64_t i = 0; i < n; ++i) y[i] = op(x[i]);
    return;
  }
  const Shape& s = in.shape();
  for (std::int64_t n = 0; n < s.n; ++n) {
    for (std::int64_t c = 0; c < s.c; ++c) {
      for (std::int64_t r = 0; r < s.h; ++r) {
        const float* x = in.row(n, c, r);
        for (std::int64_t i = 0; i < s.w; ++i) *y++ = op(x[i]);
      }
    }
  }
}

// Run-structured variant for the SIMD kernels: one call over the whole
// buffer when dense, one per row when the view is a crop.
void ApplyRuns(const TensorView& in, Tensor& out,
               void (*kernel)(const float*, float*, std::int64_t)) {
  float* y = out.data();
  if (in.contiguous()) {
    kernel(in.data(), y, in.elements());
    return;
  }
  const Shape& s = in.shape();
  for (std::int64_t n = 0; n < s.n; ++n) {
    for (std::int64_t c = 0; c < s.c; ++c) {
      for (std::int64_t r = 0; r < s.h; ++r) {
        kernel(in.row(n, c, r), y, s.w);
        y += s.w;
      }
    }
  }
}

}  // namespace

Tensor Activation::Forward(const TensorView& in) {
  Tensor out = Tensor::Uninitialized(in.shape());
  switch (kind_) {
    case ActKind::kRelu:
      ApplyRuns(in, out, kernels::Active().relu);
      break;
    case ActKind::kRelu6:
      ApplyRuns(in, out, kernels::Active().relu6);
      break;
    case ActKind::kSigmoid:
      ApplyElementwise(in, out, [](float v) {
        return 1.0f / (1.0f + std::exp(-v));
      });
      break;
  }
  if (training_) saved_out_ = out;
  return out;
}

Tensor Activation::Backward(const Tensor& grad_out) {
  FF_CHECK_MSG(!saved_out_.empty(),
               name() << ": Backward without a training-mode Forward");
  FF_CHECK(grad_out.shape() == saved_out_.shape());
  Tensor grad_in(grad_out.shape());
  const float* g = grad_out.data();
  const float* y = saved_out_.data();
  float* d = grad_in.data();
  const std::int64_t n = grad_out.elements();
  switch (kind_) {
    case ActKind::kRelu:
      for (std::int64_t i = 0; i < n; ++i) d[i] = y[i] > 0.0f ? g[i] : 0.0f;
      break;
    case ActKind::kRelu6:
      for (std::int64_t i = 0; i < n; ++i) {
        d[i] = (y[i] > 0.0f && y[i] < 6.0f) ? g[i] : 0.0f;
      }
      break;
    case ActKind::kSigmoid:
      for (std::int64_t i = 0; i < n; ++i) d[i] = g[i] * y[i] * (1.0f - y[i]);
      break;
  }
  return grad_in;
}

LayerPtr MakeRelu(std::string name) {
  return std::make_unique<Activation>(std::move(name), ActKind::kRelu);
}
LayerPtr MakeRelu6(std::string name) {
  return std::make_unique<Activation>(std::move(name), ActKind::kRelu6);
}
LayerPtr MakeSigmoid(std::string name) {
  return std::make_unique<Activation>(std::move(name), ActKind::kSigmoid);
}

}  // namespace ff::nn
