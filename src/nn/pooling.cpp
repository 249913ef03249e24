#include "nn/pooling.hpp"

#include <limits>

#include "nn/kernels.hpp"

namespace ff::nn {

namespace {

// Pooling planes are independent; fan (n, c) pairs across the pool under
// the shared dispatch policy (same helper as conv/depthwise).
using kernels::ForEachPlane;

}  // namespace

MaxPool2D::MaxPool2D(std::string name, std::int64_t k, std::int64_t stride)
    : Layer(std::move(name)), k_(k), stride_(stride) {
  FF_CHECK_GT(k, 0);
  FF_CHECK_GT(stride, 0);
}

Shape MaxPool2D::OutputShape(const Shape& in) const {
  FF_CHECK_MSG(in.h >= k_ && in.w >= k_,
               name() << ": input " << in << " smaller than window " << k_);
  return Shape{in.n, in.c, (in.h - k_) / stride_ + 1, (in.w - k_) / stride_ + 1};
}

Tensor MaxPool2D::Forward(const TensorView& in) {
  const Shape out_shape = OutputShape(in.shape());
  Tensor out = Tensor::Uninitialized(out_shape);
  if (training_) {
    // argmax_ stores flat dense-plane indices; training inputs are always
    // owning (dense) tensors, never cropped views.
    FF_CHECK_MSG(in.plane_contiguous(),
                 name() << ": training forward needs dense input planes");
    argmax_.assign(static_cast<std::size_t>(out_shape.elements()), 0);
    saved_in_shape_ = in.shape();
  }
  const std::int64_t is = in.row_stride();
  const std::int64_t plane = out_shape.h * out_shape.w;
  ForEachPlane(
      in.shape().n, in.shape().c,
      in.shape().n * in.shape().c * plane * k_ * k_,
      [&](std::int64_t n, std::int64_t c) {
        const float* ip = in.plane(n, c);
        float* op = out.plane(n, c);
        std::int64_t oi = (n * in.shape().c + c) * plane;
        for (std::int64_t oy = 0; oy < out_shape.h; ++oy) {
          for (std::int64_t ox = 0; ox < out_shape.w; ++ox) {
            float best = -std::numeric_limits<float>::infinity();
            std::int64_t best_idx = 0;
            for (std::int64_t ky = 0; ky < k_; ++ky) {
              for (std::int64_t kx = 0; kx < k_; ++kx) {
                const std::int64_t idx =
                    (oy * stride_ + ky) * is + ox * stride_ + kx;
                if (ip[idx] > best) {
                  best = ip[idx];
                  best_idx = idx;
                }
              }
            }
            op[oy * out_shape.w + ox] = best;
            if (training_) argmax_[static_cast<std::size_t>(oi)] = best_idx;
            ++oi;
          }
        }
      });
  return out;
}

Tensor MaxPool2D::Backward(const Tensor& grad_out) {
  FF_CHECK_MSG(!argmax_.empty(),
               name() << ": Backward without a training-mode Forward");
  const Shape out_shape = OutputShape(saved_in_shape_);
  FF_CHECK(grad_out.shape() == out_shape);
  Tensor grad_in(saved_in_shape_);
  std::int64_t oi = 0;
  for (std::int64_t n = 0; n < saved_in_shape_.n; ++n) {
    for (std::int64_t c = 0; c < saved_in_shape_.c; ++c) {
      float* dip = grad_in.plane(n, c);
      const float* gp = grad_out.plane(n, c);
      for (std::int64_t p = 0; p < out_shape.plane(); ++p) {
        dip[argmax_[static_cast<std::size_t>(oi)]] += gp[p];
        ++oi;
      }
    }
  }
  return grad_in;
}

Tensor GlobalAvgPool::Forward(const TensorView& in) {
  Tensor out = Tensor::Uninitialized(OutputShape(in.shape()));
  const std::int64_t h = in.shape().h, w = in.shape().w;
  ForEachPlane(in.shape().n, in.shape().c,
               in.shape().n * in.shape().c * h * w,
               [&](std::int64_t n, std::int64_t c) {
                 double acc = 0;
                 for (std::int64_t y = 0; y < h; ++y) {
                   const float* row = in.row(n, c, y);
                   for (std::int64_t x = 0; x < w; ++x) acc += row[x];
                 }
                 *out.plane(n, c) =
                     static_cast<float>(acc / static_cast<double>(h * w));
               });
  if (training_) saved_in_shape_ = in.shape();
  return out;
}

Tensor GlobalAvgPool::Backward(const Tensor& grad_out) {
  FF_CHECK_MSG(saved_in_shape_.elements() > 0,
               name() << ": Backward without a training-mode Forward");
  FF_CHECK(grad_out.shape() == OutputShape(saved_in_shape_));
  Tensor grad_in(saved_in_shape_);
  const std::int64_t plane = saved_in_shape_.plane();
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::int64_t n = 0; n < saved_in_shape_.n; ++n) {
    for (std::int64_t c = 0; c < saved_in_shape_.c; ++c) {
      const float g = *grad_out.plane(n, c) * inv;
      float* dip = grad_in.plane(n, c);
      for (std::int64_t p = 0; p < plane; ++p) dip[p] = g;
    }
  }
  return grad_in;
}

Tensor GlobalMaxPool::Forward(const TensorView& in) {
  Tensor out = Tensor::Uninitialized(OutputShape(in.shape()));
  const std::int64_t h = in.shape().h, w = in.shape().w;
  if (training_) {
    FF_CHECK_MSG(in.plane_contiguous(),
                 name() << ": training forward needs dense input planes");
    argmax_.assign(
        static_cast<std::size_t>(in.shape().n * in.shape().c), 0);
    saved_in_shape_ = in.shape();
  }
  ForEachPlane(in.shape().n, in.shape().c,
               in.shape().n * in.shape().c * h * w,
               [&](std::int64_t n, std::int64_t c) {
                 float best = *in.row(n, c, 0);
                 std::int64_t best_idx = 0;
                 for (std::int64_t y = 0; y < h; ++y) {
                   const float* row = in.row(n, c, y);
                   for (std::int64_t x = 0; x < w; ++x) {
                     if (row[x] > best) {
                       best = row[x];
                       best_idx = y * w + x;  // dense-plane index for Backward
                     }
                   }
                 }
                 *out.plane(n, c) = best;
                 if (training_) {
                   argmax_[static_cast<std::size_t>(n * in.shape().c + c)] =
                       best_idx;
                 }
               });
  return out;
}

Tensor GlobalMaxPool::Backward(const Tensor& grad_out) {
  FF_CHECK_MSG(!argmax_.empty(),
               name() << ": Backward without a training-mode Forward");
  FF_CHECK(grad_out.shape() == OutputShape(saved_in_shape_));
  Tensor grad_in(saved_in_shape_);
  for (std::int64_t n = 0; n < saved_in_shape_.n; ++n) {
    for (std::int64_t c = 0; c < saved_in_shape_.c; ++c) {
      grad_in.plane(n, c)[argmax_[static_cast<std::size_t>(
          n * saved_in_shape_.c + c)]] = *grad_out.plane(n, c);
    }
  }
  return grad_in;
}

}  // namespace ff::nn
