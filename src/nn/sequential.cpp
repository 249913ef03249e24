#include "nn/sequential.hpp"

#include <utility>

#include "nn/activations.hpp"
#include "nn/conv.hpp"

namespace ff::nn {

Layer& Sequential::Add(LayerPtr layer) {
  FF_CHECK_MSG(index_.find(layer->name()) == index_.end(),
               name_ << ": duplicate layer name " << layer->name());
  index_[layer->name()] = layers_.size();
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

std::size_t Sequential::IndexOf(const std::string& layer_name) const {
  const auto it = index_.find(layer_name);
  FF_CHECK_MSG(it != index_.end(), name_ << ": no layer named " << layer_name);
  return it->second;
}

bool Sequential::Contains(const std::string& layer_name) const {
  return index_.find(layer_name) != index_.end();
}

Epilogue FusableEpilogue(const Sequential& net, std::size_t i) {
  if (i + 1 >= net.n_layers()) return Epilogue::kNone;
  const auto* act = dynamic_cast<const Activation*>(&net.layer(i + 1));
  if (act == nullptr) return Epilogue::kNone;
  switch (act->kind()) {
    case ActKind::kRelu:
      return Epilogue::kRelu;
    case ActKind::kRelu6:
      return Epilogue::kRelu6;
    case ActKind::kSigmoid:
      break;
  }
  return Epilogue::kNone;
}

namespace {

// Runs `l` with `ep` fused in when it is a layer that can apply one.
std::optional<Tensor> ForwardFused(Layer& l, const TensorView& in,
                                   Epilogue ep) {
  if (auto* conv = dynamic_cast<Conv2D*>(&l)) return conv->Forward(in, ep);
  if (auto* dw = dynamic_cast<DepthwiseConv2D*>(&l)) return dw->Forward(in, ep);
  return std::nullopt;
}

}  // namespace

Tensor Sequential::Run(const TensorView& in, std::size_t begin,
                       std::size_t end, const std::set<std::string>* taps,
                       std::map<std::string, Tensor>* tapped) {
  FF_CHECK(begin < end && end <= layers_.size());
  auto is_tap = [&](const Layer& l) {
    return taps != nullptr && taps->count(l.name()) > 0;
  };
  Tensor x;
  for (std::size_t i = begin; i < end;) {
    const TensorView src = i == begin ? in : TensorView(x);
    Layer& l = *layers_[i];
    // Fuse only in inference mode (Backward needs the activation's saved
    // output) and only when nobody asked for the pre-activation blob.
    const Epilogue ep = FusableEpilogue(*this, i);
    const bool fuse = ep != Epilogue::kNone && i + 1 < end && !l.training() &&
                      !layers_[i + 1]->training() && !is_tap(l);
    std::optional<Tensor> fused =
        fuse ? ForwardFused(l, src, ep) : std::nullopt;
    if (fused.has_value()) {
      x = std::move(*fused);
      ++i;  // the activation's output is what the conv just produced
    } else {
      x = l.Forward(src);
    }
    if (is_tap(*layers_[i])) {
      // The last layer's output is only ever a tap (ForwardWithTaps drops
      // the return value): move it rather than copy it.
      if (i + 1 == end) {
        (*tapped)[layers_[i]->name()] = std::move(x);
      } else {
        (*tapped)[layers_[i]->name()] = x;
      }
    }
    ++i;
  }
  return x;
}

Tensor Sequential::Forward(const TensorView& in) {
  FF_CHECK(!layers_.empty());
  return Run(in, 0, layers_.size(), nullptr, nullptr);
}

Tensor Sequential::ForwardTo(const TensorView& in, const std::string& last_layer) {
  return Run(in, 0, IndexOf(last_layer) + 1, nullptr, nullptr);
}

Tensor Sequential::ForwardRange(const TensorView& in, std::size_t begin,
                                std::size_t end) {
  return Run(in, begin, end, nullptr, nullptr);
}

std::map<std::string, Tensor> Sequential::ForwardWithTaps(
    const TensorView& in, const std::set<std::string>& taps) {
  FF_CHECK(!taps.empty());
  std::size_t deepest = 0;
  for (const auto& t : taps) deepest = std::max(deepest, IndexOf(t));
  std::map<std::string, Tensor> out;
  Run(in, 0, deepest + 1, &taps, &out);
  return out;
}

Tensor Sequential::Backward(const Tensor& grad_out) {
  FF_CHECK(!layers_.empty());
  Tensor g = grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    g = layers_[i]->Backward(g);
  }
  return g;
}

std::vector<ParamView> Sequential::Params() {
  std::vector<ParamView> all;
  for (auto& l : layers_) {
    for (auto& p : l->Params()) all.push_back(p);
  }
  return all;
}

void Sequential::ZeroGrad() {
  for (auto& l : layers_) l->ZeroGrad();
}

void Sequential::SetTraining(bool training) {
  for (auto& l : layers_) l->set_training(training);
}

Shape Sequential::OutputShape(const Shape& in) const {
  Shape s = in;
  for (const auto& l : layers_) s = l->OutputShape(s);
  return s;
}

Shape Sequential::OutputShapeAt(const Shape& in,
                                const std::string& last_layer) const {
  const std::size_t last = IndexOf(last_layer);
  Shape s = in;
  for (std::size_t i = 0; i <= last; ++i) s = layers_[i]->OutputShape(s);
  return s;
}

std::uint64_t Sequential::Macs(const Shape& in) const {
  std::uint64_t total = 0;
  Shape s = in;
  for (const auto& l : layers_) {
    total += l->Macs(s);
    s = l->OutputShape(s);
  }
  return total;
}

std::uint64_t Sequential::MacsTo(const Shape& in,
                                 const std::string& last_layer) const {
  const std::size_t last = IndexOf(last_layer);
  std::uint64_t total = 0;
  Shape s = in;
  for (std::size_t i = 0; i <= last; ++i) {
    total += layers_[i]->Macs(s);
    s = layers_[i]->OutputShape(s);
  }
  return total;
}

std::vector<Sequential::LayerCost> Sequential::CostTrace(const Shape& in) const {
  std::vector<LayerCost> trace;
  Shape s = in;
  for (const auto& l : layers_) {
    const Shape out = l->OutputShape(s);
    trace.push_back({l->name(), l->Macs(s), out});
    s = out;
  }
  return trace;
}

std::int64_t Sequential::ParamCount() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) {
    for (const auto& p : const_cast<Layer&>(*l).Params()) {
      total += static_cast<std::int64_t>(p.value->size());
    }
  }
  return total;
}

}  // namespace ff::nn
