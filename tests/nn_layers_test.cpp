// Forward-path tests for the NN engine: convolution correctness against a
// naive reference, padding geometry, activations, pooling, FC, sequential
// plumbing, MAC formulas, serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/window_pack.hpp"
#include "util/rng.hpp"

namespace ff::nn {
namespace {

// Naive direct convolution used as the ground truth.
Tensor NaiveConv(const Tensor& in, const std::vector<float>& w,
                 const std::vector<float>& b, std::int64_t out_c,
                 std::int64_t k, std::int64_t s, Padding pad) {
  const auto gy = ComputeAxisGeometry(in.shape().h, k, s, pad);
  const auto gx = ComputeAxisGeometry(in.shape().w, k, s, pad);
  const std::int64_t in_c = in.shape().c;
  Tensor out(Shape{in.shape().n, out_c, gy.out, gx.out});
  for (std::int64_t n = 0; n < in.shape().n; ++n) {
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      for (std::int64_t oy = 0; oy < gy.out; ++oy) {
        for (std::int64_t ox = 0; ox < gx.out; ++ox) {
          double acc = b[static_cast<std::size_t>(oc)];
          for (std::int64_t ic = 0; ic < in_c; ++ic) {
            for (std::int64_t ky = 0; ky < k; ++ky) {
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy = oy * s + ky - gy.pad_begin;
                const std::int64_t ix = ox * s + kx - gx.pad_begin;
                if (iy < 0 || iy >= in.shape().h || ix < 0 ||
                    ix >= in.shape().w) {
                  continue;
                }
                acc += static_cast<double>(
                           w[static_cast<std::size_t>(
                               ((oc * in_c + ic) * k + ky) * k + kx)]) *
                       in.at(n, ic, iy, ix);
              }
            }
          }
          out.at(n, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

struct ConvCase {
  std::int64_t in_c, out_c, h, w, k, s;
  Padding pad;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, MatchesNaiveReference) {
  const ConvCase c = GetParam();
  Conv2D conv("c", c.in_c, c.out_c, c.k, c.s, c.pad);
  util::Pcg32 rng(42);
  for (auto& v : conv.weights()) v = static_cast<float>(rng.Normal(0, 0.5));
  for (auto& v : conv.bias()) v = static_cast<float>(rng.Normal(0, 0.5));
  Tensor in(Shape{2, c.in_c, c.h, c.w});
  in.FillNormal(rng, 1.0f);

  const Tensor got = conv.Forward(in);
  const Tensor want =
      NaiveConv(in, conv.weights(), conv.bias(), c.out_c, c.k, c.s, c.pad);
  EXPECT_EQ(got.shape(), want.shape());
  EXPECT_LT(Tensor::MaxAbsDiff(got, want), 2e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvParamTest,
    ::testing::Values(
        ConvCase{3, 8, 9, 11, 3, 1, Padding::kSameFloor},
        ConvCase{3, 8, 9, 11, 3, 2, Padding::kSameFloor},
        ConvCase{4, 6, 10, 10, 3, 2, Padding::kSameCeil},
        ConvCase{4, 6, 11, 13, 3, 1, Padding::kSameCeil},
        ConvCase{2, 5, 8, 8, 3, 3, Padding::kSameFloor},
        ConvCase{5, 7, 7, 9, 1, 1, Padding::kSameFloor},   // pointwise path
        ConvCase{16, 33, 6, 6, 1, 1, Padding::kSameCeil},  // pointwise, odd oc
        ConvCase{3, 4, 12, 12, 5, 2, Padding::kSameCeil},
        ConvCase{3, 4, 10, 10, 3, 1, Padding::kValid},
        ConvCase{1, 1, 16, 16, 3, 2, Padding::kValid}));

TEST(AxisGeometry, FloorModeMatchesPaperDims) {
  // 1080 -> /16 = 67 (not Caffe's 68): the paper's Fig. 2 dimensions.
  std::int64_t v = 1080;
  for (int i = 0; i < 4; ++i) {
    v = ComputeAxisGeometry(v, 3, 2, Padding::kSameFloor).out;
  }
  EXPECT_EQ(v, 67);
  v = ComputeAxisGeometry(v, 3, 2, Padding::kSameFloor).out;
  EXPECT_EQ(v, 33);
}

TEST(AxisGeometry, CeilModeMatchesFig2bDownsample) {
  EXPECT_EQ(ComputeAxisGeometry(67, 3, 2, Padding::kSameCeil).out, 34);
  EXPECT_EQ(ComputeAxisGeometry(120, 3, 2, Padding::kSameCeil).out, 60);
}

TEST(AxisGeometry, ValidModeRequiresFit) {
  EXPECT_EQ(ComputeAxisGeometry(10, 3, 1, Padding::kValid).out, 8);
  EXPECT_THROW(ComputeAxisGeometry(2, 3, 1, Padding::kValid),
               util::CheckError);
}

TEST(Conv2D, RejectsWrongChannelCount) {
  Conv2D conv("c", 3, 8, 3, 1, Padding::kSameCeil);
  Tensor in(Shape{1, 4, 8, 8});
  EXPECT_THROW(conv.Forward(in), util::CheckError);
}

TEST(DepthwiseConv2D, MatchesPerChannelNaive) {
  const std::int64_t C = 6, H = 9, W = 7;
  DepthwiseConv2D dw("dw", C, 3, 2, Padding::kSameFloor);
  util::Pcg32 rng(3);
  for (auto& v : dw.weights()) v = static_cast<float>(rng.Normal(0, 0.5));
  for (auto& v : dw.bias()) v = static_cast<float>(rng.Normal(0, 0.5));
  Tensor in(Shape{1, C, H, W});
  in.FillNormal(rng, 1.0f);
  const Tensor got = dw.Forward(in);

  // Per-channel naive reference via a 1-channel Conv2D.
  for (std::int64_t c = 0; c < C; ++c) {
    Conv2D ref("ref", 1, 1, 3, 2, Padding::kSameFloor);
    for (int i = 0; i < 9; ++i) {
      ref.weights()[static_cast<std::size_t>(i)] =
          dw.weights()[static_cast<std::size_t>(c * 9 + i)];
    }
    ref.bias()[0] = dw.bias()[static_cast<std::size_t>(c)];
    Tensor one(Shape{1, 1, H, W});
    for (std::int64_t y = 0; y < H; ++y) {
      for (std::int64_t x = 0; x < W; ++x) one.at(0, 0, y, x) = in.at(0, c, y, x);
    }
    const Tensor want = ref.Forward(one);
    for (std::int64_t y = 0; y < want.shape().h; ++y) {
      for (std::int64_t x = 0; x < want.shape().w; ++x) {
        ASSERT_NEAR(got.at(0, c, y, x), want.at(0, 0, y, x), 1e-4f);
      }
    }
  }
}

// --- Fused activation epilogue and the polyphase stride-2 path -------------

// Every kernel ISA this host can run, scalar first.
std::vector<kernels::Isa> SupportedIsas() {
  std::vector<kernels::Isa> isas;
  for (const auto isa :
       {kernels::Isa::kScalar, kernels::Isa::kSse2, kernels::Isa::kAvx2}) {
    if (kernels::TableFor(isa) != nullptr) isas.push_back(isa);
  }
  return isas;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.elements()) * sizeof(float)) ==
             0;
}

void RandomizeParams(Layer& l, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  for (auto& p : l.Params()) {
    for (auto& v : *p.value) v = static_cast<float>(rng.Normal(0, 0.5));
  }
}

// A (n, c, h, w) input, optionally as an off-centre crop of a larger tensor
// so rows are not contiguous. `storage` owns the floats behind the view.
TensorView MakeInput(Tensor& storage, std::int64_t n, std::int64_t c,
                     std::int64_t h, std::int64_t w, bool cropped,
                     std::uint64_t seed) {
  util::Pcg32 rng(seed);
  if (!cropped) {
    storage = Tensor(Shape{n, c, h, w});
    storage.FillNormal(rng, 1.0f);
    return storage;
  }
  storage = Tensor(Shape{n, c, h + 3, w + 5});
  storage.FillNormal(rng, 1.0f);
  return TensorView(storage).CropHW(tensor::Rect{1, 2, 1 + h, 2 + w});
}

struct FuseCase {
  bool depthwise;
  std::int64_t in_c, out_c, h, w, k, s;
  Padding pad;
  bool cropped;
};

std::unique_ptr<Layer> MakeConvLayer(const FuseCase& c) {
  if (c.depthwise) {
    return std::make_unique<DepthwiseConv2D>("dw", c.in_c, c.k, c.s, c.pad);
  }
  return std::make_unique<Conv2D>("conv", c.in_c, c.out_c, c.k, c.s, c.pad);
}

Tensor FusedForward(Layer& l, const TensorView& in, Epilogue ep) {
  if (auto* conv = dynamic_cast<Conv2D*>(&l)) return conv->Forward(in, ep);
  return dynamic_cast<DepthwiseConv2D&>(l).Forward(in, ep);
}

class FusedEpilogueTest : public ::testing::TestWithParam<FuseCase> {};

TEST_P(FusedEpilogueTest, BitwiseEqualToSeparateActivationOnEveryIsa) {
  const FuseCase c = GetParam();
  auto conv = MakeConvLayer(c);
  RandomizeParams(*conv, 71);
  Tensor storage;
  const TensorView in = MakeInput(storage, 2, c.in_c, c.h, c.w, c.cropped, 72);
  const kernels::Isa prev = kernels::ActiveIsa();
  for (const kernels::Isa isa : SupportedIsas()) {
    kernels::SetActiveIsaForTest(isa);
    for (const ActKind kind : {ActKind::kRelu, ActKind::kRelu6}) {
      Activation act("act", kind);
      const Tensor want = act.Forward(conv->Forward(in));
      const Epilogue ep =
          kind == ActKind::kRelu ? Epilogue::kRelu : Epilogue::kRelu6;
      const Tensor got = FusedForward(*conv, in, ep);
      EXPECT_TRUE(BitwiseEqual(got, want))
          << (kind == ActKind::kRelu ? "relu" : "relu6") << " on "
          << kernels::IsaName(isa);
    }
  }
  kernels::SetActiveIsaForTest(prev);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FusedEpilogueTest,
    ::testing::Values(
        // Pointwise: one 4-oc block plus a 2-oc remainder, dense and cropped.
        FuseCase{false, 13, 6, 7, 9, 1, 1, Padding::kSameFloor, false},
        FuseCase{false, 13, 6, 9, 16, 1, 1, Padding::kSameFloor, true},
        // KxK at stride 1 and 2 across every padding mode.
        FuseCase{false, 3, 7, 7, 9, 3, 1, Padding::kSameFloor, false},
        FuseCase{false, 3, 7, 9, 16, 3, 2, Padding::kSameFloor, true},
        FuseCase{false, 4, 6, 7, 9, 3, 2, Padding::kSameCeil, false},
        FuseCase{false, 4, 5, 9, 16, 3, 1, Padding::kValid, true},
        FuseCase{false, 2, 9, 9, 16, 3, 2, Padding::kValid, false},
        // Large enough to fan out over the thread pool.
        FuseCase{false, 16, 12, 9, 16, 3, 1, Padding::kSameCeil, false},
        // Depthwise at stride 1 and 2.
        FuseCase{true, 5, 5, 7, 9, 3, 1, Padding::kSameFloor, false},
        FuseCase{true, 5, 5, 9, 16, 3, 2, Padding::kSameFloor, true},
        FuseCase{true, 6, 6, 7, 9, 3, 2, Padding::kSameCeil, true},
        FuseCase{true, 6, 6, 9, 16, 3, 1, Padding::kValid, false},
        FuseCase{true, 64, 64, 9, 16, 3, 2, Padding::kSameFloor, false}));

TEST(FusedEpilogue, RejectedInTrainingMode) {
  Conv2D conv("c", 2, 3, 3, 1, Padding::kSameCeil);
  conv.set_training(true);
  Tensor in(Shape{1, 2, 5, 5});
  EXPECT_THROW(conv.Forward(in, Epilogue::kRelu), util::CheckError);
}

// The stride-2 reference: one float rounding per tap, folded bias -> ic ->
// ky -> kx, exactly the per-element order the layers promise. Weights and
// biases are never zero here, so the layers' zero-weight skip is moot.
Tensor NaiveStride2(const TensorView& in, const std::vector<float>& w,
                    const std::vector<float>& b, std::int64_t out_c,
                    std::int64_t k, Padding pad, bool depthwise) {
  const auto gy = ComputeAxisGeometry(in.shape().h, k, 2, pad);
  const auto gx = ComputeAxisGeometry(in.shape().w, k, 2, pad);
  const std::int64_t in_c = in.shape().c;
  Tensor out(Shape{in.shape().n, out_c, gy.out, gx.out});
  for (std::int64_t n = 0; n < in.shape().n; ++n) {
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      const std::int64_t ic0 = depthwise ? oc : 0;
      const std::int64_t ic1 = depthwise ? oc + 1 : in_c;
      for (std::int64_t oy = 0; oy < gy.out; ++oy) {
        for (std::int64_t ox = 0; ox < gx.out; ++ox) {
          float acc = b[static_cast<std::size_t>(oc)];
          for (std::int64_t ic = ic0; ic < ic1; ++ic) {
            const float* wk =
                &w[static_cast<std::size_t>(
                    (depthwise ? oc : oc * in_c + ic) * k * k)];
            for (std::int64_t ky = 0; ky < k; ++ky) {
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy = oy * 2 + ky - gy.pad_begin;
                const std::int64_t ix = ox * 2 + kx - gx.pad_begin;
                if (iy < 0 || iy >= in.shape().h || ix < 0 ||
                    ix >= in.shape().w) {
                  continue;
                }
                const float prod = wk[ky * k + kx] * in.at(n, ic, iy, ix);
                acc = acc + prod;
              }
            }
          }
          out.at(n, oc, oy, ox) = acc;
        }
      }
    }
  }
  return out;
}

TEST(PolyphaseStride2, ConvAndDepthwiseMatchNaiveLoopBitwise) {
  const kernels::Isa prev = kernels::ActiveIsa();
  for (const kernels::Isa isa : SupportedIsas()) {
    kernels::SetActiveIsaForTest(isa);
    for (const bool depthwise : {false, true}) {
      for (const std::int64_t ih : {8, 9}) {
        for (const std::int64_t iw : {10, 13}) {
          for (const Padding pad :
               {Padding::kSameFloor, Padding::kSameCeil, Padding::kValid}) {
            for (const bool cropped : {false, true}) {
              const std::int64_t in_c = depthwise ? 5 : 3;
              const std::int64_t out_c = depthwise ? 5 : 7;
              const FuseCase c{depthwise, in_c, out_c, ih,    iw,
                               3,         2,    pad,   cropped};
              auto conv = MakeConvLayer(c);
              RandomizeParams(*conv, 80 + static_cast<std::uint64_t>(ih * iw));
              const auto params = conv->Params();
              Tensor storage;
              const TensorView in =
                  MakeInput(storage, 2, in_c, ih, iw, cropped, 81);
              const Tensor want =
                  NaiveStride2(in, *params[0].value, *params[1].value, out_c,
                               3, pad, depthwise);
              EXPECT_TRUE(BitwiseEqual(conv->Forward(in), want))
                  << (depthwise ? "depthwise" : "conv") << " " << ih << "x"
                  << iw << " pad " << static_cast<int>(pad)
                  << (cropped ? " cropped" : "") << " on "
                  << kernels::IsaName(isa);
            }
          }
        }
      }
    }
  }
  kernels::SetActiveIsaForTest(prev);
}

// Layer outputs are allocated uninitialised (Debug builds fill them with
// quiet NaN), so an element a forward pass forgets to write shows up here
// as a NaN. Every layer that allocates its output that way, on finite
// inputs at odd shapes, dense and cropped, serial and pool-dispatched
// sizes, on every ISA.
bool AnyNan(const Tensor& t) {
  for (const float v : t.flat()) {
    if (std::isnan(v)) return true;
  }
  return false;
}

TEST(UninitializedOutputs, EveryLayerWritesEveryElementOnEveryIsa) {
  const kernels::Isa prev = kernels::ActiveIsa();
  for (const kernels::Isa isa : SupportedIsas()) {
    kernels::SetActiveIsaForTest(isa);
    for (const bool cropped : {false, true}) {
      // 7 channels: one 4-channel group plus a 3-channel tail. 23 channels
      // at 9x17 clear the pool-dispatch threshold for every conv here.
      for (const std::int64_t c : {7, 23}) {
        const std::int64_t h = c == 7 ? 5 : 9, w = c == 7 ? 7 : 17;
        Tensor storage;
        const TensorView in = MakeInput(storage, 3, c, h, w, cropped, 90);
        const std::string where = std::string(kernels::IsaName(isa)) +
                                  (cropped ? " cropped" : " dense") +
                                  " c=" + std::to_string(c);
        std::vector<std::unique_ptr<Layer>> convs;
        convs.push_back(std::make_unique<Conv2D>("pw", c, c + 2, 1, 1,
                                                 Padding::kSameFloor));
        convs.push_back(std::make_unique<Conv2D>("k3s1", c, c - 2, 3, 1,
                                                 Padding::kSameCeil));
        convs.push_back(std::make_unique<Conv2D>("k3s2", c, c + 1, 3, 2,
                                                 Padding::kSameFloor));
        convs.push_back(std::make_unique<DepthwiseConv2D>(
            "dws1", c, 3, 1, Padding::kSameFloor));
        convs.push_back(std::make_unique<DepthwiseConv2D>(
            "dws2", c, 3, 2, Padding::kValid));
        for (auto& conv : convs) {
          RandomizeParams(*conv, 91);
          for (const Epilogue ep :
               {Epilogue::kNone, Epilogue::kRelu, Epilogue::kRelu6}) {
            EXPECT_FALSE(AnyNan(FusedForward(*conv, in, ep)))
                << conv->name() << " epilogue " << static_cast<int>(ep)
                << " " << where;
          }
        }
        for (const ActKind kind :
             {ActKind::kRelu, ActKind::kRelu6, ActKind::kSigmoid}) {
          Activation act("act", kind);
          EXPECT_FALSE(AnyNan(act.Forward(in)))
              << "activation " << static_cast<int>(kind) << " " << where;
        }
        MaxPool2D max_pool("max", 2, 2);
        EXPECT_FALSE(AnyNan(max_pool.Forward(in))) << "maxpool " << where;
        GlobalAvgPool avg("gap");
        EXPECT_FALSE(AnyNan(avg.Forward(in))) << "gap " << where;
        GlobalMaxPool gmax("gmp");
        EXPECT_FALSE(AnyNan(gmax.Forward(in))) << "gmp " << where;
        FullyConnected fc("fc", c * h * w, 5);
        RandomizeParams(fc, 92);
        EXPECT_FALSE(AnyNan(fc.Forward(in))) << "fc " << where;
      }
    }
  }
  kernels::SetActiveIsaForTest(prev);
}

TEST(Sequential, FusesConvReluPairsOnlyInInference) {
  Sequential net("t");
  net.Add(std::make_unique<Conv2D>("c1", 3, 6, 3, 2, Padding::kSameFloor));
  net.Add(MakeRelu("r1"));
  net.Add(
      std::make_unique<DepthwiseConv2D>("d2", 6, 3, 1, Padding::kSameFloor));
  net.Add(MakeRelu6("r2"));
  net.Add(std::make_unique<Conv2D>("c3", 6, 5, 1, 1, Padding::kSameFloor));
  net.Add(MakeSigmoid("s3"));
  HeInit(net, 12);
  Tensor in(Shape{2, 3, 9, 16});
  util::Pcg32 rng(13);
  in.FillNormal(rng, 1.0f);

  // Layer by layer, nothing fused.
  std::vector<Tensor> ref;
  Tensor x = net.layer(0).Forward(in);
  ref.push_back(x);
  for (std::size_t i = 1; i < net.n_layers(); ++i) {
    x = net.layer(i).Forward(x);
    ref.push_back(x);
  }
  EXPECT_EQ(FusableEpilogue(net, 0), Epilogue::kRelu);
  EXPECT_EQ(FusableEpilogue(net, 2), Epilogue::kRelu6);
  EXPECT_EQ(FusableEpilogue(net, 4), Epilogue::kNone);  // sigmoid
  EXPECT_EQ(FusableEpilogue(net, 5), Epilogue::kNone);  // last layer

  EXPECT_TRUE(BitwiseEqual(net.Forward(in), ref[5]));
  EXPECT_TRUE(BitwiseEqual(net.ForwardTo(in, "r2"), ref[3]));
  EXPECT_TRUE(BitwiseEqual(net.ForwardTo(in, "c1"), ref[0]));
  EXPECT_TRUE(BitwiseEqual(net.ForwardRange(ref[1], 2, 4), ref[3]));
  // A tapped pre-activation blob stops its pair from fusing; the
  // activation tap beside it is unchanged.
  const auto taps = net.ForwardWithTaps(in, {"c1", "r1", "r2"});
  ASSERT_EQ(taps.size(), 3u);
  EXPECT_TRUE(BitwiseEqual(taps.at("c1"), ref[0]));
  EXPECT_TRUE(BitwiseEqual(taps.at("r1"), ref[1]));
  EXPECT_TRUE(BitwiseEqual(taps.at("r2"), ref[3]));

  // Training mode runs every layer on its own, so Backward still works.
  net.SetTraining(true);
  EXPECT_TRUE(BitwiseEqual(net.Forward(in), ref[5]));
  EXPECT_NO_THROW(net.Backward(Tensor(ref[5].shape(), 1.0f)));
}

TEST(FullyConnected, ComputesAffineMap) {
  FullyConnected fc("fc", 3, 2);
  fc.weights() = {1, 2, 3, 4, 5, 6};  // [2][3]
  fc.bias() = {0.5f, -0.5f};
  const Tensor in = Tensor::FromData(Shape{1, 3, 1, 1}, {1, 1, 2});
  const Tensor out = fc.Forward(in);
  EXPECT_EQ(out.shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 1 + 2 + 6 + 0.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1, 0, 0), 4 + 5 + 12 - 0.5f);
}

TEST(FullyConnected, FlattensSpatialInput) {
  FullyConnected fc("fc", 8, 1);
  fc.weights().assign(8, 1.0f);
  Tensor in(Shape{1, 2, 2, 2}, 1.0f);
  EXPECT_FLOAT_EQ(fc.Forward(in).data()[0], 8.0f);
  Tensor bad(Shape{1, 2, 2, 3});
  EXPECT_THROW(fc.Forward(bad), util::CheckError);
}

TEST(Activation, ReluRelu6SigmoidValues) {
  const Tensor in = Tensor::FromData(Shape{1, 1, 1, 4}, {-2, 0, 3, 8});
  Activation relu("r", ActKind::kRelu);
  Activation relu6("r6", ActKind::kRelu6);
  Activation sig("s", ActKind::kSigmoid);
  const Tensor r = relu.Forward(in);
  EXPECT_FLOAT_EQ(r.data()[0], 0);
  EXPECT_FLOAT_EQ(r.data()[3], 8);
  const Tensor r6 = relu6.Forward(in);
  EXPECT_FLOAT_EQ(r6.data()[2], 3);
  EXPECT_FLOAT_EQ(r6.data()[3], 6);
  const Tensor sg = sig.Forward(in);
  EXPECT_NEAR(sg.data()[1], 0.5f, 1e-6f);
  EXPECT_GT(sg.data()[3], 0.999f);
}

TEST(MaxPool2D, PicksWindowMaxima) {
  MaxPool2D pool("p", 2, 2);
  const Tensor in = Tensor::FromData(
      Shape{1, 1, 4, 4},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const Tensor out = pool.Forward(in);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 6);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 16);
}

TEST(GlobalPools, AvgAndMax) {
  const Tensor in = Tensor::FromData(Shape{1, 2, 1, 3}, {1, 2, 3, -5, 0, 5});
  GlobalAvgPool avg("a");
  GlobalMaxPool mx("m");
  const Tensor a = avg.Forward(in);
  EXPECT_FLOAT_EQ(a.at(0, 0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(a.at(0, 1, 0, 0), 0.0f);
  const Tensor m = mx.Forward(in);
  EXPECT_FLOAT_EQ(m.at(0, 0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1, 0, 0), 5.0f);
}

TEST(WindowPack, ReshapesBatchToChannels) {
  WindowPack pack("w", 5);
  Tensor in(Shape{10, 4, 2, 2});
  const Tensor out = pack.Forward(in);
  EXPECT_EQ(out.shape(), (Shape{2, 20, 2, 2}));
  Tensor odd(Shape{7, 4, 2, 2});
  EXPECT_THROW(pack.Forward(odd), util::CheckError);
}

TEST(Sequential, ForwardTapsAndPrefix) {
  Sequential net("t");
  net.Add(std::make_unique<Conv2D>("c1", 1, 2, 3, 1, Padding::kSameCeil));
  net.Add(MakeRelu("r1"));
  net.Add(std::make_unique<Conv2D>("c2", 2, 3, 3, 2, Padding::kSameCeil));
  net.Add(MakeRelu("r2"));
  HeInit(net, 5);
  Tensor in(Shape{1, 1, 8, 8});
  util::Pcg32 rng(1);
  in.FillNormal(rng, 1.0f);

  const Tensor full = net.Forward(in);
  EXPECT_EQ(full.shape(), (Shape{1, 3, 4, 4}));

  auto taps = net.ForwardWithTaps(in, {"r1", "r2"});
  EXPECT_EQ(taps.size(), 2u);
  EXPECT_EQ(taps.at("r1").shape(), (Shape{1, 2, 8, 8}));
  EXPECT_TRUE(Tensor::AllClose(taps.at("r2"), full, 0.0f));

  const Tensor prefix = net.ForwardTo(in, "r1");
  EXPECT_TRUE(Tensor::AllClose(prefix, taps.at("r1"), 0.0f));
}

TEST(Sequential, ForwardRangeComposesToFullForward) {
  Sequential net("t");
  net.Add(std::make_unique<Conv2D>("c1", 2, 4, 1, 1, Padding::kSameCeil));
  net.Add(MakeRelu("r1"));
  net.Add(std::make_unique<Conv2D>("c2", 4, 2, 1, 1, Padding::kSameCeil));
  HeInit(net, 6);
  Tensor in(Shape{1, 2, 3, 3});
  util::Pcg32 rng(2);
  in.FillNormal(rng, 1.0f);
  const Tensor a = net.ForwardRange(in, 0, 2);
  const Tensor b = net.ForwardRange(a, 2, 3);
  EXPECT_TRUE(Tensor::AllClose(b, net.Forward(in), 1e-6f));
}

TEST(Sequential, DuplicateNamesRejected) {
  Sequential net("t");
  net.Add(MakeRelu("same"));
  EXPECT_THROW(net.Add(MakeRelu("same")), util::CheckError);
}

TEST(Macs, MatchPaperFormulas) {
  // Conv: H/S * W/S * M * K^2 * F.
  Conv2D conv("c", 8, 16, 3, 2, Padding::kSameCeil);
  const Shape in{1, 8, 20, 20};
  EXPECT_EQ(conv.Macs(in), 10ull * 10 * 8 * 9 * 16);
  // Depthwise: H/S * W/S * M * K^2.
  DepthwiseConv2D dw("d", 8, 3, 2, Padding::kSameCeil);
  EXPECT_EQ(dw.Macs(in), 10ull * 10 * 8 * 9);
  // Separable = depthwise + pointwise = H/S*W/S*M*(K^2 + F).
  Conv2D pw("p", 8, 16, 1, 1, Padding::kSameCeil);
  const Shape mid{1, 8, 10, 10};
  EXPECT_EQ(dw.Macs(in) + pw.Macs(mid), 10ull * 10 * 8 * (9 + 16));
  // FC: N * flattened.
  FullyConnected fc("f", 100, 10);
  EXPECT_EQ(fc.Macs(Shape{1, 4, 5, 5}), 1000u);
}

TEST(Serialize, RoundTripRestoresWeights) {
  Sequential a("n"), b("n");
  for (auto* net : {&a, &b}) {
    net->Add(std::make_unique<Conv2D>("c1", 2, 4, 3, 1, Padding::kSameCeil));
    net->Add(std::make_unique<FullyConnected>("fc", 4, 2));
  }
  HeInit(a, 11);
  HeInit(b, 22);
  const std::string bytes = SerializeWeights(a);
  DeserializeWeights(b, bytes);
  // b now computes exactly what a computes.
  Tensor in(Shape{1, 2, 1, 1});
  util::Pcg32 rng(8);
  in.FillNormal(rng, 1.0f);
  EXPECT_TRUE(Tensor::AllClose(a.Forward(in), b.Forward(in), 0.0f));
}

TEST(Serialize, DetectsArchitectureMismatch) {
  Sequential a("a");
  a.Add(std::make_unique<FullyConnected>("fc", 4, 2));
  Sequential b("b");
  b.Add(std::make_unique<FullyConnected>("other", 4, 2));
  const std::string bytes = SerializeWeights(a);
  EXPECT_THROW(DeserializeWeights(b, bytes), util::CheckError);
  Sequential c("c");
  c.Add(std::make_unique<FullyConnected>("fc", 8, 2));
  EXPECT_THROW(DeserializeWeights(c, bytes), util::CheckError);
}

TEST(Serialize, RejectsGarbage) {
  Sequential a("a");
  a.Add(std::make_unique<FullyConnected>("fc", 4, 2));
  EXPECT_THROW(DeserializeWeights(a, "not a weight file"), util::CheckError);
}

TEST(HeInit, DeterministicPerLayerName) {
  Sequential a("x"), b("x");
  for (auto* net : {&a, &b}) {
    net->Add(std::make_unique<Conv2D>("c1", 2, 4, 3, 1, Padding::kSameCeil));
  }
  HeInit(a, 7);
  HeInit(b, 7);
  auto pa = a.Params()[0];
  auto pb = b.Params()[0];
  EXPECT_EQ(*pa.value, *pb.value);
  // Different seed -> different weights.
  HeInit(b, 8);
  EXPECT_NE(*pa.value, *pb.value);
}

}  // namespace
}  // namespace ff::nn
