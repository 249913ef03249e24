// Unit tests for ff::tensor — shapes, element access, crops, concat, stack.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/tensor.hpp"
#include "tensor/tensor_view.hpp"
#include "util/check.hpp"

namespace ff::tensor {
namespace {

TEST(Shape, ElementArithmetic) {
  const Shape s{2, 3, 4, 5};
  EXPECT_EQ(s.elements(), 120);
  EXPECT_EQ(s.per_image(), 60);
  EXPECT_EQ(s.plane(), 20);
}

TEST(Shape, EqualityAndToString) {
  EXPECT_EQ((Shape{1, 2, 3, 4}), (Shape{1, 2, 3, 4}));
  EXPECT_NE((Shape{1, 2, 3, 4}), (Shape{1, 2, 4, 3}));
  EXPECT_EQ((Shape{1, 2, 3, 4}).ToString(), "[1,2,3,4]");
}

TEST(Rect, Geometry) {
  const Rect r{1, 2, 4, 7};
  EXPECT_EQ(r.height(), 3);
  EXPECT_EQ(r.width(), 5);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE((Rect{2, 2, 2, 5}).empty());
}

TEST(Tensor, ConstructFillAndAccess) {
  Tensor t(Shape{1, 2, 3, 4}, 1.5f);
  EXPECT_EQ(t.elements(), 24);
  EXPECT_FLOAT_EQ(t.at(0, 1, 2, 3), 1.5f);
  t.at(0, 1, 2, 3) = 9.0f;
  EXPECT_FLOAT_EQ(t.at(0, 1, 2, 3), 9.0f);
  EXPECT_FLOAT_EQ(t.Max(), 9.0f);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t(Shape{1, 1, 2, 2});
  EXPECT_THROW(t.at(0, 0, 2, 0), util::CheckError);
  EXPECT_THROW(t.at(0, 1, 0, 0), util::CheckError);
}

TEST(Tensor, NchwLayoutIsRowMajorContiguous) {
  Tensor t(Shape{1, 2, 2, 3});
  for (std::int64_t c = 0; c < 2; ++c) {
    for (std::int64_t y = 0; y < 2; ++y) {
      for (std::int64_t x = 0; x < 3; ++x) {
        t.at(0, c, y, x) = static_cast<float>(c * 100 + y * 10 + x);
      }
    }
  }
  // plane(0, 1) should point at channel 1's 6 contiguous values.
  const float* p = t.plane(0, 1);
  EXPECT_FLOAT_EQ(p[0], 100.0f);
  EXPECT_FLOAT_EQ(p[5], 112.0f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor::FromData(Shape{1, 1, 1, 3}, {1, 2, 3}));
  EXPECT_THROW(Tensor::FromData(Shape{1, 1, 1, 4}, {1, 2, 3}),
               util::CheckError);
}

TEST(Tensor, CropHWExtractsExactRegion) {
  Tensor t(Shape{1, 2, 4, 4});
  for (std::int64_t c = 0; c < 2; ++c) {
    for (std::int64_t y = 0; y < 4; ++y) {
      for (std::int64_t x = 0; x < 4; ++x) {
        t.at(0, c, y, x) = static_cast<float>(c * 1000 + y * 10 + x);
      }
    }
  }
  const Tensor crop = t.CropHW(Rect{1, 2, 3, 4});
  EXPECT_EQ(crop.shape(), (Shape{1, 2, 2, 2}));
  EXPECT_FLOAT_EQ(crop.at(0, 0, 0, 0), 12.0f);
  EXPECT_FLOAT_EQ(crop.at(0, 0, 1, 1), 23.0f);
  EXPECT_FLOAT_EQ(crop.at(0, 1, 0, 0), 1012.0f);
}

TEST(Tensor, CropHWRejectsOutOfRange) {
  Tensor t(Shape{1, 1, 4, 4});
  EXPECT_THROW(t.CropHW(Rect{0, 0, 5, 4}), util::CheckError);
  EXPECT_THROW(t.CropHW(Rect{2, 2, 2, 4}), util::CheckError);  // empty
}

TEST(Tensor, ConcatChannelsPreservesOrderAndData) {
  Tensor a(Shape{1, 1, 2, 2}, 1.0f);
  Tensor b(Shape{1, 2, 2, 2}, 2.0f);
  const Tensor* parts[] = {&a, &b};
  const Tensor cat = Tensor::ConcatChannels(parts);
  EXPECT_EQ(cat.shape(), (Shape{1, 3, 2, 2}));
  EXPECT_FLOAT_EQ(cat.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(cat.at(0, 1, 1, 1), 2.0f);
  EXPECT_FLOAT_EQ(cat.at(0, 2, 0, 1), 2.0f);
}

TEST(Tensor, ConcatChannelsRejectsMismatchedSpatial) {
  Tensor a(Shape{1, 1, 2, 2});
  Tensor b(Shape{1, 1, 2, 3});
  const Tensor* parts[] = {&a, &b};
  EXPECT_THROW(Tensor::ConcatChannels(parts), util::CheckError);
}

TEST(Tensor, SliceAndStackRoundTrip) {
  Tensor t(Shape{3, 2, 2, 2});
  util::Pcg32 rng(4);
  t.FillNormal(rng, 1.0f);
  const Tensor s0 = t.Slice(0), s1 = t.Slice(1), s2 = t.Slice(2);
  const Tensor* parts[] = {&s0, &s1, &s2};
  const Tensor restacked = Tensor::Stack(parts);
  EXPECT_TRUE(Tensor::AllClose(t, restacked, 0.0f));
}

TEST(Tensor, ReshapedPreservesDataChecksCount) {
  Tensor t(Shape{2, 3, 1, 1});
  t.at(1, 2, 0, 0) = 5.0f;
  const Tensor r = t.Reshaped(Shape{1, 6, 1, 1});
  EXPECT_FLOAT_EQ(r.at(0, 5, 0, 0), 5.0f);
  EXPECT_THROW(t.Reshaped(Shape{1, 7, 1, 1}), util::CheckError);
}

TEST(Tensor, WindowPackLayoutEquivalence) {
  // The windowed MC depends on this: concat-by-channel of W batch-adjacent
  // maps is byte-identical to reshaping the (W, C, H, Wd) batch.
  util::Pcg32 rng(9);
  Tensor batch(Shape{5, 4, 3, 2});
  batch.FillNormal(rng, 1.0f);
  std::vector<Tensor> slices;
  std::vector<const Tensor*> parts;
  for (std::int64_t i = 0; i < 5; ++i) slices.push_back(batch.Slice(i));
  for (const auto& s : slices) parts.push_back(&s);
  const Tensor cat = Tensor::ConcatChannels(parts);
  const Tensor reshaped = batch.Reshaped(Shape{1, 20, 3, 2});
  EXPECT_TRUE(Tensor::AllClose(cat, reshaped, 0.0f));
}

TEST(Tensor, ReductionsAndComparisons) {
  Tensor t(Shape{1, 1, 1, 4});
  t.at(0, 0, 0, 0) = -3.0f;
  t.at(0, 0, 0, 1) = 1.0f;
  t.at(0, 0, 0, 2) = 2.0f;
  t.at(0, 0, 0, 3) = 0.0f;
  EXPECT_FLOAT_EQ(t.MaxAbs(), 3.0f);
  EXPECT_FLOAT_EQ(t.Min(), -3.0f);
  EXPECT_DOUBLE_EQ(t.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(t.Mean(), 0.0);

  Tensor u = t;
  EXPECT_TRUE(Tensor::AllClose(t, u));
  u.at(0, 0, 0, 0) += 1e-3f;
  EXPECT_FALSE(Tensor::AllClose(t, u, 1e-5f));
  EXPECT_NEAR(Tensor::MaxAbsDiff(t, u), 1e-3f, 1e-6f);
}

TEST(Tensor, FillUniformWithinBounds) {
  util::Pcg32 rng(3);
  Tensor t(Shape{1, 1, 10, 10});
  t.FillUniform(rng, -0.5f, 0.5f);
  EXPECT_GE(t.Min(), -0.5f);
  EXPECT_LT(t.Max(), 0.5f);
}

TEST(Tensor, UninitializedHasShapeAndPoisonsDebugBuilds) {
  const Tensor t = Tensor::Uninitialized(Shape{2, 3, 5, 7});
  EXPECT_EQ(t.shape(), (Shape{2, 3, 5, 7}));
  EXPECT_EQ(static_cast<std::int64_t>(t.flat().size()), 2 * 3 * 5 * 7);
#ifndef NDEBUG
  for (const float v : t.flat()) ASSERT_TRUE(std::isnan(v));
#endif
}

// The copy helpers allocate their results uninitialised: each must write
// every element (a Debug build would leave NaN behind otherwise).
TEST(Tensor, CopyHelpersWriteEveryElement) {
  util::Pcg32 rng(5);
  Tensor t(Shape{3, 5, 7, 9});
  t.FillNormal(rng, 1.0f);
  auto expect_finite = [](const Tensor& x, const char* what) {
    for (const float v : x.flat()) {
      ASSERT_FALSE(std::isnan(v)) << what;
    }
  };
  const Tensor crop = t.CropHW(Rect{1, 2, 6, 7});
  expect_finite(crop, "CropHW");
  EXPECT_FLOAT_EQ(crop.at(2, 4, 4, 4), t.at(2, 4, 5, 6));
  const Tensor* parts[] = {&t, &t};
  expect_finite(Tensor::ConcatChannels(parts), "ConcatChannels");
  const Tensor s2 = t.Slice(2);
  expect_finite(s2, "Slice");
  const Tensor* images[] = {&s2, &s2, &s2};
  expect_finite(Tensor::Stack(images), "Stack");
  const Tensor dense = TensorView(t).Materialize();
  expect_finite(dense, "Materialize dense");
  const Tensor strided =
      TensorView(t).CropHW(Rect{1, 2, 6, 7}).Materialize();
  expect_finite(strided, "Materialize cropped");
  EXPECT_TRUE(Tensor::AllClose(strided, crop, 0.0f));
}

}  // namespace
}  // namespace ff::tensor
