//===- Shape.h - Tensor shapes and element types --------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-dimensional shapes and element types for Cypress's first-class
/// tensors (Section 3.2). Shapes are dense and row-major throughout; layout
/// control (Section 3.3) is modeled at the allocation level.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_TENSOR_SHAPE_H
#define CYPRESS_TENSOR_SHAPE_H

#include "support/InlineVector.h"

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace cypress {

/// Element types usable in tensors. FP16 is stored as FP32 host values that
/// are quantized through binary16 on every store (see support/Fp16.h).
enum class ElementType : uint8_t {
  F16,
  F32,
};

inline const char *elementTypeName(ElementType Type) {
  return Type == ElementType::F16 ? "f16" : "f32";
}

inline int64_t elementTypeBytes(ElementType Type) {
  return Type == ElementType::F16 ? 2 : 4;
}

/// A dense, row-major tensor shape. Dimensions live inline up to rank 4
/// (every shipped tensor): the compiler builds a shape for every tensor,
/// partition and slice it touches, so none of them costs an allocation.
class Shape {
public:
  using DimList = InlineVector<int64_t, 4>;

  Shape() = default;
  Shape(std::initializer_list<int64_t> Dims) {
    this->Dims.assign(Dims.begin(), Dims.end());
    checkDims();
  }
  explicit Shape(const std::vector<int64_t> &Dims) {
    this->Dims.assign(Dims.begin(), Dims.end());
    checkDims();
  }

  unsigned rank() const { return Dims.size(); }
  int64_t dim(unsigned I) const {
    assert(I < Dims.size() && "shape dimension out of range");
    return Dims[I];
  }
  const DimList &dims() const { return Dims; }

  int64_t numElements() const {
    int64_t Count = 1;
    for (int64_t D : Dims)
      Count *= D;
    return Count;
  }

  /// Row-major linear offset of \p Index.
  int64_t linearize(const std::vector<int64_t> &Index) const {
    assert(Index.size() == Dims.size() && "index rank mismatch");
    int64_t Offset = 0;
    for (unsigned I = 0, E = Dims.size(); I != E; ++I) {
      assert(Index[I] >= 0 && Index[I] < Dims[I] && "index out of bounds");
      Offset = Offset * Dims[I] + Index[I];
    }
    return Offset;
  }

  /// Inverse of linearize.
  std::vector<int64_t> delinearize(int64_t Offset) const {
    std::vector<int64_t> Index(Dims.size(), 0);
    for (unsigned I = Dims.size(); I-- > 0;) {
      Index[I] = Offset % Dims[I];
      Offset /= Dims[I];
    }
    return Index;
  }

  bool operator==(const Shape &Other) const { return Dims == Other.Dims; }
  bool operator!=(const Shape &Other) const { return !(*this == Other); }

  std::string toString() const {
    std::string Result = "[";
    for (unsigned I = 0, E = Dims.size(); I != E; ++I) {
      if (I != 0)
        Result += ", ";
      Result += std::to_string(Dims[I]);
    }
    return Result + "]";
  }

private:
  void checkDims() const {
    for ([[maybe_unused]] int64_t D : Dims)
      assert(D > 0 && "shape dimensions must be positive");
  }

  DimList Dims;
};

/// A logical tensor type: shape plus element type.
struct TensorType {
  Shape Dims;
  ElementType Element = ElementType::F16;

  int64_t sizeBytes() const {
    return Dims.numElements() * elementTypeBytes(Element);
  }

  bool operator==(const TensorType &Other) const {
    return Dims == Other.Dims && Element == Other.Element;
  }

  std::string toString() const {
    return std::string(elementTypeName(Element)) + Dims.toString();
  }
};

} // namespace cypress

#endif // CYPRESS_TENSOR_SHAPE_H
