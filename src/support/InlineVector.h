//===- InlineVector.h - Small-buffer vector for trivial types --------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal small-buffer vector for trivially copyable element types. The
/// IR's event-index lists (rank <= 4 in every kernel the compiler emits)
/// live in structures that the passes copy and splice constantly; keeping
/// them inline removes a heap allocation per reference. The API is the
/// std::vector subset those structures use, with one deliberate match to
/// libstdc++ behavior the compiler relies on: a moved-from InlineVector is
/// empty.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_SUPPORT_INLINEVECTOR_H
#define CYPRESS_SUPPORT_INLINEVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace cypress {

template <typename T, unsigned InlineN> class InlineVector {
  static_assert(std::is_trivially_copyable<T>::value,
                "InlineVector is specialized for trivially copyable types");

public:
  InlineVector() = default;

  InlineVector(const InlineVector &Other) { assignFrom(Other); }

  InlineVector &operator=(const InlineVector &Other) {
    if (this != &Other) {
      Sz = 0;
      assignFrom(Other);
    }
    return *this;
  }

  InlineVector(InlineVector &&Other) noexcept { stealFrom(Other); }

  InlineVector &operator=(InlineVector &&Other) noexcept {
    if (this != &Other) {
      releaseHeap();
      stealFrom(Other);
    }
    return *this;
  }

  ~InlineVector() { releaseHeap(); }

  using iterator = T *;
  using const_iterator = const T *;

  T *begin() { return data(); }
  T *end() { return data() + Sz; }
  const T *begin() const { return data(); }
  const T *end() const { return data() + Sz; }

  size_t size() const { return Sz; }
  bool empty() const { return Sz == 0; }

  T &operator[](size_t Index) {
    assert(Index < Sz && "index out of range");
    return data()[Index];
  }
  const T &operator[](size_t Index) const {
    assert(Index < Sz && "index out of range");
    return data()[Index];
  }

  void clear() { Sz = 0; }

  bool operator==(const InlineVector &Other) const {
    return Sz == Other.Sz && std::equal(begin(), end(), Other.begin());
  }

  void pop_back() {
    assert(Sz > 0 && "pop_back on an empty vector");
    --Sz;
  }

  void push_back(const T &Value) {
    grow(Sz + 1);
    data()[Sz++] = Value;
  }

  /// Replaces the contents with [First, Last) (bridges from std::vector
  /// call sites).
  template <typename It> void assign(It First, It Last) {
    Sz = 0;
    grow(static_cast<size_t>(Last - First));
    for (It Cur = First; Cur != Last; ++Cur)
      data()[Sz++] = *Cur;
  }

  /// Inserts \p Value before \p Pos (typically begin(): vectorization
  /// prepends the flattened processor index).
  iterator insert(const_iterator Pos, const T &Value) {
    size_t Index = static_cast<size_t>(Pos - data());
    grow(Sz + 1);
    T *Base = data();
    std::memmove(Base + Index + 1, Base + Index, (Sz - Index) * sizeof(T));
    Base[Index] = Value;
    ++Sz;
    return Base + Index;
  }

private:
  T *data() { return Heap ? Heap : inlineData(); }
  const T *data() const { return Heap ? Heap : inlineData(); }

  void grow(size_t Needed) {
    if (Needed <= Cap)
      return;
    uint32_t NewCap = Cap * 2 < Needed ? static_cast<uint32_t>(Needed)
                                       : Cap * 2;
    // Raw storage: T may have a non-trivial default constructor (it is
    // only required to be trivially *copyable*), so elements materialize
    // exclusively via memcpy from live objects.
    T *NewHeap = static_cast<T *>(::operator new(NewCap * sizeof(T)));
    std::memcpy(static_cast<void *>(NewHeap), data(), Sz * sizeof(T));
    releaseHeap();
    Heap = NewHeap;
    Cap = NewCap;
  }

  void assignFrom(const InlineVector &Other) {
    grow(Other.Sz);
    std::memcpy(data(), Other.data(), Other.Sz * sizeof(T));
    Sz = Other.Sz;
  }

  void stealFrom(InlineVector &Other) {
    if (Other.Heap) {
      Heap = Other.Heap;
      Cap = Other.Cap;
      Sz = Other.Sz;
      Other.Heap = nullptr;
      Other.Cap = InlineN;
    } else {
      Heap = nullptr;
      Cap = InlineN;
      Sz = Other.Sz;
      std::memcpy(Storage, Other.Storage, Other.Sz * sizeof(T));
    }
    Other.Sz = 0; // Moved-from is empty, matching std::vector in practice.
  }

  void releaseHeap() {
    if (!Heap)
      return; // The common inline case: no call into the allocator.
    ::operator delete(Heap);
    Heap = nullptr;
    Cap = InlineN;
  }

  T *inlineData() { return reinterpret_cast<T *>(Storage); }
  const T *inlineData() const {
    return reinterpret_cast<const T *>(Storage);
  }

  alignas(T) unsigned char Storage[sizeof(T) * InlineN];
  T *Heap = nullptr;
  uint32_t Sz = 0;
  uint32_t Cap = InlineN;
};

} // namespace cypress

#endif // CYPRESS_SUPPORT_INLINEVECTOR_H
