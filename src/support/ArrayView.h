//===- ArrayView.h - Non-owning views of arrays and callables --------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameter types for calls that use their argument before returning, as
/// the task-body recording API does. ArrayView<T> (pointer and length)
/// binds to a braced list, a std::vector, or an InlineVector, so
/// `Ctx.launch("t", {A, B})` builds no vector. FunctionRef<R(Args...)>
/// refers to a callable without copying it, so handing a capturing lambda
/// to srange/prange never allocates the way a std::function may. Neither
/// may outlive what it refers to.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_SUPPORT_ARRAYVIEW_H
#define CYPRESS_SUPPORT_ARRAYVIEW_H

#include "support/InlineVector.h"

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

namespace cypress {

template <typename T> class ArrayView {
public:
  ArrayView() = default;
  // A braced list lives until the end of the full expression, which spans
  // the call taking the view; GCC cannot see that.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
#endif
  ArrayView(std::initializer_list<T> List)
      : Data(List.begin()), Size(List.size()) {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  ArrayView(const std::vector<T> &Vec) : Data(Vec.data()), Size(Vec.size()) {}
  template <unsigned N>
  ArrayView(const InlineVector<T, N> &Vec)
      : Data(Vec.begin()), Size(Vec.size()) {}

  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  const T &operator[](size_t Index) const {
    assert(Index < Size && "index out of range");
    return Data[Index];
  }

private:
  const T *Data = nullptr;
  size_t Size = 0;
};

template <typename Fn> class FunctionRef;

template <typename Ret, typename... Params> class FunctionRef<Ret(Params...)> {
public:
  template <typename Callable,
            typename = std::enable_if_t<!std::is_same<
                std::remove_cv_t<std::remove_reference_t<Callable>>,
                FunctionRef>::value>>
  FunctionRef(Callable &&C)
      : Callback(&call<std::remove_reference_t<Callable>>),
        Target(reinterpret_cast<intptr_t>(&C)) {}

  Ret operator()(Params... Args) const {
    return Callback(Target, std::forward<Params>(Args)...);
  }

private:
  template <typename Callable>
  static Ret call(intptr_t Target, Params... Args) {
    return (*reinterpret_cast<Callable *>(Target))(
        std::forward<Params>(Args)...);
  }

  Ret (*Callback)(intptr_t, Params...);
  intptr_t Target;
};

} // namespace cypress

#endif // CYPRESS_SUPPORT_ARRAYVIEW_H
