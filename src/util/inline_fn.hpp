#pragma once
// Fixed-capacity, non-allocating alternative to std::function for the
// engine hot path.  The capture is placement-constructed into inline
// storage; a callable whose capture exceeds Capacity is rejected at compile
// time (static_assert), so the per-event allocation cost of the type-erased
// wrapper is provably zero — there is no heap fallback to silently fall
// into.
//
// Type erasure costs a single pointer: a static per-callable vtable holding
// {invoke, relocate/destroy, capture size}.  Trivially-copyable captures
// relocate with a size-bounded memcpy and skip the destructor entirely.
//
// Contract:
//   - move-only (copying a type-erased capture cheaply is not generally
//     possible without allocation, and nothing in the engine copies
//     callbacks);
//   - the wrapped callable must be nothrow-move-constructible, so that
//     container reallocation and heap surgery in the event queue stay
//     noexcept;
//   - capture alignment must not exceed alignof(void*): events capture
//     pointers, indices, doubles and Packets, all pointer-aligned, and the
//     tighter bound keeps sizeof(InlineFn) free of alignment padding.
//
// `InlineFn<Sig, N>::fits<F>` exposes the admission test so callers (and
// tests) can check a callable against the capacity contract without
// triggering the hard error.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>  // std::bad_function_call
#include <new>
#include <type_traits>
#include <utility>

namespace emcast::util {

template <typename Sig, std::size_t Capacity = 64>
class InlineFn;  // primary template undefined: use InlineFn<R(Args...), N>

namespace detail {

enum class InlineFnOp { kRelocate, kDestroy };

/// Capacity-independent vtable, keyed by signature only: InlineFn
/// instantiations of different capacities share it.
template <typename R, typename... Args>
struct InlineFnVTable {
  R (*invoke)(void*, Args&&...);
  /// nullptr for trivially-copyable/destructible captures: relocation is
  /// then a `size`-byte memcpy and destruction a no-op.
  void (*manage)(InlineFnOp, void* self, void* target);
  std::uint32_t size;  ///< bytes to relocate: 0 for an empty capture
};

template <typename Fn, typename R, typename... Args>
constexpr InlineFnVTable<R, Args...> make_inline_fn_vtable() {
  InlineFnVTable<R, Args...> vt{};
  vt.invoke = [](void* s, Args&&... args) -> R {
    Fn& fn = *std::launder(reinterpret_cast<Fn*>(s));
    if constexpr (std::is_void_v<R>) {
      // Discard a non-void result, as std::function<void(...)> does.
      fn(std::forward<Args>(args)...);
    } else {
      return fn(std::forward<Args>(args)...);
    }
  };
  if constexpr (std::is_trivially_copyable_v<Fn> &&
                std::is_trivially_destructible_v<Fn>) {
    vt.manage = nullptr;
  } else {
    vt.manage = [](InlineFnOp op, void* self, void* target) {
      Fn* fn = std::launder(reinterpret_cast<Fn*>(self));
      if (op == InlineFnOp::kRelocate) {
        ::new (target) Fn(std::move(*fn));
      }
      fn->~Fn();
    };
  }
  // An empty capture (a captureless lambda) has one byte of storage that
  // is never written: relocate it by copying nothing.
  vt.size = std::is_empty_v<Fn> ? 0 : static_cast<std::uint32_t>(sizeof(Fn));
  return vt;
}

template <typename Fn, typename R, typename... Args>
inline constexpr InlineFnVTable<R, Args...> kInlineFnVTable =
    make_inline_fn_vtable<Fn, R, Args...>();

}  // namespace detail

template <typename R, typename... Args, std::size_t Capacity>
class InlineFn<R(Args...), Capacity> {
 public:
  /// True when F can be stored: invocable with the right signature, small
  /// enough, not over-aligned, and nothrow-movable.
  template <typename F>
  static constexpr bool fits =
      std::is_invocable_r_v<R, std::decay_t<F>&, Args...> &&
      sizeof(std::decay_t<F>) <= Capacity &&
      alignof(std::decay_t<F>) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn(F&& f) {
    emplace(std::forward<F>(f));
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  InlineFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  R operator()(Args... args) {
    if (vtable_ == nullptr) throw_bad_call();  // predicted-never branch
    return vtable_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  [[noreturn]] static void throw_bad_call() { throw std::bad_function_call(); }

  using Op = detail::InlineFnOp;
  using VTable = detail::InlineFnVTable<R, Args...>;

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "InlineFn: capture too large — raise the capacity "
                  "parameter or shrink the capture (capture pointers, not "
                  "objects)");
    static_assert(alignof(Fn) <= alignof(void*),
                  "InlineFn: capture over-aligned for inline storage — "
                  "the slab is pointer-aligned");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "InlineFn: capture must be nothrow-move-constructible");
    if constexpr (std::is_pointer_v<Fn> || std::is_member_pointer_v<Fn>) {
      if (f == nullptr) return;  // null callable → empty, as std::function
    }
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    vtable_ = &detail::kInlineFnVTable<Fn, R, Args...>;
  }

  void move_from(InlineFn& other) noexcept {
    if (!other.vtable_) return;
    if (other.vtable_->manage) {
      other.vtable_->manage(Op::kRelocate, other.storage_, storage_);
    } else {
      std::memcpy(storage_, other.storage_, other.vtable_->size);
    }
    vtable_ = other.vtable_;
    other.vtable_ = nullptr;
  }

  void reset() noexcept {
    // Detach before destroying: if the capture's destructor observes this
    // InlineFn (reentrancy), it sees an empty callable, not a half-dead
    // one.
    const VTable* vt = vtable_;
    vtable_ = nullptr;
    if (vt && vt->manage) vt->manage(Op::kDestroy, storage_, nullptr);
  }

  // vtable_ leads: reading the dispatch pointer pulls the head of a small
  // capture into the same cache line, so moving/invoking a compact
  // callable touches one line instead of two.
  const VTable* vtable_ = nullptr;
  alignas(void*) unsigned char storage_[Capacity];
};

}  // namespace emcast::util
