//===- support/Cancel.h - cooperative cancellation --------------*- C++ -*-===//
///
/// \file
/// Cooperative per-task cancellation for the service stack. A
/// `CancelToken` carries a cancel flag plus an optional steady-clock
/// deadline; long-running stages poll it at named checkpoints and unwind
/// with `CancelledError` when it has expired.
///
/// Threading model: the vectorization service installs the current task's
/// token into thread-local storage (`CancelScope`) for the task's
/// duration, so the stages below it — FSM attempts, interpreter fuel
/// checks, SAT budget loops — can poll without any config plumbing (and
/// therefore without perturbing any configHash() the verdict cache and
/// persistent store key on). A task runs on its worker thread from
/// start to finish — the stage-4 cell queries included — so every
/// checkpoint sees the token; code that ever fans a task's work out to
/// helper threads must capture `currentCancelToken()` before spawning and
/// re-install it there with a `CancelScope`.
///
/// Determinism: a token that never expires makes every check a no-op, so
/// deadline-free runs are bit-identical to builds without any checks. An
/// expired token only ever converts a result into a *cancelled partial*
/// result, which the service classifies as TimedOut and never caches or
/// persists — cancellation can delay a verdict but never change one.
///
//===----------------------------------------------------------------------===//

#ifndef LV_SUPPORT_CANCEL_H
#define LV_SUPPORT_CANCEL_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

namespace lv {
namespace support {

/// Monotonic clock reading in nanoseconds (steady_clock; deadline math
/// must not move with wall-clock adjustments).
inline uint64_t steadyNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Shared cancellation state for one task. Cheap to poll (two relaxed
/// loads and a clock read only when a deadline is armed).
class CancelToken {
public:

  /// Requests cancellation explicitly (independent of any deadline).
  void requestCancel() { Cancelled.store(true, std::memory_order_relaxed); }

  /// Arms a deadline \p Nanos from now. 0 disarms.
  void setDeadlineAfter(uint64_t Nanos) {
    DeadlineNs.store(Nanos ? steadyNowNanos() + Nanos : 0,
                     std::memory_order_relaxed);
  }

  /// True once cancelled or past the armed deadline.
  bool expired() const {
    if (Cancelled.load(std::memory_order_relaxed))
      return true;
    uint64_t D = DeadlineNs.load(std::memory_order_relaxed);
    return D != 0 && steadyNowNanos() >= D;
  }

private:
  std::atomic<bool> Cancelled{false};
  std::atomic<uint64_t> DeadlineNs{0}; ///< steady nanos; 0 = no deadline.
};

/// Thrown by cooperative checkpoints when the current token has expired.
/// what() names the checkpoint, so a timed-out Outcome records where the
/// deadline landed.
class CancelledError : public std::runtime_error {
public:
  explicit CancelledError(const std::string &Where)
      : std::runtime_error("cancelled at " + Where) {}
};

namespace detail {
inline CancelToken *&tlsToken() {
  thread_local CancelToken *T = nullptr;
  return T;
}
} // namespace detail

/// The token installed for the current thread (null outside any task
/// scope — every check is then a no-op).
inline CancelToken *currentCancelToken() { return detail::tlsToken(); }

/// RAII installation of a token into the current thread. Nestable; the
/// previous token is restored on scope exit. Pass the parent's token when
/// entering a helper thread that should observe the task's deadline.
class CancelScope {
public:
  explicit CancelScope(CancelToken *T) : Prev(detail::tlsToken()) {
    detail::tlsToken() = T;
  }
  ~CancelScope() { detail::tlsToken() = Prev; }
  CancelScope(const CancelScope &) = delete;
  CancelScope &operator=(const CancelScope &) = delete;

private:
  CancelToken *Prev;
};

/// True when the current thread's token (if any) has expired.
inline bool cancelRequested() {
  CancelToken *T = currentCancelToken();
  return T && T->expired();
}

/// Named cooperative checkpoint: unwinds with CancelledError when the
/// current token has expired.
inline void throwIfCancelled(const char *Where) {
  if (cancelRequested())
    throw CancelledError(Where);
}

/// Sleeps ~\p Nanos in short slices, aborting with CancelledError the
/// moment the current token expires — so injected latency and retry
/// backoff can never hold a worker past its task deadline by more than
/// one slice.
inline void cancellableSleepNanos(uint64_t Nanos, const char *Where) {
  constexpr uint64_t SliceNs = 2'000'000; // 2 ms granularity
  uint64_t End = steadyNowNanos() + Nanos;
  for (;;) {
    throwIfCancelled(Where);
    uint64_t Now = steadyNowNanos();
    if (Now >= End)
      return;
    uint64_t Left = End - Now;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(Left < SliceNs ? Left : SliceNs));
  }
}

} // namespace support
} // namespace lv

#endif // LV_SUPPORT_CANCEL_H
