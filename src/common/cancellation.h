// Cooperative cancellation for long-running mining work.
//
// A CancelToken combines an explicit cancel flag (set by a watcher
// thread, e.g. on client disconnect or daemon drain) with an optional
// steady-clock deadline. Work loops poll Fired() every few hundred
// transactions (count shards, scan cells) or every
// kCancelPollCandidates candidates (the driver's subset filter and
// cell evaluation), and between cells and stages; an un-fired token is
// a single relaxed atomic load (plus one clock read when a deadline is
// set), so plumbing a token through a run is byte-identity-preserving
// and near-free. A fired token makes the pipeline unwind through the
// normal error path: futures are joined, pooled scratch returns to its
// pool, and the caller sees Status::DeadlineExceeded or
// Status::Cancelled.
//
// Thread-safety: SetDeadline()/ChainTo() configure the token and must
// happen-before the token is shared with workers (they write plain
// fields). Cancel() and Fired() are safe from any thread at any time.

#ifndef FLIPPER_COMMON_CANCELLATION_H_
#define FLIPPER_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace flipper {

/// Candidates a driver-side per-candidate loop handles between two
/// cancellation polls.
inline constexpr size_t kCancelPollCandidates = 1024;

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Fires the token explicitly. Idempotent; safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms the deadline. Call before sharing the token with workers.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void SetDeadlineAfterMs(int64_t ms) {
    SetDeadline(std::chrono::steady_clock::now() +
                std::chrono::milliseconds(ms));
  }

  /// Links this token to a parent: this token fires whenever the
  /// parent does (used for daemon-wide drain). Call before sharing.
  void ChainTo(const CancelToken* parent) { parent_ = parent; }

  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  /// True once the token has been cancelled (directly or via a parent)
  /// or its deadline has passed. Cheap enough for inner scan loops.
  bool Fired() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (parent_ != nullptr && parent_->Fired()) return true;
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  /// OK while un-fired; Cancelled for an explicit cancel,
  /// DeadlineExceeded when only the deadline has passed.
  Status ToStatus() const;

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  const CancelToken* parent_ = nullptr;
};

}  // namespace flipper

#endif  // FLIPPER_COMMON_CANCELLATION_H_
