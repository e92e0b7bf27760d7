// The server→shard command handoff queue.
//
// The negotiation server hands decoded commands from its event loops to the
// per-shard worker threads through one queue per shard: a mutex-guarded
// deque plus one condition variable that parks the shard's worker.  Two
// invariants carry record→replay decision identity:
//
//   1. Push order == arrivalSeq order.  The server draws the sequence number
//      and pushes under one lock (seqMutex_), so the queue sees commands in
//      arrivalSeq order.
//   2. Drain order == push order, and each queue has exactly one consumer
//      (its shard's worker), so per-shard commands execute in arrivalSeq
//      order.
//
// Close contract: close() marks the queue closed and wakes the parked
// consumer.  Pushes after close() return Closed and commit nothing; drains
// after close() keep returning the remaining items until the queue is empty,
// so nothing admitted is ever lost.  Callers that push concurrently with
// close() must serialise the two externally (the server does: close happens
// under the same lock that guards every push).
//
// The queue is unbounded: a push never refuses an open queue.  Backpressure
// is the producer's call — the server refuses v2 commands against its own
// capacity before it draws a sequence number (NegotiationServer::enqueue).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace tprm::qos {

/// Outcome of a push.
enum class QueuePush {
  Ok,      // admitted
  Closed,  // queue closed; nothing committed
};

struct QueuePushResult {
  QueuePush status = QueuePush::Ok;
  /// Depth immediately after this push committed (or the depth observed at
  /// a closed queue).  Sampled before push() returns so gauges see every
  /// peak — a consumer draining whole batches between samples cannot hide
  /// one.
  std::size_t depth = 0;
};

/// Multi-producer, single-consumer FIFO.  Producers call push() from any
/// thread; exactly one thread drains.
template <typename T>
class CommandQueue {
 public:
  CommandQueue() = default;

  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;

  /// Non-blocking push.
  QueuePushResult push(T item) {
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return {QueuePush::Closed, items_.size()};
      items_.push_back(std::move(item));
      depth = items_.size();
      depthMirror_.store(depth, std::memory_order_relaxed);
    }
    notEmpty_.notify_one();
    return {QueuePush::Ok, depth};
  }

  /// Parks until the queue is non-empty or closed, then moves up to `max`
  /// items FIFO into `out` (appended).  Returns 0 only once the queue is
  /// closed and empty.
  std::size_t drainUpTo(std::size_t max, std::vector<T>* out) {
    std::unique_lock<std::mutex> lock(mu_);
    notEmpty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    std::size_t n = 0;
    while (n < max && !items_.empty()) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
      ++n;
    }
    depthMirror_.store(items_.size(), std::memory_order_relaxed);
    return n;
  }

  /// Marks the queue closed and wakes the parked consumer.  Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    notEmpty_.notify_all();
  }

  /// Lock-free depth snapshot; exact when producers are externally
  /// serialised, which they are in the server (seqMutex_).
  [[nodiscard]] std::size_t approxDepth() const {
    return depthMirror_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::condition_variable notEmpty_;
  std::deque<T> items_;  // guarded by mu_
  bool closed_ = false;  // guarded by mu_
  std::atomic<std::size_t> depthMirror_{0};
};

}  // namespace tprm::qos
