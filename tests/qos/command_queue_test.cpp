// Tests for the server→shard handoff queue: FIFO drain order, push-observed
// depth, the close contract (refuse new pushes, drain what was admitted,
// wake the parked consumer), and a multi-producer stress run
// (FIFO-per-producer and no-loss under contention — the sanitizer CI legs
// run this binary).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "qos/command_queue.h"

namespace tprm::qos {
namespace {

using Item = std::uint64_t;

// Drains everything currently in the queue without parking.
std::vector<Item> drainAll(CommandQueue<Item>& queue) {
  std::vector<Item> out;
  while (queue.approxDepth() > 0) queue.drainUpTo(16, &out);
  return out;
}

TEST(CommandQueue, DrainsInPushOrder) {
  CommandQueue<Item> queue;
  for (Item i = 0; i < 10; ++i) {
    EXPECT_EQ(queue.push(i).status, QueuePush::Ok);
  }
  EXPECT_EQ(queue.approxDepth(), 10u);
  const auto drained = drainAll(queue);
  ASSERT_EQ(drained.size(), 10u);
  for (Item i = 0; i < 10; ++i) EXPECT_EQ(drained[i], i);
  EXPECT_EQ(queue.approxDepth(), 0u);
}

TEST(CommandQueue, PushDepthSeesEveryPeak) {
  // The gauge-undercount fix: the depth reported by push() itself must
  // reflect this push, so a consumer draining whole batches between
  // samples cannot hide the peak.
  CommandQueue<Item> queue;
  std::size_t maxSeen = 0;
  for (Item i = 0; i < 5; ++i) {
    const auto result = queue.push(i);
    if (result.depth > maxSeen) maxSeen = result.depth;
  }
  EXPECT_EQ(maxSeen, 5u);
}

TEST(CommandQueue, CloseRefusesPushesButDrainsRemainder) {
  CommandQueue<Item> queue;
  EXPECT_EQ(queue.push(1).status, QueuePush::Ok);
  EXPECT_EQ(queue.push(2).status, QueuePush::Ok);
  queue.close();
  EXPECT_EQ(queue.push(3).status, QueuePush::Closed);
  // Everything admitted before the close is still there, and once it is
  // gone a drain returns 0 instead of parking.
  std::vector<Item> drained;
  while (queue.drainUpTo(1, &drained) > 0) {
  }
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], 1u);
  EXPECT_EQ(drained[1], 2u);
}

TEST(CommandQueue, CloseWakesParkedConsumer) {
  CommandQueue<Item> queue;
  std::atomic<bool> woke{false};
  std::size_t drained = 99;
  std::thread consumer([&] {
    std::vector<Item> out;
    drained = queue.drainUpTo(8, &out);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  queue.close();
  consumer.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(drained, 0u);
}

TEST(CommandQueue, MultiProducerStressKeepsFifoPerProducerAndLosesNothing) {
  // N producers race bursts at one consumer.  Per-producer FIFO and no-loss
  // are exactly the invariants the server's replay identity rests on.
  constexpr int kProducers = 4;
  constexpr Item kOps = 2000;
  CommandQueue<Item> queue;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (Item seq = 0; seq < kOps; ++seq) {
        const Item item = (static_cast<Item>(p) << 32) | seq;
        const auto result = queue.push(item);
        ASSERT_EQ(result.status, QueuePush::Ok);
        if (result.depth >= 512) std::this_thread::yield();
      }
    });
  }

  std::vector<Item> nextSeq(kProducers, 0);
  Item consumed = 0;
  std::thread consumer([&] {
    std::vector<Item> batch;
    while (queue.drainUpTo(32, &batch) > 0) {
      for (const Item item : batch) {
        const auto producer = static_cast<std::size_t>(item >> 32);
        const Item seq = item & 0xffffffffu;
        ASSERT_EQ(seq, nextSeq[producer]) << "producer " << producer;
        ++nextSeq[producer];
        ++consumed;
      }
      batch.clear();
    }
  });

  for (auto& thread : producers) thread.join();
  queue.close();
  consumer.join();
  EXPECT_EQ(consumed, static_cast<Item>(kProducers) * kOps);
  EXPECT_EQ(queue.approxDepth(), 0u);
}

}  // namespace
}  // namespace tprm::qos
