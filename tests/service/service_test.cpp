// Loopback integration tests for the negotiation service: a real
// NegotiationServer on a private Unix socket (or TCP loopback), real
// QoSAgentClient connections, real frames.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "qos/qos.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "taskmodel/spec_io.h"

namespace tprm::service {
namespace {

using namespace std::chrono_literals;

int gSocketCounter = 0;

std::string freshSocketPath() {
  return "/tmp/tprm-svc-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(gSocketCounter++) + ".sock";
}

ServerConfig unixConfig(int processors) {
  ServerConfig config;
  config.processors = processors;
  config.unixPath = freshSocketPath();
  return config;
}

ClientConfig clientFor(const NegotiationServer& server) {
  ClientConfig config;
  config.unixPath = server.unixPath();
  return config;
}

/// A small tunable job whose shape depends on `salt`, so concurrent
/// submissions contend in varied ways.  All chains fit an 8-processor
/// machine in isolation; under load some submissions get rejected, which is
/// exactly what the equivalence test wants to reproduce.
task::TunableJobSpec makeSpec(int salt) {
  task::TunableJobSpec spec;
  spec.name = "job-" + std::to_string(salt);
  const int wide = 2 + (salt % 4);             // 2..5 processors
  const double dur = 10.0 + (salt % 7) * 5.0;  // 10..40 units
  task::Chain eager;
  eager.name = "eager";
  eager.bindings = {{"level", salt % 3}};
  eager.tasks = {
      task::TaskSpec::rigid("burst", wide, ticksFromUnits(dur),
                            ticksFromUnits(60.0)),
  };
  task::Chain lean;
  lean.name = "lean";
  lean.bindings = {{"level", 9}};
  lean.tasks = {
      task::TaskSpec::rigid("burst", 1, ticksFromUnits(dur * 1.5),
                            ticksFromUnits(90.0), /*quality=*/0.6),
  };
  spec.chains = {eager, lean};
  return spec;
}

TEST(Service, NegotiateCancelStatsVerifyOverUnixSocket) {
  NegotiationServer server(unixConfig(16));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  QoSAgentClient client(clientFor(server));
  const auto decision = client.negotiate(makeSpec(1), /*release=*/0);
  ASSERT_TRUE(decision.ok()) << decision.error.message;
  EXPECT_TRUE(decision->admitted);
  EXPECT_EQ(decision->chainIndex, 0u);  // machine is empty: best chain wins
  EXPECT_FALSE(decision->placements.empty());
  EXPECT_EQ(decision->bindings.at("level"), 1);

  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->processors, 16);
  EXPECT_EQ(stats->admitted, 1u);

  const auto cancelled = client.cancel(decision->jobId);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_GT(cancelled->freedTicks, 0);

  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

TEST(Service, NegotiateOverTcpLoopback) {
  ServerConfig config;
  config.processors = 8;
  config.tcpPort = 0;  // ephemeral
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.tcpPort(), 0);

  ClientConfig clientConfig;
  clientConfig.tcpPort = server.tcpPort();
  QoSAgentClient client(clientConfig);
  const auto decision = client.negotiate(makeSpec(3), 0);
  ASSERT_TRUE(decision.ok()) << decision.error.message;
  EXPECT_TRUE(decision->admitted);
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok);
  server.stop();
}

TEST(Service, ResizeAcrossTheWire) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  QoSAgentClient client(clientFor(server));
  ASSERT_TRUE(client.negotiate(makeSpec(2), 0).ok());

  const auto grown = client.resize(12, /*when=*/0);
  ASSERT_TRUE(grown.ok()) << grown.error.message;
  EXPECT_EQ(grown->processorsBefore, 8);
  EXPECT_EQ(grown->processorsAfter, 12);
  EXPECT_TRUE(grown->dropped.empty());  // growing never drops

  const auto bad = client.resize(0, 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error.status, ClientStatus::ServerError);
  EXPECT_EQ(bad.error.code, "bad_request");

  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

// The tentpole acceptance test: N concurrent clients against the service
// produce exactly the decisions of the in-process arbitrator replayed in
// the server's stamped arrival order.
TEST(Service, ConcurrentClientsMatchInProcessReplayInArrivalOrder) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  const int processors = 8;

  NegotiationServer server(unixConfig(processors));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  struct Observed {
    task::TunableJobSpec spec;
    NegotiateResult result;
  };
  std::vector<std::vector<Observed>> perClient(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      QoSAgentClient client(clientFor(server));
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const auto spec = makeSpec(c * kRequestsPerClient + r);
        const auto decision = client.negotiate(spec, /*release=*/0);
        ASSERT_TRUE(decision.ok()) << decision.error.message;
        perClient[static_cast<std::size_t>(c)].push_back({spec, *decision});
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Flatten and order by the server-stamped arrival sequence.
  std::vector<const Observed*> byArrival;
  for (const auto& observations : perClient) {
    for (const auto& observed : observations) {
      byArrival.push_back(&observed);
    }
  }
  ASSERT_EQ(byArrival.size(),
            static_cast<std::size_t>(kClients * kRequestsPerClient));
  std::sort(byArrival.begin(), byArrival.end(),
            [](const Observed* a, const Observed* b) {
              return a->result.arrivalSeq < b->result.arrivalSeq;
            });
  // Sequence numbers are dense: one per executed command, no gaps.
  for (std::size_t i = 0; i < byArrival.size(); ++i) {
    EXPECT_EQ(byArrival[i]->result.arrivalSeq, i);
  }

  // Replay into a fresh in-process arbitrator in that order: every decision
  // must match exactly (admission, chain, quality, placements, job ids).
  qos::QoSArbitrator replay(processors);
  for (const auto* observed : byArrival) {
    const auto decision =
        replay.submit(observed->spec, observed->result.release);
    ASSERT_EQ(replay.lastJobId().value(), observed->result.jobId);
    ASSERT_EQ(decision.admitted, observed->result.admitted)
        << "arrivalSeq " << observed->result.arrivalSeq;
    if (decision.admitted) {
      EXPECT_EQ(decision.schedule.chainIndex, observed->result.chainIndex);
      EXPECT_EQ(decision.quality, observed->result.quality);
      EXPECT_EQ(decision.schedule.placements, observed->result.placements);
    }
  }
  const auto replayReport = replay.verify();
  EXPECT_TRUE(replayReport.ok) << replayReport.firstViolation;

  // Under 8-way contention on an 8-processor machine some submissions must
  // have been rejected, or the test exercised nothing.
  QoSAgentClient client(clientFor(server));
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->admitted, 0u);
  EXPECT_GT(stats->rejected, 0u);
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

// The pipelined (wire v2) twin of the equivalence test above: 8 clients,
// each with a window of in-flight negotiations on one connection, must
// still produce exactly the in-process arbitrator's decisions when replayed
// in stamped arrival order.  Run under TSan this also pins the event-loop /
// worker / client-reader handoffs as race-free.
TEST(Service, PipelinedClientsMatchInProcessReplayInArrivalOrder) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  const int processors = 8;

  NegotiationServer server(unixConfig(processors));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  struct Observed {
    task::TunableJobSpec spec;
    NegotiateResult result;
  };
  std::vector<std::vector<Observed>> perClient(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PipelinedClient client(clientFor(server), /*window=*/8);
      auto connectError = client.connect();
      ASSERT_FALSE(connectError.has_value()) << connectError->message;
      ASSERT_GE(client.grantedWindow(), 1u);
      std::vector<std::pair<task::TunableJobSpec,
                            PipelinedClient::ResponseFuture>>
          submitted;
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const auto spec = makeSpec(c * kRequestsPerClient + r);
        submitted.emplace_back(spec, client.negotiateAsync(spec, 0));
      }
      for (auto& [spec, future] : submitted) {
        auto decision = extractResult<NegotiateResult>(future.get());
        ASSERT_TRUE(decision.ok()) << decision.error.message;
        perClient[static_cast<std::size_t>(c)].push_back(
            {spec, *decision});
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<const Observed*> byArrival;
  for (const auto& observations : perClient) {
    for (const auto& observed : observations) byArrival.push_back(&observed);
  }
  ASSERT_EQ(byArrival.size(),
            static_cast<std::size_t>(kClients * kRequestsPerClient));
  std::sort(byArrival.begin(), byArrival.end(),
            [](const Observed* a, const Observed* b) {
              return a->result.arrivalSeq < b->result.arrivalSeq;
            });
  // busy never executes and never draws a sequence number, so even under
  // pipelining the executed sequence stays dense.
  for (std::size_t i = 0; i < byArrival.size(); ++i) {
    EXPECT_EQ(byArrival[i]->result.arrivalSeq, i);
  }

  qos::QoSArbitrator replay(processors);
  for (const auto* observed : byArrival) {
    const auto decision =
        replay.submit(observed->spec, observed->result.release);
    ASSERT_EQ(replay.lastJobId().value(), observed->result.jobId);
    ASSERT_EQ(decision.admitted, observed->result.admitted)
        << "arrivalSeq " << observed->result.arrivalSeq;
    if (decision.admitted) {
      EXPECT_EQ(decision.schedule.chainIndex, observed->result.chainIndex);
      EXPECT_EQ(decision.quality, observed->result.quality);
      EXPECT_EQ(decision.schedule.placements, observed->result.placements);
    }
  }
  const auto replayReport = replay.verify();
  EXPECT_TRUE(replayReport.ok) << replayReport.firstViolation;

  EXPECT_EQ(server.counters().helloHandshakes,
            static_cast<std::uint64_t>(kClients));
  QoSAgentClient client(clientFor(server));
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

// One raw v2 connection against a sharded server: cheap STATS commands
// (shard queue 0) interleaved with expensive NEGOTIATEs (home-shard queues)
// must come back correlated by requestId — and, because the shards execute
// in parallel, genuinely out of submission order.  Every worker but queue
// 0's is held until its pair's first response is read, so each NEGOTIATE
// homed on another shard is certainly overtaken by its STATS.
TEST(Service, V2ResponsesInterleaveOutOfOrderOnOneConnection) {
  ServerConfig config = unixConfig(16);
  config.shards = 4;
  // Queue 0's worker is the first to reach the seam: the lone STATS below
  // is the first command enqueued.
  std::atomic<std::thread::id> queue0Worker{};
  std::atomic<bool> holdOthers{false};
  config.workerSeamForTest = [&] {
    const auto self = std::this_thread::get_id();
    std::thread::id unset;
    if (queue0Worker.compare_exchange_strong(unset, self)) return;
    if (self == queue0Worker.load()) return;
    for (int i = 0; i < 5000 && holdOthers.load(); ++i) {
      std::this_thread::sleep_for(1ms);
    }
  };
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  // Release held workers before the server stops, even when an assertion
  // bails out.
  struct ReleaseHeld {
    std::atomic<bool>& flag;
    ~ReleaseHeld() { flag.store(false); }
  } release{holdOthers};

  auto connected =
      net::connectUnix(server.unixPath(), net::Deadline::after(1s));
  ASSERT_TRUE(connected.ok()) << connected.error;
  const net::FrameLimits limits;

  Request hello;
  hello.version = kProtocolVersionV2;
  hello.command = Command::Hello;
  hello.id = 1;
  hello.payload = HelloRequest{64};
  ASSERT_TRUE(net::writeFrame(connected.socket, encodeRequest(hello), limits,
                              net::Deadline::after(1s))
                  .ok());
  auto helloFrame = net::readFrame(connected.socket, limits,
                                   net::Deadline::after(1s),
                                   net::Deadline::after(1s));
  ASSERT_TRUE(helloFrame.ok()) << helloFrame.message;
  auto helloDecoded = decodeResponse(helloFrame.payload);
  ASSERT_TRUE(helloDecoded.ok()) << helloDecoded.error;
  ASSERT_TRUE(helloDecoded.response->ok);
  const auto* grant =
      std::get_if<HelloResult>(&helloDecoded.response->result);
  ASSERT_NE(grant, nullptr);
  EXPECT_EQ(grant->version, kProtocolVersionV2);
  EXPECT_EQ(grant->window, 64u);

  Request probe;
  probe.command = Command::Stats;
  probe.id = 2;
  ASSERT_TRUE(net::writeFrame(connected.socket, encodeRequest(probe), limits,
                              net::Deadline::after(1s))
                  .ok());
  auto probeFrame = net::readFrame(connected.socket, limits,
                                   net::Deadline::after(5s),
                                   net::Deadline::after(5s));
  ASSERT_TRUE(probeFrame.ok()) << probeFrame.message;
  ASSERT_NE(queue0Worker.load(), std::thread::id{});

  // One pair at a time: a NEGOTIATE carrying dozens of chains (deliberately
  // expensive to schedule, routed to its home-shard queue) followed in the
  // same write by an O(1) STATS (queue 0).  Separate workers execute them
  // concurrently, so the cheap command's response overtakes — exactly what
  // requestId correlation exists for.  Waiting for both responses before
  // the next pair keeps each race independent of queue batching.
  constexpr int kPairs = 10;
  std::size_t inversions = 0;
  for (int i = 0; i < kPairs; ++i) {
    task::TunableJobSpec heavy = makeSpec(i);
    for (int extra = 0; extra < 48; ++extra) {
      heavy.chains.push_back(makeSpec(i * 31 + extra)
                                 .chains[static_cast<std::size_t>(extra % 2)]);
    }
    Request negotiate;
    negotiate.command = Command::Negotiate;
    negotiate.id = 100 + static_cast<std::uint64_t>(2 * i);
    negotiate.payload = NegotiateRequest{std::move(heavy), 0};
    Request stats;
    stats.command = Command::Stats;
    stats.id = 101 + static_cast<std::uint64_t>(2 * i);
    std::string wire;
    ASSERT_TRUE(net::appendFrame(wire, encodeRequest(negotiate), limits).ok());
    ASSERT_TRUE(net::appendFrame(wire, encodeRequest(stats), limits).ok());
    holdOthers.store(true);
    ASSERT_TRUE(connected.socket
                    .writeAll(wire.data(), wire.size(),
                              net::Deadline::after(5s))
                    .ok());
    std::vector<std::uint64_t> order;
    for (int r = 0; r < 2; ++r) {
      auto frame =
          net::readFrame(connected.socket, limits, net::Deadline::after(5s),
                         net::Deadline::after(5s));
      ASSERT_TRUE(frame.ok()) << frame.message;
      auto decoded = decodeResponse(frame.payload);
      ASSERT_TRUE(decoded.ok()) << decoded.error;
      ASSERT_TRUE(decoded.response->ok)
          << decoded.response->error->code << ": "
          << decoded.response->error->message;
      order.push_back(decoded.response->id);
      holdOthers.store(false);
    }
    // Both responses, each exactly once, correlated by id.
    ASSERT_NE(order[0], order[1]);
    for (const auto id : order) {
      ASSERT_TRUE(id == negotiate.id || id == stats.id) << id;
    }
    if (order[0] == stats.id) ++inversions;
  }
  // A v1 stream would force all ten pairs into submit order; v2 lets the
  // cheap command win whenever its NEGOTIATE is homed on another shard.
  EXPECT_GT(inversions, 0u);

  QoSAgentClient client(clientFor(server));
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

// A granted window of 1 plus a burst of frames in one write: everything
// beyond the window gets the typed busy error, nothing desyncs, and the
// connection keeps working afterwards.
TEST(Service, WindowExceededGetsTypedBusyAndConnectionSurvives) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto connected =
      net::connectUnix(server.unixPath(), net::Deadline::after(1s));
  ASSERT_TRUE(connected.ok()) << connected.error;
  const net::FrameLimits limits;

  Request hello;
  hello.version = kProtocolVersionV2;
  hello.command = Command::Hello;
  hello.id = 1;
  hello.payload = HelloRequest{1};  // deliberately tiny window
  ASSERT_TRUE(net::writeFrame(connected.socket, encodeRequest(hello), limits,
                              net::Deadline::after(1s))
                  .ok());
  auto helloFrame = net::readFrame(connected.socket, limits,
                                   net::Deadline::after(1s),
                                   net::Deadline::after(1s));
  ASSERT_TRUE(helloFrame.ok());
  auto helloDecoded = decodeResponse(helloFrame.payload);
  ASSERT_TRUE(helloDecoded.ok());
  ASSERT_TRUE(helloDecoded.response->ok);

  // 20 STATS frames in a single write: the loop decodes them in batches,
  // so all but the in-window head of each batch must bounce busy.
  constexpr int kBurst = 20;
  std::string wire;
  for (int i = 0; i < kBurst; ++i) {
    Request stats;
    stats.command = Command::Stats;
    stats.id = 100 + static_cast<std::uint64_t>(i);
    ASSERT_TRUE(net::appendFrame(wire, encodeRequest(stats), limits).ok());
  }
  ASSERT_TRUE(connected.socket
                  .writeAll(wire.data(), wire.size(),
                            net::Deadline::after(1s))
                  .ok());

  int ok = 0;
  int busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto frame =
        net::readFrame(connected.socket, limits, net::Deadline::after(5s),
                       net::Deadline::after(5s));
    ASSERT_TRUE(frame.ok()) << frame.message;
    auto decoded = decodeResponse(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    if (decoded.response->ok) {
      ++ok;
    } else {
      ASSERT_EQ(decoded.response->error->code, "busy");
      ++busy;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(busy, 1);
  EXPECT_EQ(ok + busy, kBurst);
  EXPECT_EQ(server.counters().busyRejections,
            static_cast<std::uint64_t>(busy));

  // busy is retriable: the same connection still serves requests.
  Request again;
  again.command = Command::Stats;
  again.id = 999;
  ASSERT_TRUE(net::writeFrame(connected.socket, encodeRequest(again), limits,
                              net::Deadline::after(1s))
                  .ok());
  auto frame =
      net::readFrame(connected.socket, limits, net::Deadline::after(5s),
                     net::Deadline::after(5s));
  ASSERT_TRUE(frame.ok());
  auto decoded = decodeResponse(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.response->ok);
  EXPECT_EQ(decoded.response->id, 999u);
  server.stop();
}

// Tiny shard queue + pipelined burst: queue-full busy rejections never
// execute, never draw a sequence number, and the executed subset still
// replays to identical decisions.  The worker is wedged on its first batch
// until a busy refusal has happened, so the burst provably meets a full
// queue however fast the worker would otherwise keep up.
TEST(Service, TinyQueueBusyPreservesReplayEquivalence) {
  ServerConfig config = unixConfig(8);
  config.commandQueueCapacity = 1;
  std::atomic<NegotiationServer*> seamServer{nullptr};
  std::atomic<int> seamCalls{0};
  config.workerSeamForTest = [&] {
    if (seamCalls.fetch_add(1) != 0) return;  // wedge the first batch only
    for (int i = 0; i < 5000; ++i) {
      const NegotiationServer* running = seamServer.load();
      if (running != nullptr && running->counters().busyRejections > 0) {
        return;
      }
      std::this_thread::sleep_for(1ms);
    }
  };
  NegotiationServer server(config);
  seamServer.store(&server);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  PipelinedClient client(clientFor(server), /*window=*/64);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;

  struct Observed {
    task::TunableJobSpec spec;
    NegotiateResult result;
  };
  constexpr int kBurst = 200;
  std::vector<std::pair<task::TunableJobSpec,
                        PipelinedClient::ResponseFuture>>
      submitted;
  for (int r = 0; r < kBurst; ++r) {
    const auto spec = makeSpec(r);
    submitted.emplace_back(spec, client.negotiateAsync(spec, 0));
  }
  std::vector<Observed> executed;
  int busy = 0;
  for (auto& [spec, future] : submitted) {
    auto decision = extractResult<NegotiateResult>(future.get());
    if (decision.ok()) {
      executed.push_back({spec, *decision});
    } else {
      ASSERT_EQ(decision.error.status, ClientStatus::Busy)
          << decision.error.message;
      ++busy;
    }
  }
  // The queue of one must have bounced part of the burst, and the head of
  // the burst always executes.
  EXPECT_GT(busy, 0);
  ASSERT_FALSE(executed.empty());
  EXPECT_EQ(static_cast<int>(executed.size()) + busy, kBurst);
  EXPECT_EQ(server.counters().busyRejections,
            static_cast<std::uint64_t>(busy));

  std::sort(executed.begin(), executed.end(),
            [](const Observed& a, const Observed& b) {
              return a.result.arrivalSeq < b.result.arrivalSeq;
            });
  qos::QoSArbitrator replay(config.processors);
  for (std::size_t i = 0; i < executed.size(); ++i) {
    // Dense sequence over executed commands only: rejected submissions
    // left no gap behind.
    ASSERT_EQ(executed[i].result.arrivalSeq, i);
    const auto decision =
        replay.submit(executed[i].spec, executed[i].result.release);
    ASSERT_EQ(replay.lastJobId().value(), executed[i].result.jobId);
    ASSERT_EQ(decision.admitted, executed[i].result.admitted);
    if (decision.admitted) {
      EXPECT_EQ(decision.quality, executed[i].result.quality);
      EXPECT_EQ(decision.schedule.placements,
                executed[i].result.placements);
    }
  }
  const auto replayReport = replay.verify();
  EXPECT_TRUE(replayReport.ok) << replayReport.firstViolation;

  QoSAgentClient checker(clientFor(server));
  const auto verify = checker.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

// Sharded admission end to end: concurrent clients against a 4-shard
// server; every command is served, stats report the shard count, and the
// cross-shard ledgers verify clean.
TEST(Service, ShardedServerServesConcurrentClientsAndVerifies) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 20;
  auto config = unixConfig(16);
  config.shards = 4;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      QoSAgentClient client(clientFor(server));
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const auto decision =
            client.negotiate(makeSpec(c * kRequestsPerClient + r), 0);
        ASSERT_TRUE(decision.ok()) << decision.error.message;
        if (decision->admitted) {
          admitted.fetch_add(1);
          if (r % 3 == 0) {
            const auto cancelled = client.cancel(decision->jobId);
            ASSERT_TRUE(cancelled.ok()) << cancelled.error.message;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(admitted.load(), 0);

  QoSAgentClient client(clientFor(server));
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shards, 4);
  EXPECT_EQ(stats->processors, 16);
  EXPECT_EQ(stats->admitted, static_cast<std::uint64_t>(admitted.load()));
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

// With spill disabled the shards are fully independent, so each shard's
// decisions replay exactly into an in-process arbitrator of the shard's
// size, fed that shard's jobs (jobId % K) in arrival order.
TEST(Service, ShardedDecisionsReplayPerShardWithSpillDisabled) {
  constexpr int kShards = 2;
  constexpr int kJobs = 60;
  auto config = unixConfig(16);
  config.shards = kShards;
  config.shardSpill = false;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  struct Observed {
    task::TunableJobSpec spec;
    NegotiateResult result;
  };
  std::vector<Observed> observed;
  {
    QoSAgentClient client(clientFor(server));
    for (int r = 0; r < kJobs; ++r) {
      const auto spec = makeSpec(r);
      const auto decision = client.negotiate(spec, 0);
      ASSERT_TRUE(decision.ok()) << decision.error.message;
      observed.push_back({spec, *decision});
    }
  }
  server.stop();

  for (int k = 0; k < kShards; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    qos::QoSArbitrator replay(16 / kShards);
    for (const auto& o : observed) {
      if (static_cast<int>(o.result.jobId % kShards) != k) continue;
      const auto decision = replay.submit(o.spec, o.result.release);
      ASSERT_EQ(decision.admitted, o.result.admitted)
          << "jobId " << o.result.jobId;
      if (decision.admitted) {
        EXPECT_EQ(decision.schedule.chainIndex, o.result.chainIndex);
        EXPECT_EQ(decision.quality, o.result.quality);
        EXPECT_EQ(decision.schedule.placements, o.result.placements);
      }
    }
    const auto report = replay.verify();
    EXPECT_TRUE(report.ok) << report.firstViolation;
  }
}

// A machine cannot shrink below one processor per shard: the server
// answers bad_request before the arbitrator ever sees the resize.
TEST(Service, ShardedResizeBelowShardCountIsBadRequest) {
  auto config = unixConfig(16);
  config.shards = 4;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  QoSAgentClient client(clientFor(server));

  const auto bad = client.resize(2, /*when=*/0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error.status, ClientStatus::ServerError);
  EXPECT_EQ(bad.error.code, "bad_request");

  const auto grown = client.resize(20, /*when=*/0);
  ASSERT_TRUE(grown.ok()) << grown.error.message;
  EXPECT_EQ(grown->processorsBefore, 16);
  EXPECT_EQ(grown->processorsAfter, 20);
  server.stop();
}

// Kill the client the instant the request is written: the command still
// executes atomically and the ledger stays consistent.
TEST(Service, DisconnectMidNegotiationLeavesArbitratorClean) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  for (int i = 0; i < 5; ++i) {
    auto connected =
        net::connectUnix(server.unixPath(), net::Deadline::after(1s));
    ASSERT_TRUE(connected.ok()) << connected.error;
    Request request;
    request.id = 42;
    request.command = Command::Negotiate;
    request.payload = NegotiateRequest{makeSpec(i), 0};
    const net::FrameLimits limits;
    ASSERT_TRUE(net::writeFrame(connected.socket, encodeRequest(request),
                                limits, net::Deadline::after(1s))
                    .ok());
    connected.socket.close();  // vanish without reading the decision
  }

  // The commands raced our disconnects; wait until all five executed.
  QoSAgentClient client(clientFor(server));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    const auto stats = client.stats();
    ASSERT_TRUE(stats.ok()) << stats.error.message;
    if (stats->admitted + stats->rejected >= 5) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "orphaned commands never executed";
    std::this_thread::sleep_for(10ms);
  }

  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
  EXPECT_EQ(server.counters().disconnectsMidRequest, 5u);
}

// A partial frame followed by a hangup must not wedge or down the server.
TEST(Service, TruncatedFrameClosesOnlyThatConnection) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  {
    auto connected =
        net::connectUnix(server.unixPath(), net::Deadline::after(1s));
    ASSERT_TRUE(connected.ok()) << connected.error;
    // Declare a 100-byte payload, deliver 10, hang up.
    const char prefix[4] = {0, 0, 0, 100};
    ASSERT_TRUE(connected.socket
                    .writeAll(prefix, sizeof(prefix), net::Deadline::after(1s))
                    .ok());
    ASSERT_TRUE(connected.socket
                    .writeAll("0123456789", 10, net::Deadline::after(1s))
                    .ok());
    connected.socket.close();
  }

  // The server is still serving.
  QoSAgentClient client(clientFor(server));
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok()) << stats.error.message;
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok);
  server.stop();
  EXPECT_GE(server.counters().framesMalformed, 1u);
}

// Malformed JSON in a well-formed frame: per-request error, connection (and
// server) survive.
TEST(Service, MalformedJsonGetsErrorResponseAndConnectionSurvives) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto connected =
      net::connectUnix(server.unixPath(), net::Deadline::after(1s));
  ASSERT_TRUE(connected.ok()) << connected.error;
  const net::FrameLimits limits;
  for (const std::string& bad :
       {std::string("this is not json"), std::string("{\"v\":1}"),
        std::string("{\"v\":1,\"id\":2,\"cmd\":\"FROB\"}")}) {
    ASSERT_TRUE(net::writeFrame(connected.socket, bad, limits,
                                net::Deadline::after(1s))
                    .ok());
    auto frame = net::readFrame(connected.socket, limits,
                                net::Deadline::after(1s),
                                net::Deadline::after(1s));
    ASSERT_TRUE(frame.ok()) << net::toString(frame.status);
    auto decoded = decodeResponse(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    EXPECT_FALSE(decoded.response->ok);
    EXPECT_EQ(decoded.response->error->code, "bad_request");
  }

  // Same connection still negotiates successfully afterwards.
  Request request;
  request.id = 7;
  request.command = Command::Stats;
  ASSERT_TRUE(net::writeFrame(connected.socket, encodeRequest(request),
                              limits, net::Deadline::after(1s))
                  .ok());
  auto frame =
      net::readFrame(connected.socket, limits, net::Deadline::after(1s),
                     net::Deadline::after(1s));
  ASSERT_TRUE(frame.ok());
  auto decoded = decodeResponse(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.response->ok);
  EXPECT_EQ(decoded.response->id, 7u);
  server.stop();
  EXPECT_EQ(server.counters().framesMalformed, 3u);
}

// An oversized frame draws a best-effort error and loses the connection —
// and only that connection.
TEST(Service, OversizedFrameRejectedPerConnection) {
  auto config = unixConfig(8);
  config.maxFrameBytes = 256;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  {
    auto connected =
        net::connectUnix(server.unixPath(), net::Deadline::after(1s));
    ASSERT_TRUE(connected.ok()) << connected.error;
    // The client-side limit is what we're bypassing here: hand-roll a frame
    // bigger than the server's cap.
    net::FrameLimits permissive;
    ASSERT_TRUE(net::writeFrame(connected.socket, std::string(1024, 'x'),
                                permissive, net::Deadline::after(1s))
                    .ok());
    auto frame = net::readFrame(connected.socket, permissive,
                                net::Deadline::after(1s),
                                net::Deadline::after(1s));
    ASSERT_TRUE(frame.ok()) << net::toString(frame.status);
    auto decoded = decodeResponse(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    EXPECT_FALSE(decoded.response->ok);
    EXPECT_EQ(decoded.response->error->code, "frame_too_large");
    // The server hangs up after the error.  Our oversized payload was never
    // consumed, so the close may surface as a reset (Error) rather than a
    // clean EOF; either way the connection is dead.
    auto next = net::readFrame(connected.socket, permissive,
                               net::Deadline::after(1s),
                               net::Deadline::after(1s));
    EXPECT_TRUE(next.status == net::FrameStatus::Closed ||
                next.status == net::FrameStatus::Error)
        << net::toString(next.status);
  }

  // A fresh connection works.
  QoSAgentClient client(clientFor(server));
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok()) << stats.error.message;
  server.stop();
  EXPECT_EQ(server.counters().framesOversized, 1u);
}

// A queue of capacity 1 under 8-way v1 load: v1 pushes are never refused,
// and each connection holds at most one command in flight, so the queue
// overshoots its capacity by at most one command per connection instead of
// stalling anyone.  Every request completes and the ledger stays consistent.
TEST(Service, BackpressureWithTinyQueueStillCompletesEverything) {
  auto config = unixConfig(8);
  config.commandQueueCapacity = 1;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr int kClients = 8;
  constexpr int kRequests = 10;
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      QoSAgentClient client(clientFor(server));
      for (int r = 0; r < kRequests; ++r) {
        const auto decision = client.negotiate(makeSpec(c * 37 + r), 0);
        ASSERT_TRUE(decision.ok()) << decision.error.message;
        completed.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(completed.load(), kClients * kRequests);
  QoSAgentClient client(clientFor(server));
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok);
  server.stop();
}

// Regression (gauge undercount under batching): the depth gauge used to be
// sampled by the worker, so a worker draining whole batches between
// samples hid every intermediate peak.  It is now set from the depth each
// push itself observed.  The seam wedges the worker after its first drain;
// five more commands then stack up, and the high-water mark must see all
// of them even though the worker never sampled the queue in between.
TEST(Service, QueueDepthGaugeSeesEveryPeakUnderBatching) {
  auto config = unixConfig(8);
  std::atomic<bool> seamEntered{false};
  std::atomic<bool> seamRelease{false};
  std::atomic<int> seamCalls{0};
  config.workerSeamForTest = [&] {
    if (seamCalls.fetch_add(1) != 0) return;  // wedge the first batch only
    seamEntered.store(true);
    while (!seamRelease.load()) std::this_thread::sleep_for(1ms);
  };
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto* registry = server.metricsRegistry();
  ASSERT_NE(registry, nullptr);
  auto& gauge = registry->gauge("server.queue_depth");

  PipelinedClient client(clientFor(server), /*window=*/16);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;

  std::vector<PipelinedClient::ResponseFuture> futures;
  futures.push_back(client.negotiateAsync(makeSpec(0), 0));
  // The worker drains the first command and wedges in the seam...
  for (int i = 0; i < 500 && !seamEntered.load(); ++i) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_TRUE(seamEntered.load());
  // ...so the next five pushes stack up with nobody draining.
  for (int r = 1; r <= 5; ++r) {
    futures.push_back(client.negotiateAsync(makeSpec(r), 0));
  }
  for (int i = 0; i < 500 && gauge.max() < 5; ++i) {
    std::this_thread::sleep_for(2ms);
  }
  seamRelease.store(true);
  for (auto& future : futures) {
    auto decision = extractResult<NegotiateResult>(future.get());
    ASSERT_TRUE(decision.ok()) << decision.error.message;
  }
  EXPECT_GE(gauge.max(), 5);
  server.stop();
}

// Regression (shutdown lost wakeup): stop the server while its tiny-queue
// worker is wedged mid-batch and a v1 client has unread pipelined frames
// waiting behind its one in-flight command.  The queue close must let the
// worker finish, everything admitted before the close must still execute
// and answer (the close contract), and the connection must end in a clean
// EOF.
TEST(Service, StopWhileClientWedgedAgainstFullTinyQueueDrainsAdmitted) {
  auto config = unixConfig(8);
  config.commandQueueCapacity = 1;
  std::atomic<bool> seamEntered{false};
  std::atomic<bool> seamRelease{false};
  std::atomic<int> seamCalls{0};
  // Wedge the worker on its SECOND drained batch: command 1 executes and
  // answers normally, command 2 is drained and then held hostage — so by
  // the time the seam is entered, two commands are provably admitted and
  // one of them can only be answered if the shutdown path still drains
  // what was admitted.
  config.workerSeamForTest = [&] {
    if (seamCalls.fetch_add(1) != 1) return;
    seamEntered.store(true);
    while (!seamRelease.load()) std::this_thread::sleep_for(1ms);
  };
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Four v1 negotiate frames in one write, no reads: the client is wedged.
  auto connected =
      net::connectUnix(server.unixPath(), net::Deadline::after(1s));
  ASSERT_TRUE(connected.ok()) << connected.error;
  const net::FrameLimits limits;
  std::string wire;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    Request request;
    request.command = Command::Negotiate;
    request.id = id;
    request.payload =
        NegotiateRequest{makeSpec(static_cast<int>(id)), 0};
    ASSERT_TRUE(net::appendFrame(wire, encodeRequest(request), limits).ok());
  }
  ASSERT_TRUE(connected.socket
                  .writeAll(wire.data(), wire.size(), net::Deadline::after(1s))
                  .ok());

  // Command 1 answers, which lets the loop admit command 2; command 2 is
  // drained and wedged in the worker's hands.  Frames 3 and 4 wait behind
  // it: a v1 connection has one command in flight.
  for (int i = 0; i < 500 && !seamEntered.load(); ++i) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_TRUE(seamEntered.load());

  std::thread stopper([&] { server.stop(); });
  // Give stop() time to reach the queue close, then un-wedge the worker:
  // it must answer what was admitted and exit on the close, not park.
  std::this_thread::sleep_for(50ms);
  seamRelease.store(true);
  stopper.join();

  // Every admitted command answered, in order, then EOF.  Commands 1 and 2
  // were admitted before the stop; 3 and 4 are admitted only if command 2
  // was answered before the loop began draining, but whatever was admitted
  // must be answered and nothing may be answered out of order.
  std::vector<std::uint64_t> answered;
  for (;;) {
    auto frame = net::readFrame(connected.socket, limits,
                                net::Deadline::after(2s),
                                net::Deadline::after(2s));
    if (!frame.ok()) break;  // clean EOF after the flush
    auto decoded = decodeResponse(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    ASSERT_TRUE(decoded.response->ok);
    answered.push_back(decoded.response->id);
  }
  ASSERT_GE(answered.size(), 2u);
  for (std::size_t i = 0; i < answered.size(); ++i) {
    EXPECT_EQ(answered[i], i + 1);
  }
}

/// Un-wedges a seam-held worker when the test scope ends, so a failed
/// assertion cannot leave stop() joining a worker that never returns.
/// Declare after the server: it must release before the server stops.
struct SeamRelease {
  std::atomic<bool>& flag;
  ~SeamRelease() { flag.store(true); }
};

// The v1 in-flight rule at 4 shards: a raw v1 client writes a burst of
// NEGOTIATEs in one write while one shard's worker is wedged.  The server
// decodes a v1 connection's next frame only after answering the previous
// one, so no shard queue ever holds more than one of the burst's commands
// — even the wedged shard, which every 4th job id routes to — and the
// answers arrive in submit order with strictly increasing arrivalSeq.
TEST(Service, V1ConnectionHoldsOneCommandInFlightAcrossShards) {
  constexpr int kShards = 4;
  constexpr std::uint64_t kBurst = 12;
  auto config = unixConfig(16);
  config.shards = kShards;
  std::atomic<bool> seamEntered{false};
  std::atomic<bool> seamRelease{false};
  std::atomic<int> seamCalls{0};
  config.workerSeamForTest = [&] {
    if (seamCalls.fetch_add(1) != 0) return;  // wedge the first batch only
    seamEntered.store(true);
    while (!seamRelease.load()) std::this_thread::sleep_for(1ms);
  };
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  SeamRelease unwedge{seamRelease};
  auto* registry = server.metricsRegistry();
  ASSERT_NE(registry, nullptr);

  // Another connection's NEGOTIATE wedges its home shard's worker.
  PipelinedClient wedger(clientFor(server), /*window=*/1);
  auto connectError = wedger.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;
  auto wedged = wedger.negotiateAsync(makeSpec(0), 0);
  for (int i = 0; i < 500 && !seamEntered.load(); ++i) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_TRUE(seamEntered.load());

  auto connected =
      net::connectUnix(server.unixPath(), net::Deadline::after(1s));
  ASSERT_TRUE(connected.ok()) << connected.error;
  const net::FrameLimits limits;
  std::string wire;
  for (std::uint64_t id = 1; id <= kBurst; ++id) {
    Request request;
    request.command = Command::Negotiate;
    request.id = id;
    request.payload = NegotiateRequest{makeSpec(static_cast<int>(id)), 0};
    ASSERT_TRUE(net::appendFrame(wire, encodeRequest(request), limits).ok());
  }
  ASSERT_TRUE(connected.socket
                  .writeAll(wire.data(), wire.size(), net::Deadline::after(1s))
                  .ok());

  std::vector<NegotiateResult> answers;
  const auto readAnswer = [&] {
    auto frame = net::readFrame(connected.socket, limits,
                                net::Deadline::after(5s),
                                net::Deadline::after(5s));
    ASSERT_TRUE(frame.ok()) << net::toString(frame.status);
    auto decoded = decodeResponse(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    ASSERT_TRUE(decoded.response->ok);
    EXPECT_EQ(decoded.response->id, answers.size() + 1);
    const auto* result =
        std::get_if<NegotiateResult>(&decoded.response->result);
    ASSERT_NE(result, nullptr);
    answers.push_back(*result);
  };
  // The first three jobs route to the three running shards and are
  // answered while the worker stays wedged; the fourth routes to the
  // wedged shard and waits there.  Give the loop a beat to (wrongly) take
  // more of the burst before releasing.
  for (int i = 0; i < kShards - 1; ++i) {
    readAnswer();
    if (HasFatalFailure()) return;
  }
  std::this_thread::sleep_for(50ms);
  seamRelease.store(true);
  while (answers.size() < kBurst) {
    readAnswer();
    if (HasFatalFailure()) return;
  }
  ASSERT_TRUE(wedged.get().ok());

  for (std::size_t i = 1; i < answers.size(); ++i) {
    EXPECT_LT(answers[i - 1].arrivalSeq, answers[i].arrivalSeq);
  }
  for (int k = 0; k < kShards; ++k) {
    const std::string name = "server.queue_depth.shard" + std::to_string(k);
    EXPECT_LE(registry->gauge(name).max(), 1) << name;
  }
  server.stop();
}

// stop() waits for in-flight work, then refuses new connections; idle open
// sessions do not stall the drain.
TEST(Service, GracefulDrainCompletesInFlightAndRefusesNewWork) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::string path = server.unixPath();

  // An idle connection that never sends anything.
  auto idle = net::connectUnix(path, net::Deadline::after(1s));
  ASSERT_TRUE(idle.ok()) << idle.error;

  // A burst of real work racing the shutdown.
  std::vector<std::thread> threads;
  std::atomic<int> answered{0};
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      QoSAgentClient client(clientFor(server));
      for (int r = 0; r < 5; ++r) {
        const auto decision = client.negotiate(makeSpec(c + r * 11), 0);
        if (!decision.ok()) return;  // raced the drain; acceptable
        answered.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(20ms);
  const auto stopBegin = std::chrono::steady_clock::now();
  server.stop();
  const auto stopTook = std::chrono::steady_clock::now() - stopBegin;
  for (auto& thread : threads) thread.join();

  // Every request that got in was answered before stop() returned...
  EXPECT_GT(answered.load(), 0);
  // ...the drain didn't hang on the idle session...
  EXPECT_LT(stopTook, 5s);
  // ...and the endpoint is gone afterwards.
  ClientConfig lateConfig;
  lateConfig.unixPath = path;
  lateConfig.connectAttempts = 1;
  QoSAgentClient late(lateConfig);
  const auto result = late.stats();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.status, ClientStatus::ConnectFailed);
}

TEST(Service, ClientReportsConnectFailedAfterExhaustingRetries) {
  ClientConfig config;
  config.unixPath = "/tmp/tprm-svc-test-no-such-server.sock";
  config.connectAttempts = 3;
  config.connectBackoff = 1ms;
  QoSAgentClient client(config);
  const auto begin = std::chrono::steady_clock::now();
  const auto result = client.stats();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.status, ClientStatus::ConnectFailed);
  // Backoff 1ms + 2ms between the three attempts.
  EXPECT_GE(std::chrono::steady_clock::now() - begin, 3ms);
}

TEST(Service, ClientRetriesUntilServerAppears) {
  auto config = unixConfig(8);
  const std::string path = config.unixPath;
  NegotiationServer server(config);

  std::thread starter([&] {
    std::this_thread::sleep_for(50ms);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
  });

  ClientConfig clientConfig;
  clientConfig.unixPath = path;
  clientConfig.connectAttempts = 50;
  clientConfig.connectBackoff = 10ms;
  QoSAgentClient client(clientConfig);
  const auto stats = client.stats();
  starter.join();
  ASSERT_TRUE(stats.ok()) << stats.error.message;
  EXPECT_EQ(stats->processors, 8);
  server.stop();
}

// Retry backoff plan invariants (no sockets involved).
TEST(Backoff, PlanDoublesThenClampsAtCap) {
  ClientConfig config;
  config.connectAttempts = 8;
  config.connectBackoff = 1ms;
  config.maxConnectBackoff = 4ms;
  const auto plan = connectBackoffPlan(config);
  const std::vector<std::chrono::milliseconds> expected = {
      0ms, 1ms, 2ms, 4ms, 4ms, 4ms, 4ms, 4ms};
  EXPECT_EQ(plan, expected);
}

TEST(Backoff, FirstAttemptIsImmediate) {
  ClientConfig config;
  config.connectAttempts = 1;
  EXPECT_EQ(connectBackoffPlan(config),
            std::vector<std::chrono::milliseconds>{0ms});
  // A non-positive attempt count still yields one immediate attempt.
  config.connectAttempts = 0;
  EXPECT_EQ(connectBackoffPlan(config),
            std::vector<std::chrono::milliseconds>{0ms});
}

TEST(Backoff, CapBelowInitialBackoffClampsEveryRetry) {
  ClientConfig config;
  config.connectAttempts = 4;
  config.connectBackoff = 100ms;
  config.maxConnectBackoff = 10ms;
  const auto plan = connectBackoffPlan(config);
  const std::vector<std::chrono::milliseconds> expected = {0ms, 10ms, 10ms,
                                                           10ms};
  EXPECT_EQ(plan, expected);
}

TEST(Backoff, ManyAttemptsNeverExceedCapOrOverflow) {
  // Regression: unbounded doubling overflowed the chrono rep after ~40
  // retries and produced negative sleeps; every entry must now respect the
  // configured ceiling no matter how long the client keeps retrying.
  ClientConfig config;
  config.connectAttempts = 64;
  config.connectBackoff = 20ms;
  const auto plan = connectBackoffPlan(config);
  ASSERT_EQ(plan.size(), 64u);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_GE(plan[i], plan[i - 1]) << "attempt " << i;
    EXPECT_GT(plan[i], 0ms) << "attempt " << i;
    EXPECT_LE(plan[i], config.maxConnectBackoff) << "attempt " << i;
  }
  EXPECT_EQ(plan.back(), config.maxConnectBackoff);
}

// Observability: the metrics/trace layer rides along the loopback path.
TEST(Observability, ServerSnapshotCoversNegotiationLifecycle) {
  NegotiationServer server(unixConfig(16));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  QoSAgentClient client(clientFor(server));
  const auto decision = client.negotiate(makeSpec(1), /*release=*/0);
  ASSERT_TRUE(decision.ok()) << decision.error.message;
  ASSERT_TRUE(decision->admitted);
  const auto cancelled = client.cancel(decision->jobId);
  ASSERT_TRUE(cancelled.ok());
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());

  const JsonValue snapshot = server.observabilitySnapshot();
  EXPECT_TRUE(snapshot.find("enabled")->asBool());

  const auto* counters = snapshot.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("arbitrator.negotiations")->asNumber(), 1.0);
  EXPECT_EQ(counters->find("arbitrator.admitted")->asNumber(), 1.0);
  EXPECT_EQ(counters->find("arbitrator.cancels")->asNumber(), 1.0);
  EXPECT_GE(counters->find("arbitrator.profile.fit_probes")->asNumber(), 1.0);
  EXPECT_GE(counters->find("arbitrator.heuristic.chains_evaluated")->asNumber(),
            1.0);

  const auto* gauges = snapshot.find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("server.queue_depth"), nullptr);

  // Every executed command left a span and a queue-wait observation.
  const auto executed = server.counters().commandsExecuted;
  EXPECT_EQ(executed, 3u);
  const auto* spans = snapshot.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->isArray());
  ASSERT_EQ(spans->asArray().size(), executed);
  EXPECT_EQ(spans->asArray()[0].find("name")->asString(), "NEGOTIATE");
  EXPECT_TRUE(spans->asArray()[0].find("ok")->asBool());
  const auto* waits = snapshot.find("histograms")->find("server.queue_wait_us");
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->find("count")->asNumber(), static_cast<double>(executed));

  server.stop();
}

TEST(Observability, DisabledServerKeepsOnlyPlainCounters) {
  auto config = unixConfig(8);
  config.observability = false;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(server.metricsRegistry(), nullptr);
  EXPECT_EQ(server.traceRing(), nullptr);

  QoSAgentClient client(clientFor(server));
  ASSERT_TRUE(client.stats().ok());

  const JsonValue snapshot = server.observabilitySnapshot();
  EXPECT_FALSE(snapshot.find("enabled")->asBool());
  EXPECT_EQ(snapshot.find("counters"), nullptr);
  EXPECT_EQ(snapshot.find("spans"), nullptr);
  // The always-on plain server counters remain available either way.
  ASSERT_NE(snapshot.find("server"), nullptr);
  EXPECT_GE(snapshot.find("server")->find("commands_executed")->asNumber(),
            1.0);
  server.stop();
}

TEST(Observability, ClientRegistryCountsRequestsAndLatency) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  obs::MetricsRegistry registry;
  auto config = clientFor(server);
  config.metrics = &registry;
  QoSAgentClient client(config);
  ASSERT_TRUE(client.stats().ok());
  ASSERT_TRUE(client.verify().ok());

  EXPECT_EQ(registry.counter("client.requests").value(), 2u);
  EXPECT_EQ(registry.counter("client.request_errors").value(), 0u);
  EXPECT_GE(registry.counter("client.connect_attempts").value(), 1u);
  EXPECT_EQ(registry.counter("client.connect_failures").value(), 0u);
  const auto& latency = obs::latencyHistogram(registry, "client.request_us");
  EXPECT_EQ(latency.count(), 2u);
  EXPECT_GT(latency.max(), 0.0);
  server.stop();
}

TEST(Observability, FailedConnectCountsFailures) {
  obs::MetricsRegistry registry;
  ClientConfig config;
  config.unixPath = "/tmp/tprm-svc-test-no-such-server.sock";
  config.connectAttempts = 2;
  config.connectBackoff = 1ms;
  config.metrics = &registry;
  QoSAgentClient client(config);
  ASSERT_FALSE(client.stats().ok());
  EXPECT_EQ(registry.counter("client.connect_attempts").value(), 2u);
  EXPECT_EQ(registry.counter("client.connect_failures").value(), 1u);
  EXPECT_EQ(registry.counter("client.request_errors").value(), 1u);
}

// Wire protocol codec invariants (no sockets involved).
TEST(Protocol, RequestAndResponseCodecsRoundTrip) {
  Request request;
  request.id = 99;
  request.command = Command::Negotiate;
  request.payload = NegotiateRequest{makeSpec(5), ticksFromUnits(12.5)};
  const auto decodedRequest = decodeRequest(encodeRequest(request));
  ASSERT_TRUE(decodedRequest.ok()) << decodedRequest.error;
  EXPECT_EQ(decodedRequest.request->id, 99u);
  EXPECT_EQ(decodedRequest.request->command, Command::Negotiate);
  const auto& payload =
      std::get<NegotiateRequest>(decodedRequest.request->payload);
  EXPECT_EQ(payload.spec, makeSpec(5));
  EXPECT_EQ(payload.release, ticksFromUnits(12.5));

  Response response;
  response.id = 99;
  response.ok = true;
  NegotiateResult result;
  result.admitted = true;
  result.jobId = 3;
  result.arrivalSeq = 17;
  result.chainIndex = 1;
  result.quality = 0.6;
  result.release = ticksFromUnits(12.5);
  result.placements = {{TimeInterval{0, ticksFromUnits(10.0)}, 4,
                        ticksFromUnits(60.0)}};
  result.bindings = {{"level", 9}};
  result.chainsConsidered = 2;
  result.chainsSchedulable = 1;
  response.result = result;
  const auto decodedResponse = decodeResponse(encodeResponse(response));
  ASSERT_TRUE(decodedResponse.ok()) << decodedResponse.error;
  const auto& out =
      std::get<NegotiateResult>(decodedResponse.response->result);
  EXPECT_EQ(out.jobId, 3u);
  EXPECT_EQ(out.arrivalSeq, 17u);
  EXPECT_EQ(out.chainIndex, 1u);
  EXPECT_EQ(out.quality, 0.6);
  EXPECT_EQ(out.placements, result.placements);
  EXPECT_EQ(out.bindings, result.bindings);
}

TEST(Protocol, DecodeRejectsGarbageWithoutAborting) {
  for (const std::string& bad :
       {std::string(""), std::string("null"), std::string("[]"),
        std::string("{\"v\":3,\"id\":1,\"cmd\":\"STATS\"}"),
        std::string("{\"v\":1,\"cmd\":\"STATS\"}"),
        std::string("{\"v\":1,\"id\":1,\"cmd\":\"NEGOTIATE\"}"),
        std::string("{\"v\":1,\"id\":1,\"cmd\":\"CANCEL\"}")}) {
    EXPECT_FALSE(decodeRequest(bad).ok()) << bad;
  }
  EXPECT_FALSE(decodeResponse("{\"ok\":true}").ok());
  EXPECT_FALSE(decodeResponse("not json").ok());
}

}  // namespace
}  // namespace tprm::service
