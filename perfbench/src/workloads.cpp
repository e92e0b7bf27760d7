#include "workloads.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "helpers.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/server.h"
#include "workload/scenario.h"

namespace perfbench {

namespace {

using tprm::service::ClientError;
using tprm::service::ClientStatus;
using tprm::service::NegotiateResult;
using tprm::service::PipelinedClient;
using tprm::service::QoSAgentClient;

/// Resubmissions of a request refused with a typed BUSY before it counts as
/// failed.
constexpr int kBusyRetryBudget = 64;
constexpr auto kBusyBackoff = std::chrono::microseconds(200);

std::int64_t nowNs() { return tprm::obs::monotonicNanos(); }

double secondsBetween(std::int64_t fromNs, std::int64_t toNs) {
  return static_cast<double>(toNs - fromNs) / 1e9;
}

/// The profile-bound shape of bench/service_throughput.cpp's deepSpec, drawn
/// from a seed: one chain of four rigid tasks with ragged widths (1-8) and
/// fractional durations, and deadlines far enough away that no placement
/// ever retires.
tprm::task::TunableJobSpec deepChurnSpec(tprm::Rng& rng, std::size_t index) {
  tprm::task::TunableJobSpec job;
  job.name = "deep-" + std::to_string(index);
  tprm::task::Chain chain;
  chain.name = "only";
  for (int t = 0; t < 4; ++t) {
    const auto width = static_cast<int>(1 + rng.uniformBelow(8));
    const double units =
        3.0 + 0.25 * static_cast<double>(rng.uniformBelow(64));
    chain.tasks.push_back(tprm::task::TaskSpec::rigid(
        "t" + std::to_string(t), width, tprm::ticksFromUnits(units),
        tprm::ticksFromUnits(1'000'000.0)));
  }
  job.chains = {chain};
  return job;
}

/// One answered NEGOTIATE: the job, its round trip and the decision.
struct Answer {
  std::size_t index = 0;
  double latencyUs = 0.0;
  NegotiateResult decision;
};

/// What one client thread saw during a round.
struct ClientLog {
  explicit ClientLog(std::uint32_t tid) : spans(tid) {}

  void fail(const ClientError& error) {
    ++failed;
    if (error.status == ClientStatus::ProtocolError) ++undecodable;
  }

  /// Every NEGOTIATE answered.
  std::vector<Answer> answers;
  /// (job id, freed ticks) of every CANCEL answered.
  std::vector<std::pair<std::uint64_t, std::int64_t>> cancelled;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t undecodable = 0;
  std::uint64_t cancels = 0;
  std::uint64_t busyRetries = 0;
  SpanLog spans;
};

/// Waits for a v2 response, resubmitting the job while the server answers
/// with a typed BUSY (up to kBusyRetryBudget times).
tprm::service::ClientResult<tprm::service::Response> awaitNegotiate(
    PipelinedClient& client, PipelinedClient::ResponseFuture future,
    const Job& job, bool corked, ClientLog& log) {
  if (corked) (void)client.flush();
  auto response = future.get();
  for (int retry = 0; retry < kBusyRetryBudget && !response.ok() &&
                      response.error.status == ClientStatus::Busy;
       ++retry) {
    ++log.busyRetries;
    std::this_thread::sleep_for(kBusyBackoff);
    auto again = client.negotiateAsync(job.spec, job.release);
    if (corked) (void)client.flush();
    response = again.get();
  }
  return response;
}

/// deep-churn: one blocking v1 connection taking jobs from the shared
/// cursor; every `cancelEvery`th job it gets admitted is cancelled at once.
void runBlockingClient(QoSAgentClient& client, const GeneratedRound& round,
                       std::atomic<std::size_t>& next, int cancelEvery,
                       bool traced, std::uint64_t rootSpan, ClientLog& log) {
  std::uint64_t admittedHere = 0;
  for (;;) {
    const std::size_t index = next.fetch_add(1);
    if (index >= round.jobs.size()) return;
    const Job& job = round.jobs[index];
    ++log.attempted;
    const std::int64_t t0 = nowNs();
    auto decision = client.negotiate(job.spec, job.release);
    const std::int64_t t1 = nowNs();
    if (!decision.ok()) {
      log.fail(decision.error);
      continue;
    }
    if (traced) {
      log.spans.add("client.negotiate", t0, t1, rootSpan,
                    decision->arrivalSeq);
    }
    const std::uint64_t jobId = decision->jobId;
    const bool cancelNow = decision->admitted && cancelEvery > 0 &&
                           ++admittedHere % static_cast<std::uint64_t>(
                                                cancelEvery) == 0;
    log.answers.push_back({index, static_cast<double>(t1 - t0) / 1e3,
                           std::move(*decision.value)});
    if (!cancelNow) continue;
    ++log.attempted;
    const std::int64_t t2 = nowNs();
    const auto cancelled = client.cancel(jobId);
    const std::int64_t t3 = nowNs();
    if (!cancelled.ok()) {
      log.fail(cancelled.error);
      continue;
    }
    ++log.cancels;
    log.cancelled.emplace_back(jobId, cancelled->freedTicks);
    if (traced) log.spans.add("client.cancel", t2, t3, rootSpan, jobId);
  }
}

/// tenant-mix: one corked v2 connection keeping up to `window` NEGOTIATEs
/// in flight.  The agent refills the window in batches: it submits until the
/// window is full, flushes once, then consumes answers in submission order
/// until half the window is free.  A round trip runs from submit to the
/// moment the agent consumes the answer.
void runPipelinedClient(PipelinedClient& client, const GeneratedRound& round,
                        std::atomic<std::size_t>& next, std::size_t window,
                        bool traced, std::uint64_t rootSpan, ClientLog& log) {
  struct InFlight {
    std::size_t index = 0;
    std::int64_t t0 = 0;
    PipelinedClient::ResponseFuture future;
  };
  std::deque<InFlight> inflight;
  const auto harvest = [&](InFlight item) {
    const Job& job = round.jobs[item.index];
    auto response = awaitNegotiate(client, std::move(item.future), job,
                                   /*corked=*/true, log);
    const std::int64_t t1 = nowNs();
    auto decision = tprm::service::extractResult<NegotiateResult>(
        std::move(response));
    if (!decision.ok()) {
      log.fail(decision.error);
      return;
    }
    if (traced) {
      log.spans.add("client.negotiate", item.t0, t1, rootSpan,
                    decision->arrivalSeq);
    }
    log.answers.push_back({item.index,
                           static_cast<double>(t1 - item.t0) / 1e3,
                           std::move(*decision.value)});
  };
  bool more = true;
  while (more || !inflight.empty()) {
    while (more && inflight.size() < window) {
      const std::size_t index = next.fetch_add(1);
      if (index >= round.jobs.size()) {
        more = false;
        break;
      }
      const Job& job = round.jobs[index];
      ++log.attempted;
      InFlight item;
      item.index = index;
      item.t0 = nowNs();
      item.future = client.negotiateAsync(job.spec, job.release);
      inflight.push_back(std::move(item));
    }
    (void)client.flush();
    const std::size_t keep = more ? window / 2 : 0;
    while (inflight.size() > keep) {
      harvest(std::move(inflight.front()));
      inflight.pop_front();
    }
  }
}

/// flash-open: the calling thread sends each NEGOTIATE at its due time over
/// one uncorked v2 connection; a harvester thread stamps each response.
/// Latency runs from the due time.  Returns when the last response arrived.
std::int64_t runOpenLoop(PipelinedClient& client, const GeneratedRound& round,
                         bool traced, std::uint64_t rootSpan, ClientLog& log,
                         std::vector<double>& lags) {
  struct Sent {
    std::size_t index = 0;
    OpenLoopSample sample;
    PipelinedClient::ResponseFuture future;
  };
  std::mutex mu;
  std::condition_variable ready;
  std::deque<Sent> sent;  // guarded by mu
  bool finished = false;  // guarded by mu
  std::int64_t lastDoneNs = 0;

  std::thread harvester([&] {
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      ready.wait(lock, [&] { return finished || !sent.empty(); });
      if (sent.empty()) return;
      Sent item = std::move(sent.front());
      sent.pop_front();
      lock.unlock();
      const Job& job = round.jobs[item.index];
      auto response = awaitNegotiate(client, std::move(item.future), job,
                                     /*corked=*/false, log);
      item.sample.doneNs = nowNs();
      lastDoneNs = item.sample.doneNs;
      auto decision = tprm::service::extractResult<NegotiateResult>(
          std::move(response));
      if (!decision.ok()) {
        log.fail(decision.error);
        continue;
      }
      if (traced) {
        log.spans.add("client.negotiate", item.sample.dueNs,
                      item.sample.doneNs, rootSpan, decision->arrivalSeq);
      }
      log.answers.push_back({item.index, latencyFromDueUs(item.sample),
                             std::move(*decision.value)});
    }
  });

  const std::int64_t start = nowNs();
  for (std::size_t i = 0; i < round.jobs.size(); ++i) {
    Sent item;
    item.index = i;
    item.sample.dueNs = start + round.dueOffsetsNs[i];
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(item.sample.dueNs)));
    item.sample.sentNs = nowNs();
    lags.push_back(sendLagUs(item.sample));
    item.future =
        client.negotiateAsync(round.jobs[i].spec, round.jobs[i].release);
    {
      std::lock_guard<std::mutex> lock(mu);
      sent.push_back(std::move(item));
    }
    ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  ready.notify_one();
  harvester.join();
  log.attempted = round.jobs.size();
  return lastDoneNs;
}

std::int64_t queueDepthMax(tprm::service::NegotiationServer& server,
                           int shards) {
  auto* registry = server.metricsRegistry();
  if (registry == nullptr) return 0;
  if (shards == 1) return registry->gauge("server.queue_depth").max();
  std::int64_t deepest = 0;
  for (int k = 0; k < shards; ++k) {
    deepest = std::max(
        deepest,
        registry->gauge("server.queue_depth.shard" + std::to_string(k)).max());
  }
  return deepest;
}

}  // namespace

std::optional<WorkloadConfig> workloadByName(const std::string& name) {
  WorkloadConfig config;
  config.name = name;
  if (name == "deep-churn") {
    config.kind = WorkloadKind::DeepChurn;
    config.processors = 64;
    config.connections = 4;
    config.roundJobs = 8000;
    config.cancelEvery = 3;
  } else if (name == "tenant-mix") {
    config.kind = WorkloadKind::TenantMix;
    config.processors = 24;
    config.shards = 4;
    config.gang = true;
    config.elastic = true;
    config.connections = 2;
    config.window = 64;
    config.roundJobs = 20000;
    config.loadMultiplier = 2.0;
  } else if (name == "flash-open") {
    config.kind = WorkloadKind::FlashOpen;
    config.connections = 1;
    config.window = 64;
    config.roundJobs = 5000;
    config.meanRate = 6000.0;
  } else {
    return std::nullopt;
  }
  config.warmupJobs = config.roundJobs / 20;
  return config;
}

GeneratedRound generateRound(const WorkloadConfig& config,
                             std::uint64_t seed) {
  GeneratedRound round;
  round.jobs.reserve(config.roundJobs);
  if (config.kind == WorkloadKind::DeepChurn) {
    tprm::Rng rng(seed);
    for (std::size_t i = 0; i < config.roundJobs; ++i) {
      round.jobs.push_back(Job{deepChurnSpec(rng, i), 0, 0.0});
    }
    return round;
  }
  const bool tenants = config.kind == WorkloadKind::TenantMix;
  auto params = tprm::workload::scenarioByName(
      tenants ? "multi-tenant" : "flash-crowd", seed, config.roundJobs);
  params->baseRate *= config.loadMultiplier;
  if (!tenants) {
    // Put the flash window mid-round, clear of the warm-up prefix.
    params->flashBeginUnits = 0.5 * static_cast<double>(config.roundJobs) /
                              params->baseRate;
  }
  auto scenario = tprm::workload::ScenarioGenerator(*params).generate();
  std::vector<tprm::Time> releases;
  releases.reserve(scenario.jobs.size());
  for (auto& job : scenario.jobs) {
    const double floor =
        job.tenant >= 0
            ? scenario.tenants[static_cast<std::size_t>(job.tenant)]
                  .qualityFloor
            : 0.0;
    releases.push_back(job.release);
    round.jobs.push_back(Job{std::move(job.spec), job.release, floor});
  }
  if (!tenants) {
    round.dueOffsetsNs = openLoopOffsetsNs(releases, config.meanRate);
  }
  return round;
}

RoundOutcome runRound(const WorkloadConfig& config, std::uint64_t seed,
                      const RoundOptions& options) {
  RoundOutcome out;
  const bool traced = !options.recordPath.empty();
  const bool openLoop = config.kind == WorkloadKind::FlashOpen;

  // --- Set-up: generate, start, connect. ---
  const std::int64_t setupStart = nowNs();
  const GeneratedRound round = generateRound(config, seed);
  out.generateS = secondsBetween(setupStart, nowNs());

  tprm::service::ServerConfig serverConfig;
  serverConfig.processors = config.processors;
  serverConfig.shards = config.shards;
  serverConfig.shardGang = config.gang;
  serverConfig.reshapePolicy = config.elastic ? options.reshapePolicy : nullptr;
  serverConfig.unixPath = options.socketPath;
  serverConfig.recordPath = options.recordPath;
  tprm::service::NegotiationServer server(serverConfig);
  std::string error;
  if (!server.start(&error)) {
    out.problem = "server start failed: " + error;
    return out;
  }
  tprm::service::ClientConfig clientConfig;
  clientConfig.unixPath = options.socketPath;
  std::vector<std::unique_ptr<QoSAgentClient>> blocking;
  std::vector<std::unique_ptr<PipelinedClient>> pipelined;
  for (int c = 0; c < config.connections; ++c) {
    std::optional<ClientError> connectError;
    if (config.window == 0) {
      blocking.push_back(std::make_unique<QoSAgentClient>(clientConfig));
      connectError = blocking.back()->connect();
    } else {
      pipelined.push_back(std::make_unique<PipelinedClient>(
          clientConfig, config.window, /*corked=*/!openLoop));
      connectError = pipelined.back()->connect();
    }
    if (connectError.has_value()) {
      out.problem = "connect failed: " + connectError->message;
      return out;
    }
  }
  out.setupS = secondsBetween(setupStart, nowNs());

  // --- Measured phase. ---
  std::vector<ClientLog> logs;
  logs.reserve(static_cast<std::size_t>(config.connections));
  for (int c = 0; c < config.connections; ++c) {
    logs.emplace_back(static_cast<std::uint32_t>(c + 1));
  }
  SpanLog roundLog(0);
  const std::int64_t start = nowNs();
  const std::uint64_t rootSpan =
      traced ? roundLog.open("live.round", start, 0, 0) : 0;
  std::int64_t end = 0;
  std::vector<double> sendLagUs;
  if (openLoop) {
    end = runOpenLoop(*pipelined.front(), round, traced, rootSpan,
                      logs.front(), sendLagUs);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < logs.size(); ++c) {
      if (config.window == 0) {
        threads.emplace_back([&, c] {
          runBlockingClient(*blocking[c], round, next, config.cancelEvery,
                            traced, rootSpan, logs[c]);
        });
      } else {
        threads.emplace_back([&, c] {
          runPipelinedClient(*pipelined[c], round, next, config.window,
                             traced, rootSpan, logs[c]);
        });
      }
    }
    for (auto& thread : threads) thread.join();
    end = nowNs();
  }
  out.measuredS = secondsBetween(start, end);
  if (traced) roundLog.close(rootSpan, end);

  // --- Checks against the live server. ---
  QoSAgentClient verifier(clientConfig);
  const auto verify = verifier.verify();
  if (!verify.ok() || !verify->ok) {
    out.problem = "wire VERIFY failed: " +
                  (verify.ok() ? verify->firstViolation
                               : verify.error.message);
  }
  verifier.close();
  // RESHAPED pushes travel separately from responses: wait (bounded) until
  // every move the server dispatched has reached its connection.
  std::vector<tprm::service::ReshapeEvent> events;
  const auto waitUntil =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (;;) {
    for (auto& client : pipelined) {
      for (auto& event : client->drainReshapeEvents()) {
        events.push_back(std::move(event));
      }
    }
    out.reshapeEventsDispatched = server.counters().reshapeEventsDispatched;
    if (events.size() >= out.reshapeEventsDispatched ||
        std::chrono::steady_clock::now() > waitUntil) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto counters = server.counters();
  out.busyRejections = counters.busyRejections;
  out.queueDepthMax = queueDepthMax(server, config.shards);
  for (auto& client : pipelined) client->close();
  for (auto& client : blocking) client->close();
  server.stop();

  // --- What the clients saw. ---
  PlacementLedger ledger;
  std::unordered_map<std::uint64_t, double> floorByJob;
  std::vector<double> latencyUs;
  for (auto& log : logs) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    out.undecodable += log.undecodable;
    out.cancels += log.cancels;
    out.busyRetries += log.busyRetries;
    out.negotiations += log.answers.size();
    for (auto& [index, latency, decision] : log.answers) {
      if (index >= config.warmupJobs) latencyUs.push_back(latency);
      if (traced) {
        out.decisionsBySeq[decision.arrivalSeq] =
            LiveDecision{decision.admitted, decision.jobId,
                         decision.chainIndex, decision.quality,
                         decision.placements};
      }
      if (!decision.admitted) continue;
      ++out.admitted;
      floorByJob[decision.jobId] = round.jobs[index].floor;
      ledger.admit(decision.jobId, decision.quality,
                   std::move(decision.placements));
    }
  }
  out.offered = round.jobs.size();
  for (const auto& log : logs) {
    for (const auto& [jobId, freed] : log.cancelled) {
      ledger.cancel(jobId);
      if (traced) out.freedByJob[jobId] = freed;
    }
  }
  for (auto& event : events) {
    ledger.reshape(event.jobId, event.toQuality, std::move(event.placements));
  }
  for (const auto& [jobId, floor] : floorByJob) {
    if (ledger.quality(jobId) < floor - 1e-12) ++out.floorViolations;
  }
  out.latency = summarize(std::move(latencyUs));
  out.sendLag = summarize(std::move(sendLagUs));
  out.qualitySum = ledger.meanQuality() * static_cast<double>(out.admitted);
  out.utilization = ledger.utilization(config.processors);

  if (out.problem.empty() && out.undecodable > 0) {
    out.problem = std::to_string(out.undecodable) +
                  " responses did not decode";
  }
  if (out.problem.empty() && out.floorViolations > 0) {
    out.problem = std::to_string(out.floorViolations) +
                  " admitted jobs ended below their tenant floor";
  }
  if (out.problem.empty() && events.size() != out.reshapeEventsDispatched) {
    out.problem = "received " + std::to_string(events.size()) +
                  " of " + std::to_string(out.reshapeEventsDispatched) +
                  " RESHAPED moves";
  }
  if (traced) {
    out.spans = roundLog.spans();
    for (const auto& log : logs) {
      out.spans.insert(out.spans.end(), log.spans.spans().begin(),
                       log.spans.spans().end());
    }
  }
  return out;
}

}  // namespace perfbench
