#include "replay.h"

#include <algorithm>
#include <memory>
#include <variant>
#include <vector>

#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qos/sharded.h"
#include "service/protocol.h"
#include "service/wiretrace.h"

namespace perfbench {

namespace {

std::int64_t nowNs() { return tprm::obs::monotonicNanos(); }

LayerCounters readCounters(
    const std::vector<std::unique_ptr<tprm::obs::NegotiationMetrics>>& shards,
    const tprm::obs::ShardedMetrics& sharded) {
  LayerCounters c;
  for (const auto& m : shards) {
    c.negotiations += m->negotiations->value();
    c.admitted += m->admitted->value();
    c.fitProbes += m->profile.fitProbes->value();
    c.fitHintHits += m->profile.fitHintHits->value();
    c.fitHintMisses += m->profile.fitHintMisses->value();
    c.segmentsScanned += m->profile.segmentsScanned->value();
    c.trialRollbacks += m->profile.trialRollbacks->value();
    c.trialOpsUndone += m->profile.trialOpsUndone->value();
    c.trialCommits += m->profile.trialCommits->value();
    c.chainsEvaluated += m->arbitrator.chainsEvaluated->value();
    c.chainsSchedulable += m->arbitrator.chainsSchedulable->value();
    c.reshapeAttempts += m->elastic.reshapeAttempts->value();
    c.reshapeAdmitted += m->elastic.reshapeAdmitted->value();
    c.demotions += m->elastic.demotions->value();
  }
  c.spillAttempts = sharded.spillAttempts->value();
  c.spillAdmitted = sharded.spillAdmitted->value();
  c.gangAttempts = sharded.gangAttempts->value();
  c.gangAdmitted = sharded.gangAdmitted->value();
  return c;
}

bool sameDecision(const LiveDecision& live,
                  const tprm::service::NegotiateResult& replayed) {
  if (live.admitted != replayed.admitted || live.jobId != replayed.jobId) {
    return false;
  }
  return !live.admitted || (live.chainIndex == replayed.chainIndex &&
                            live.quality == replayed.quality &&
                            live.placements == replayed.placements);
}

}  // namespace

void LayerCounters::add(const LayerCounters& o) {
  negotiations += o.negotiations;
  admitted += o.admitted;
  fitProbes += o.fitProbes;
  fitHintHits += o.fitHintHits;
  fitHintMisses += o.fitHintMisses;
  segmentsScanned += o.segmentsScanned;
  trialRollbacks += o.trialRollbacks;
  trialOpsUndone += o.trialOpsUndone;
  trialCommits += o.trialCommits;
  chainsEvaluated += o.chainsEvaluated;
  chainsSchedulable += o.chainsSchedulable;
  reshapeAttempts += o.reshapeAttempts;
  reshapeAdmitted += o.reshapeAdmitted;
  demotions += o.demotions;
  spillAttempts += o.spillAttempts;
  spillAdmitted += o.spillAdmitted;
  gangAttempts += o.gangAttempts;
  gangAdmitted += o.gangAdmitted;
}

ReplayResult replayRecording(const std::string& path,
                             const WorkloadConfig& config,
                             const tprm::qos::ReshapePolicy* policy,
                             const RoundOutcome* live, SpanLog& log) {
  using namespace tprm;
  ReplayResult out;
  const auto loaded = service::loadWireTrace(path);
  if (!loaded.ok()) {
    out.problem = "recording unreadable: " + loaded.message;
    return out;
  }

  // The arbitrator the server built, with the server's sizing.
  obs::MetricsRegistry registry;
  std::vector<std::unique_ptr<obs::NegotiationMetrics>> bundles;
  std::vector<obs::NegotiationMetrics*> perShard;
  for (int k = 0; k < config.shards; ++k) {
    bundles.push_back(std::make_unique<obs::NegotiationMetrics>(
        obs::NegotiationMetrics::fromRegistry(
            registry, "arbitrator.shard" + std::to_string(k))));
    perShard.push_back(bundles.back().get());
  }
  auto sharded = obs::ShardedMetrics::fromRegistry(registry, "sharded");
  qos::ShardedOptions options;
  options.shards = config.shards;
  options.gang = config.gang;
  qos::ShardedArbitrator arbitrator(config.processors, options);
  if (config.elastic) arbitrator.attachReshapePolicy(policy);
  arbitrator.attachMetrics(perShard, config.shards > 1 ? &sharded : nullptr);

  const net::FrameLimits limits;
  net::FrameDecoder decoder(limits);
  std::string wire;
  std::string payload;
  std::vector<qos::QualityMove> moves;
  const auto fail = [&out](std::string problem) {
    if (out.problem.empty()) out.problem = std::move(problem);
  };
  const std::uint64_t root = log.open("replay.round", nowNs(), 0, 0);
  for (const auto& record : loaded.records) {
    wire.clear();
    (void)net::appendFrame(wire, record.payload, limits);

    const std::int64_t t0 = nowNs();
    decoder.feed(wire.data(), wire.size());
    const bool framed = decoder.next(&payload);
    const std::int64_t t1 = nowNs();
    auto parsed = service::decodeRequest(payload);
    const std::int64_t t2 = nowNs();
    if (!framed || !parsed.ok()) {
      fail("recorded request " + std::to_string(record.arrivalSeq) +
           " does not decode: " + parsed.error);
      continue;
    }
    const service::Request& request = *parsed.request;
    const bool negotiate = request.command == service::Command::Negotiate;
    if (!negotiate && request.command != service::Command::Cancel) continue;

    service::Response response;
    response.id = request.id;
    response.ok = true;
    moves.clear();
    const std::int64_t t3 = nowNs();
    if (negotiate) {
      const auto& body = std::get<service::NegotiateRequest>(request.payload);
      const std::uint64_t jobId = arbitrator.reserveJobId();
      Time effectiveRelease = body.release;
      const auto decision = arbitrator.submit(jobId, body.spec, body.release,
                                              &effectiveRelease, &moves);
      service::NegotiateResult result;
      result.admitted = decision.admitted;
      result.jobId = jobId;
      result.arrivalSeq = record.arrivalSeq;
      result.release = effectiveRelease;
      result.chainsConsidered = decision.chainsConsidered;
      result.chainsSchedulable = decision.chainsSchedulable;
      if (decision.admitted) {
        result.chainIndex = decision.schedule.chainIndex;
        result.quality = decision.quality;
        result.placements = decision.schedule.placements;
        result.bindings = body.spec.chains[result.chainIndex].bindings;
      }
      if (live != nullptr) {
        const auto it = live->decisionsBySeq.find(record.arrivalSeq);
        if (it == live->decisionsBySeq.end() ||
            !sameDecision(it->second, result)) {
          ++out.mismatches;
        }
      }
      response.result = std::move(result);
      ++out.negotiations;
    } else {
      const auto jobId = std::get<service::CancelRequest>(request.payload).jobId;
      service::CancelResult result;
      result.freedTicks = arbitrator.cancel(jobId, &moves);
      if (live != nullptr) {
        const auto it = live->freedByJob.find(jobId);
        if (it == live->freedByJob.end() || it->second != result.freedTicks) {
          ++out.mismatches;
        }
      }
      response.result = result;
      ++out.cancels;
    }
    const std::int64_t t4 = nowNs();
    const std::string encoded = service::encodeResponse(response);
    const std::int64_t t5 = nowNs();
    if (!service::decodeResponse(encoded).ok()) {
      fail("replayed response " + std::to_string(record.arrivalSeq) +
           " does not decode");
    }

    const std::uint64_t parent =
        log.open("replay.request", t0, root, record.arrivalSeq);
    log.add("net.frame_decode", t0, t1, parent, record.arrivalSeq);
    log.add("service.decode_request", t1, t2, parent, record.arrivalSeq);
    log.add(negotiate ? "qos.submit" : "qos.cancel", t3, t4, parent,
            record.arrivalSeq);
    log.add("service.encode_response", t4, t5, parent, record.arrivalSeq);
    log.close(parent, t5);

    out.requestBytes += static_cast<double>(record.payload.size());
    out.responseBytes += static_cast<double>(encoded.size());
    for (int k = 0; k < config.shards; ++k) {
      out.peakSegments = std::max(
          out.peakSegments, arbitrator.shard(k).profile().segmentCount());
    }
  }
  log.close(root, nowNs());

  const auto report = arbitrator.verify();
  if (!report.ok) fail("replay ledger: " + report.firstViolation);
  if (out.mismatches > 0) {
    fail(std::to_string(out.mismatches) +
         " replayed decisions differ from the live run");
  }
  out.admitted = static_cast<std::size_t>(arbitrator.admittedCount());
  out.counters = readCounters(bundles, sharded);
  return out;
}

}  // namespace perfbench
