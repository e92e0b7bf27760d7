// The traced run's in-process replay: the request stream a traced round's
// server recorded (in arrivalSeq order) is fed again, one request at a time,
// through each layer's public functions, each call timed as a span:
//
//   net.frame_decode         net::FrameDecoder::feed + next
//   service.decode_request   service::decodeRequest
//   qos.submit / qos.cancel  qos::ShardedArbitrator::submit / cancel
//   service.encode_response  service::encodeResponse
//
// The arbitrator carries fresh obs bundles, so the layer counters
// (profile, heuristic, elastic, spill, gang) are those of the replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "qos/qos.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Layer counters summed over every shard of the replay arbitrator.
struct LayerCounters {
  std::uint64_t negotiations = 0;
  std::uint64_t admitted = 0;
  std::uint64_t fitProbes = 0;
  std::uint64_t fitHintHits = 0;
  std::uint64_t fitHintMisses = 0;
  std::uint64_t segmentsScanned = 0;
  std::uint64_t trialRollbacks = 0;
  std::uint64_t trialOpsUndone = 0;
  std::uint64_t trialCommits = 0;
  std::uint64_t chainsEvaluated = 0;
  std::uint64_t chainsSchedulable = 0;
  std::uint64_t reshapeAttempts = 0;
  std::uint64_t reshapeAdmitted = 0;
  std::uint64_t demotions = 0;
  std::uint64_t spillAttempts = 0;
  std::uint64_t spillAdmitted = 0;
  std::uint64_t gangAttempts = 0;
  std::uint64_t gangAdmitted = 0;

  void add(const LayerCounters& other);
};

struct ReplayResult {
  std::size_t negotiations = 0;  // NEGOTIATEs replayed
  std::size_t admitted = 0;      // of them, admitted (spilled or gang too)
  std::size_t cancels = 0;
  double requestBytes = 0.0;   // summed NEGOTIATE/CANCEL payload bytes
  double responseBytes = 0.0;  // summed encoded response bytes
  /// Largest availability-profile segment count any shard reached.
  std::size_t peakSegments = 0;
  LayerCounters counters;
  /// Replayed decisions that differ from the live ones (when compared).
  std::size_t mismatches = 0;
  std::string problem;  // first failed check, empty when all passed
};

/// Replays the recording at `path`.  With `live` set, every NEGOTIATE and
/// CANCEL outcome must equal the live round's (valid for one shard, where
/// execution order is arrivalSeq order).  Spans go to `log`.
[[nodiscard]] ReplayResult replayRecording(
    const std::string& path, const WorkloadConfig& config,
    const tprm::qos::ReshapePolicy* policy, const RoundOutcome* live,
    SpanLog& log);

}  // namespace perfbench
