// tprmbench: the negotiation benchmark's driver (perfbench/run.py builds
// and runs it).
//
//   tprmbench --workload deep-churn --seed 1 --seconds 15 --trace 0
//
// Runs rounds of the workload (workloads.h) for --seconds and prints, as the
// last line of stdout, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": v, "unit": u}, ...}}
// --trace 0 reports the end-to-end metrics.  --trace 1 spends the first
// half of the time on untraced rounds and the second half on traced rounds
// (request stream recorded, client calls spanned, stream replayed layer by
// layer in-process, replay.h) and reports the per-layer metrics.  A full
// result with the host fingerprint and sample counts goes to
// <out-dir>/result-<workload>-seed<seed>-trace<t>.json; the traced run's
// spans go to <out-dir>/trace-<workload>.json as Chrome trace-event JSON.
// Exits 1 when a correctness check fails, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "elastic/reshaper.h"
#include "helpers.h"
#include "obs/trace.h"
#include "replay.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Hard stop for starting new rounds, well inside the 180 s a run may take.
constexpr double kWallCapS = 120.0;
/// Spans written to the Chrome trace (the rest are kept for the metrics).
constexpr std::size_t kTraceExportLimit = 100'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  std::string sourceDigest = "unknown";
  std::string outDir = ".bench_build/perfbench-out";
};

bool parseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) {
      *error = "unexpected argument " + key;
      return false;
    }
    key = key.substr(2);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "--" + key + " needs a value";
      return false;
    }
    try {
      if (key == "workload") {
        args->workload = value;
      } else if (key == "seed") {
        args->seed = std::stoull(value);
      } else if (key == "seconds") {
        args->seconds = std::stod(value);
      } else if (key == "trace") {
        args->trace = std::stoi(value);
      } else if (key == "commit") {
        args->commit = value;
      } else if (key == "source-digest") {
        args->sourceDigest = value;
      } else if (key == "out-dir") {
        args->outDir = value;
      } else {
        *error = "unknown flag --" + key;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for --" + key + ": " + value;
      return false;
    }
  }
  if (args->trace != 0 && args->trace != 1) {
    *error = "--trace wants 0 or 1";
    return false;
  }
  if (args->seconds <= 0) {
    *error = "--seconds must be > 0";
    return false;
  }
  return true;
}

double nowS() {
  return static_cast<double>(tprm::obs::monotonicNanos()) / 1e9;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string formatMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

/// Rounds of one phase plus, for traced phases, their replays.
struct Phase {
  std::vector<RoundOutcome> rounds;
  std::vector<ReplayResult> replays;
  std::vector<Span> spans;
};

Phase runPhase(const WorkloadConfig& config, const Args& args, bool traced,
               double budgetS, std::size_t minRounds, double runStartS,
               std::uint64_t* roundIndex,
               const tprm::qos::ReshapePolicy* policy) {
  Phase phase;
  const double start = nowS();
  const std::string tag = std::to_string(::getpid());
  SpanLog replayLog(0);
  while (phase.rounds.size() < minRounds ||
         (nowS() - start < budgetS && nowS() - runStartS < kWallCapS)) {
    RoundOptions options;
    options.socketPath = args.outDir + "/s" + tag + ".sock";
    if (traced) options.recordPath = args.outDir + "/record-" + tag + ".wtr";
    options.reshapePolicy = policy;
    const std::uint64_t seed = tprm::streamSeed(args.seed, (*roundIndex)++);
    RoundOutcome round = runRound(config, seed, options);
    const bool broken = !round.problem.empty();
    if (traced && !broken) {
      // Decisions replay exactly only where execution order is arrivalSeq
      // order: a single shard.
      const RoundOutcome* live = config.shards == 1 ? &round : nullptr;
      phase.replays.push_back(replayRecording(options.recordPath, config,
                                              policy, live, replayLog));
      round.decisionsBySeq.clear();
      round.freedByJob.clear();
      phase.spans.insert(phase.spans.end(), round.spans.begin(),
                         round.spans.end());
      round.spans.clear();
    }
    if (traced) std::filesystem::remove(options.recordPath);
    phase.rounds.push_back(std::move(round));
    if (broken) break;
  }
  phase.spans.insert(phase.spans.end(), replayLog.spans().begin(),
                     replayLog.spans().end());
  return phase;
}

std::string firstProblem(const Phase& phase) {
  for (const auto& round : phase.rounds) {
    if (!round.problem.empty()) return round.problem;
  }
  for (const auto& replay : phase.replays) {
    if (!replay.problem.empty()) return "traced replay: " + replay.problem;
  }
  return "";
}

template <typename F>
std::vector<double> perRound(const Phase& phase, F f) {
  std::vector<double> out;
  for (const auto& round : phase.rounds) out.push_back(f(round));
  return out;
}

/// End-to-end figures of a phase.  Timings come from the quietest rounds:
/// the best decile across rounds (the 90th percentile of per-round
/// throughput, the 10th of per-round latency percentiles).  Interference on
/// a shared host only ever slows a round down and arrives in episodes of
/// tens of seconds, so a median across rounds follows the neighbours while
/// the best decile follows the program.  Set-up time is the median over
/// rounds; admission and quality are pooled ratios.
struct EndToEnd {
  double throughputRps = 0, latencyP50Us = 0, latencyP99Us = 0;
  double ontimeRatio = 0, meanQuality = 0, utilization = 0, setupS = 0;
  double generateS = 0, sendLagP99Us = 0;
  double latencyMeanUs = 0, latencyTailPercentile = 0, latencyTailUs = 0;
  std::uint64_t attempted = 0, failed = 0, latencySamples = 0;
};

EndToEnd endToEnd(const Phase& phase) {
  EndToEnd e;
  std::uint64_t offered = 0, admitted = 0;
  double qualitySum = 0;
  for (const auto& round : phase.rounds) {
    e.attempted += round.attempted;
    e.failed += round.failed;
    offered += round.offered;
    admitted += round.admitted;
    qualitySum += round.qualitySum;
    e.latencySamples += round.latency.count;
  }
  const auto med = [&phase](auto f) { return median(perRound(phase, f)); };
  const auto best = [&phase](double p, auto f) {
    auto values = perRound(phase, f);
    return percentile(values, p);
  };
  e.throughputRps =
      best(90.0, [](const RoundOutcome& r) { return r.throughputRps(); });
  e.latencyP50Us = best(10.0, [](const RoundOutcome& r) { return r.latency.p50; });
  e.latencyP99Us = best(10.0, [](const RoundOutcome& r) { return r.latency.p99; });
  e.latencyMeanUs = med([](const RoundOutcome& r) { return r.latency.mean; });
  e.latencyTailPercentile =
      med([](const RoundOutcome& r) { return r.latency.tailPercentile; });
  e.latencyTailUs = med([](const RoundOutcome& r) { return r.latency.tailValue; });
  e.sendLagP99Us = best(10.0, [](const RoundOutcome& r) { return r.sendLag.p99; });
  e.utilization = med([](const RoundOutcome& r) { return r.utilization; });
  e.setupS = med([](const RoundOutcome& r) { return r.setupS; });
  e.generateS = med([](const RoundOutcome& r) { return r.generateS; });
  e.ontimeRatio = ratio(static_cast<double>(admitted), static_cast<double>(offered));
  e.meanQuality = ratio(qualitySum, static_cast<double>(admitted));
  return e;
}

std::vector<Metric> endToEndMetrics(const EndToEnd& e) {
  return {
      {"ontime_ratio", e.ontimeRatio, "ratio"},
      {"mean_quality", e.meanQuality, "quality"},
      {"utilization", e.utilization, "ratio"},
      {"setup_s", e.setupS, "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
}

LayerCounters sumCounters(const Phase& traced) {
  LayerCounters c;
  for (const auto& replay : traced.replays) c.add(replay.counters);
  return c;
}

/// The raw replay counters behind the per-layer ratios.
std::string countersJson(const LayerCounters& c) {
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"negotiations", c.negotiations},
      {"admitted", c.admitted},
      {"fit_probes", c.fitProbes},
      {"fit_hint_hits", c.fitHintHits},
      {"fit_hint_misses", c.fitHintMisses},
      {"segments_scanned", c.segmentsScanned},
      {"trial_rollbacks", c.trialRollbacks},
      {"trial_ops_undone", c.trialOpsUndone},
      {"trial_commits", c.trialCommits},
      {"chains_evaluated", c.chainsEvaluated},
      {"chains_schedulable", c.chainsSchedulable},
      {"reshape_attempts", c.reshapeAttempts},
      {"reshape_admitted", c.reshapeAdmitted},
      {"demotions", c.demotions},
      {"spill_attempts", c.spillAttempts},
      {"spill_admitted", c.spillAdmitted},
      {"gang_attempts", c.gangAttempts},
      {"gang_admitted", c.gangAdmitted},
  };
  std::string out = "{";
  for (const auto& [name, value] : fields) {
    out += (out.size() > 1 ? ", \"" : "\"") + std::string(name) +
           "\": " + std::to_string(value);
  }
  return out + "}";
}

std::vector<Metric> perLayerMetrics(const Phase& traced, const EndToEnd& plain,
                                    const EndToEnd& live) {
  const LayerCounters c = sumCounters(traced);
  std::size_t peakSegments = 0;
  double requestBytes = 0, responseBytes = 0;
  double replayed = 0, submits = 0, admitted = 0;
  for (const auto& replay : traced.replays) {
    submits += static_cast<double>(replay.negotiations);
    admitted += static_cast<double>(replay.admitted);
    peakSegments = std::max(peakSegments, replay.peakSegments);
    requestBytes += replay.requestBytes;
    responseBytes += replay.responseBytes;
    replayed += static_cast<double>(replay.negotiations + replay.cancels);
  }
  std::uint64_t busy = 0, reshapes = 0, requests = 0;
  std::vector<double> depth;
  for (const auto& round : traced.rounds) {
    busy += round.busyRejections;
    reshapes += round.reshapeEventsDispatched;
    requests += round.attempted;
    depth.push_back(static_cast<double>(round.queueDepthMax));
  }
  auto submit = summarize(durationsUs(traced.spans, "qos.submit"));
  auto cancel = summarize(durationsUs(traced.spans, "qos.cancel"));
  const double frameUs = mean(durationsUs(traced.spans, "net.frame_decode"));
  const double decodeUs =
      mean(durationsUs(traced.spans, "service.decode_request"));
  const double encodeUs =
      mean(durationsUs(traced.spans, "service.encode_response"));
  const auto d = [](std::uint64_t n, std::uint64_t over) {
    return ratio(static_cast<double>(n), static_cast<double>(over));
  };
  return {
      {"resource.segments_per_probe", d(c.segmentsScanned, c.fitProbes), "count"},
      {"resource.fit_probes_per_submit", ratio(static_cast<double>(c.fitProbes), submits), "count"},
      {"resource.fit_hint_hit_ratio", d(c.fitHintHits, c.fitHintHits + c.fitHintMisses), "ratio"},
      {"resource.trial_rollbacks_per_commit", d(c.trialRollbacks, c.trialCommits), "count"},
      {"resource.undo_ops_per_submit", ratio(static_cast<double>(c.trialOpsUndone), submits), "count"},
      {"resource.peak_segments", static_cast<double>(peakSegments), "count"},
      {"sched.chains_evaluated_per_submit", ratio(static_cast<double>(c.chainsEvaluated), submits), "count"},
      {"sched.chain_schedulable_ratio", d(c.chainsSchedulable, c.chainsEvaluated), "ratio"},
      {"qos.submit_us_p50", submit.p50, "us"},
      {"qos.submit_us_p99", submit.p99, "us"},
      {"qos.cancel_us_p50", cancel.p50, "us"},
      {"qos.spill_attempts_per_submit", ratio(static_cast<double>(c.spillAttempts), submits), "count"},
      {"qos.spill_admit_ratio", d(c.spillAdmitted, c.spillAttempts), "ratio"},
      {"qos.gang_admit_ratio", d(c.gangAdmitted, c.gangAttempts), "ratio"},
      {"qos.queue_depth_max", median(depth), "count"},
      {"elastic.reshape_attempts_per_submit", ratio(static_cast<double>(c.reshapeAttempts), submits), "count"},
      {"elastic.reshape_admit_ratio", d(c.reshapeAdmitted, c.reshapeAttempts), "ratio"},
      {"elastic.demotions_per_admit", ratio(static_cast<double>(c.demotions), admitted), "count"},
      {"net.frame_decode_ns_per_request", frameUs * 1e3, "ns"},
      {"net.request_bytes_mean", ratio(requestBytes, replayed), "bytes"},
      {"net.response_bytes_mean", ratio(responseBytes, replayed), "bytes"},
      {"service.decode_request_us_mean", decodeUs, "us"},
      {"service.encode_response_us_mean", encodeUs, "us"},
      {"service.busy_per_request", d(busy, requests), "ratio"},
      {"service.reshape_pushes_per_request", d(reshapes, requests), "ratio"},
      {"service.unattributed_us_mean",
       live.latencyMeanUs - (frameUs + decodeUs + submit.mean + encodeUs), "us"},
      {"workload.generate_s", plain.generateS, "s"},
      {"throughput_rps", plain.throughputRps, "1/s"},
      {"latency_p50_us", plain.latencyP50Us, "us"},
      {"latency_p99_us", plain.latencyP99Us, "us"},
      {"failed_ratio", ratio(static_cast<double>(plain.failed + live.failed),
                             static_cast<double>(plain.attempted + live.attempted)), "ratio"},
      {"trace.throughput_rps", live.throughputRps, "1/s"},
      {"trace.throughput_vs_untraced", ratio(live.throughputRps, plain.throughputRps), "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "tprmbench: %s\n", error.c_str());
    return 2;
  }
  auto config = workloadByName(args.workload);
  if (!config.has_value()) {
    std::fprintf(stderr, "tprmbench: unknown --workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.outDir);

  const HostFingerprint host =
      hostFingerprint(args.commit, args.sourceDigest);
  if (!host.optimized) {
    std::fprintf(stderr,
                 "tprmbench: WARNING: build type '%s' is not optimised; "
                 "timings are not comparable\n",
                 host.buildType.c_str());
  }
  const tprm::elastic::Reshaper reshaper;
  const double runStart = nowS();
  std::uint64_t roundIndex = 0;

  Phase untraced;
  Phase traced;
  if (args.trace == 0) {
    untraced = runPhase(*config, args, false, args.seconds, 3, runStart,
                        &roundIndex, &reshaper);
  } else {
    untraced = runPhase(*config, args, false, args.seconds / 2, 2, runStart,
                        &roundIndex, &reshaper);
    if (firstProblem(untraced).empty()) {
      traced = runPhase(*config, args, true, args.seconds / 2, 2, runStart,
                        &roundIndex, &reshaper);
    }
  }
  std::string problem = firstProblem(untraced);
  if (problem.empty()) problem = firstProblem(traced);
  const bool correct = problem.empty();

  const EndToEnd plain = endToEnd(untraced);
  const EndToEnd live = endToEnd(traced);
  const std::vector<Metric> e2e = endToEndMetrics(plain);
  std::vector<Metric> layers;
  if (args.trace == 1) layers = perLayerMetrics(traced, plain, live);

  std::string traceFile;
  if (args.trace == 1 && !traced.spans.empty()) {
    traceFile = args.outDir + "/trace-" + config->name + ".json";
    std::vector<std::string> threads = {"replay / round"};
    for (int c = 0; c < config->connections; ++c) {
      threads.push_back("client " + std::to_string(c + 1));
    }
    std::string traceError;
    if (!writeChromeTrace(traceFile, traced.spans,
                          traced.spans.front().startNs, threads,
                          kTraceExportLimit, &traceError)) {
      std::fprintf(stderr, "tprmbench: %s\n", traceError.c_str());
      traceFile.clear();
    }
  }

  // Full result: fingerprint, sample counts, both metric sets.
  const EndToEnd& measured = args.trace == 0 ? plain : live;
  const std::uint64_t attempted = plain.attempted + live.attempted;
  const std::uint64_t failed = plain.failed + live.failed;
  const auto submitSamples = durationsUs(traced.spans, "qos.submit").size();
  char buf[512];
  std::string detail = "{\"workload\": \"" + config->name + "\"";
  std::snprintf(buf, sizeof buf,
                ", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                "\"rounds\": {\"untraced\": %zu, \"traced\": %zu}, "
                "\"round_jobs\": %zu",
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace, untraced.rounds.size(), traced.rounds.size(),
                config->roundJobs);
  detail += buf;
  std::snprintf(buf, sizeof buf,
                ", \"host\": {\"cores\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"optimized\": %s, \"commit\": "
                "\"%s\", \"source_digest\": \"%s\"}",
                host.cores, host.compiler.c_str(), host.buildType.c_str(),
                host.optimized ? "true" : "false", host.commit.c_str(),
                host.sourceDigest.c_str());
  detail += buf;
  std::snprintf(buf, sizeof buf,
                ", \"samples\": {\"latency\": %llu, \"setup\": %zu, "
                "\"qos.submit\": %zu}, \"latency_tail_per_round\": "
                "{\"percentile\": %g, \"us\": %.3f}, \"failed_ratio\": "
                "%.6g, \"send_lag_p99_us\": %.3f, \"busy_retries\": %llu",
                static_cast<unsigned long long>(measured.latencySamples),
                untraced.rounds.size(), submitSamples,
                measured.latencyTailPercentile, measured.latencyTailUs,
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                measured.sendLagP99Us,
                static_cast<unsigned long long>(
                    [&] {
                      std::uint64_t n = 0;
                      for (const auto* p : {&untraced, &traced}) {
                        for (const auto& r : p->rounds) n += r.busyRetries;
                      }
                      return n;
                    }()));
  detail += buf;
  detail += ", \"round_throughput_rps\": [";
  for (const auto* phase : {&untraced, &traced}) {
    for (const auto& round : phase->rounds) {
      std::snprintf(buf, sizeof buf, "%s%.1f", detail.back() == '[' ? "" : ", ",
                    round.throughputRps());
      detail += buf;
    }
  }
  detail += "], \"round_latency_p50_p99_us\": [";
  for (const auto* phase : {&untraced, &traced}) {
    for (const auto& round : phase->rounds) {
      std::snprintf(buf, sizeof buf, "%s[%.1f, %.1f]",
                    detail.back() == '[' ? "" : ", ", round.latency.p50,
                    round.latency.p99);
      detail += buf;
    }
  }
  detail += "]";
  detail += ", \"problem\": " + tprm::JsonValue(problem).dumpCompact();
  detail += ", \"end_to_end\": " + formatMetrics(e2e);
  if (!layers.empty()) {
    detail += ", \"per_layer\": " + formatMetrics(layers);
    detail += ", \"replay_counters\": " + countersJson(sumCounters(traced));
  }
  if (!traceFile.empty()) detail += ", \"chrome_trace\": \"" + traceFile + "\"";
  detail += "}";
  const std::string resultFile = args.outDir + "/result-" + config->name +
                                 "-seed" + std::to_string(args.seed) +
                                 "-trace" + std::to_string(args.trace) +
                                 ".json";
  std::ofstream(resultFile) << detail << "\n";

  std::printf("workload %s seed %llu: %zu untraced + %zu traced rounds of %zu "
              "jobs in %.1f s\n",
              config->name.c_str(), static_cast<unsigned long long>(args.seed),
              untraced.rounds.size(), traced.rounds.size(), config->roundJobs,
              nowS() - runStart);
  std::printf("host: %u cores, %s, %s%s, commit %s\n", host.cores,
              host.compiler.c_str(), host.buildType.c_str(),
              host.optimized ? "" : " (NOT OPTIMISED)", host.commit.c_str());
  std::printf("latency samples %llu; per-round tail p%g = %.1f us (median)\n",
              static_cast<unsigned long long>(measured.latencySamples),
              measured.latencyTailPercentile, measured.latencyTailUs);
  if (!correct) std::printf("CHECK FAILED: %s\n", problem.c_str());
  std::printf("result: %s\n", resultFile.c_str());
  if (!traceFile.empty()) std::printf("chrome trace: %s\n", traceFile.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              formatMetrics(args.trace == 0 ? e2e : layers).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
