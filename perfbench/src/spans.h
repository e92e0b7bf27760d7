// Spans recorded by the benchmark's traced run, and their export as Chrome
// trace-event JSON (opens offline in Perfetto or chrome://tracing).
//
// A span is one timed call across a layer boundary: its name, start and end
// (monotonic nanoseconds), the span that caused it and the request it
// belongs to.  Each recording thread owns one SpanLog, so recording takes no
// lock; logs are concatenated when the run ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // string literal: span names are static
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  /// Unique across every log: (thread id << 40) | (index + 1).
  std::uint64_t id = 0;
  /// Id of the causing span; 0 for a root span.
  std::uint64_t parent = 0;
  /// Request the span belongs to (the server's arrivalSeq when known).
  std::uint64_t requestId = 0;
  std::uint32_t tid = 0;

  [[nodiscard]] double durationUs() const {
    return static_cast<double>(endNs - startNs) / 1e3;
  }
};

class SpanLog {
 public:
  explicit SpanLog(std::uint32_t tid) : tid_(tid) {}

  /// Records a finished span and returns its id.
  std::uint64_t add(const char* name, std::int64_t startNs,
                    std::int64_t endNs, std::uint64_t parent,
                    std::uint64_t requestId);
  /// Opens a span whose end is not known yet (a parent); close() ends it.
  std::uint64_t open(const char* name, std::int64_t startNs,
                     std::uint64_t parent, std::uint64_t requestId);
  void close(std::uint64_t id, std::int64_t endNs);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Span& byId(std::uint64_t id);

  std::uint32_t tid_;
  std::vector<Span> spans_;
};

/// Durations (microseconds) of every span called `name`.
[[nodiscard]] std::vector<double> durationsUs(const std::vector<Span>& spans,
                                              const std::string& name);

/// Writes `spans` (at most `limit`, in order) as a Chrome trace-event JSON
/// document: one complete ("X") event per span, timestamps in microseconds
/// from `originNs`, thread names from `threadNames` (index = tid).  Returns
/// false with *error set when the file cannot be written.
bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      std::int64_t originNs,
                      const std::vector<std::string>& threadNames,
                      std::size_t limit, std::string* error);

}  // namespace perfbench
