#include "spans.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

constexpr int kIndexBits = 40;

std::string jsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::uint64_t SpanLog::add(const char* name, std::int64_t startNs,
                           std::int64_t endNs, std::uint64_t parent,
                           std::uint64_t requestId) {
  Span span;
  span.name = name;
  span.startNs = startNs;
  span.endNs = endNs;
  span.id = (static_cast<std::uint64_t>(tid_) << kIndexBits) |
            (spans_.size() + 1);
  span.parent = parent;
  span.requestId = requestId;
  span.tid = tid_;
  spans_.push_back(span);
  return span.id;
}

std::uint64_t SpanLog::open(const char* name, std::int64_t startNs,
                            std::uint64_t parent, std::uint64_t requestId) {
  return add(name, startNs, startNs, parent, requestId);
}

void SpanLog::close(std::uint64_t id, std::int64_t endNs) {
  byId(id).endNs = endNs;
}

Span& SpanLog::byId(std::uint64_t id) {
  const std::uint64_t mask = (std::uint64_t{1} << kIndexBits) - 1;
  return spans_.at(static_cast<std::size_t>((id & mask) - 1));
}

std::vector<double> durationsUs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const auto& span : spans) {
    if (name == span.name) out.push_back(span.durationUs());
  }
  return out;
}

bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      std::int64_t originNs,
                      const std::vector<std::string>& threadNames,
                      std::size_t limit, std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t tid = 0; tid < threadNames.size(); ++tid) {
    out << (first ? "" : ",\n")
        << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << jsonEscape(threadNames[tid]) << "\"}}";
    first = false;
  }
  char buf[320];
  const std::size_t count = spans.size() < limit ? spans.size() : limit;
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = spans[i];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"ph\":\"X\",\"cat\":\"perfbench\",\"name\":\"%s\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"request\":%llu}}",
        first ? "" : ",\n", s.name, s.tid,
        static_cast<double>(s.startNs - originNs) / 1e3, s.durationUs(),
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.requestId));
    out << buf;
    first = false;
  }
  out << "\n],\"otherData\":{\"spans_recorded\":" << spans.size()
      << ",\"spans_written\":" << count << "}}\n";
  out.close();
  if (!out) {
    if (error != nullptr) *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace perfbench
