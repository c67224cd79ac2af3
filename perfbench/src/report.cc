// The result line every run prints, and the traced run's span log.
#include <charconv>
#include <cmath>
#include <fstream>

#include "bench.h"

namespace perfbench {
namespace {

/// Shortest decimal that reads back as the same double.
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Result::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

uint32_t SpanLog::Begin(const std::string& name, uint32_t parent,
                        uint64_t requests) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.requests = requests;
  span.start_ns = NanosBetween(origin_, Clock::now());
  spans_.push_back(std::move(span));
  return static_cast<uint32_t>(spans_.size());  // ids start at 1; 0 = root
}

void SpanLog::End(uint32_t id) {
  spans_[id - 1].end_ns = NanosBetween(origin_, Clock::now());
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i + 1
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"requests\": " << s.requests << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
