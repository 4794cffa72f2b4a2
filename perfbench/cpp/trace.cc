#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

void Trace::enable(std::size_t expected_spans) {
  enabled_ = true;
  recording_ = true;
  origin_ = Clock::now();
  spans_.reserve(expected_spans);
  open_.reserve(16);
}

std::uint32_t Trace::begin(const char* name) {
  if (!recording_) return kNone;
  auto [it, inserted] =
      name_ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  spans_.push_back({it->second, open_.empty() ? kNone : open_.back(), now, now});
  open_.push_back(id);
  return id;
}

void Trace::end(std::uint32_t id) {
  if (id == kNone) return;
  spans_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  // Spans close innermost first; tolerate a caller closing out of order.
  while (!open_.empty()) {
    const std::uint32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, Trace::Totals> Trace::totals() const {
  // Self time: a span's duration minus the time its children cover.
  // Children of one parent never overlap (the benchmark runs on one thread).
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[names_[s.name]];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.total_ms += dur;
    t.self_ms += dur - static_cast<double>(child_ns[i]) / 1e6;
    ++t.count;
  }
  return out;
}

Trace::Totals Trace::totals(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  return it == all.end() ? Totals{} : it->second;
}

bool Trace::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"names\": [";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out << (i ? ", " : "") << '"' << names_[i] << '"';
  }
  out << "],\n\"totals\": {";
  bool first = true;
  char line[256];
  for (const auto& [name, t] : totals()) {
    std::snprintf(line, sizeof(line),
                  "%s\n  \"%s\": {\"total_ms\": %.6f, \"self_ms\": %.6f, "
                  "\"count\": %llu}",
                  first ? "" : ",", name.c_str(), t.total_ms, t.self_ms,
                  static_cast<unsigned long long>(t.count));
    out << line;
    first = false;
  }
  out << "},\n\"spans\": [\n";
  // One span per line: [name index, parent span (-1 = root), start ns, end ns].
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << '[' << s.name << ", "
        << (s.parent == kNone ? -1 : static_cast<long long>(s.parent)) << ", "
        << s.start_ns << ", " << s.end_ns << ']';
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
