// Spans and counters of the traced run, recorded from outside the program:
// the benchmark opens a span around each call it makes into a layer's
// public functions. Spans stay in memory and are written out once, when the
// run ends. A disabled Trace records nothing, so the untraced run and the
// untraced windows of the traced run pay one branch per call site.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util.h"

namespace perfbench {

class Trace {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Start recording; `expected_spans` pre-sizes the span buffer.
  void enable(std::size_t expected_spans);
  /// Pause or resume recording (used to interleave untraced windows).
  void set_recording(bool on) { recording_ = on && enabled_; }
  [[nodiscard]] bool recording() const { return recording_; }

  /// Open a span named `name` (a string literal) under the innermost open
  /// span; returns its id, or kNone when not recording.
  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);

  /// Summed time (ms), self time (ms) and count of every span name.
  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  [[nodiscard]] Totals totals(const std::string& name) const;

  /// Write every span (name, start, end, parent) and the totals as JSON.
  /// Returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;  ///< kNone for a root span
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool enabled_ = false;
  bool recording_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::vector<std::string> names_;
  std::unordered_map<const char*, std::uint32_t> name_ids_;
};

/// RAII span; a no-op when the trace is not recording.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const char* name)
      : trace_(trace), id_(trace.begin(name)) {}
  ~ScopedSpan() { trace_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace& trace_;
  std::uint32_t id_;
};

}  // namespace perfbench
