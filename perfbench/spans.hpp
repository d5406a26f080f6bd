// Span recorder of the traced run.
//
// The traced run is serial, so one recorder with a stack of open spans is
// enough: a span's parent is the span open when it began, and a layer's
// self time is its span's duration minus the durations of its direct
// children (children of one serial parent never overlap). Spans stay in
// memory and are written out as Chrome trace-event JSON when the run ends.
//
// A disabled recorder reads no clock and stores nothing; the untraced
// mirror runs against one, so traced minus untraced wall time is the
// tracing overhead.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace ttsc::perf {

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// RAII span. close() ends it early and returns its duration in seconds
  /// (0 when the recorder is disabled).
  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    double close();

   private:
    Spans* spans_;
    int index_ = -1;
    double seconds_ = 0.0;
  };

  Scope scope(const char* name) { return Scope(*this, name); }

  /// Self seconds summed per span name.
  std::map<std::string, double> self_seconds() const;

  /// {"traceEvents": [...]}: one complete ("X") event per span on one
  /// thread, with its id and its parent's id as args.
  std::string chrome_json() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name;
    int parent;
    Clock::time_point start;
    double seconds = 0.0;
    double child_seconds = 0.0;
  };

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace ttsc::perf
