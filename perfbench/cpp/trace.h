// The benchmark's own span recorder.  Spans are taken around calls into
// the program's public functions, kept in memory, and written once at
// exit; perfbench/amgbench/report.py turns them into self time per layer.
// Each SpanLog belongs to one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRec {
  const char* name;  ///< "<layer>.<call>", a string literal
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;   ///< index into the same log, -1 for a root
  std::int64_t request = -1;
};

class SpanLog {
 public:
  int begin(const char* name, int parent, std::int64_t request) {
    spans_.push_back({name, nowNs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].endNs = nowNs(); }
  const std::vector<SpanRec>& spans() const { return spans_; }

  /// Append every span as one JSON line: name, start, end, parent, request
  /// and the thread lane, so logs of several threads share one file.
  void write(std::FILE* out, int lane) const {
    for (const SpanRec& s : spans_)
      std::fprintf(out,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"request\":%lld,\"lane\":%d}\n",
                   s.name, static_cast<long long>(s.startNs),
                   static_cast<long long>(s.endNs), s.parent,
                   static_cast<long long>(s.request), lane);
  }

 private:
  std::vector<SpanRec> spans_;
};

/// RAII span; a null log records nothing (the untraced runs).
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, int parent = -1, std::int64_t request = -1)
      : log_(log), id_(log ? log->begin(name, parent, request) : -1) {}
  ~Scoped() {
    if (log_) log_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
