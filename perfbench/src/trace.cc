#include "src/trace.h"

#include <atomic>
#include <fstream>

namespace perfbench {

namespace {

thread_local std::vector<int> open_stack;
thread_local std::int64_t current_op = -1;

int ThreadNumber() {
  static std::atomic<int> next{0};
  thread_local int number = next.fetch_add(1);
  return number;
}

std::int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::SetOp(std::int64_t op) { current_op = op; }

int Tracer::Begin(const char* name, bool with_counters) {
  Span span;
  span.name = name;
  span.parent = open_stack.empty() ? -1 : open_stack.back();
  span.op = current_op;
  span.thread = ThreadNumber();
  span.has_counters = with_counters;
  const Counters start = with_counters ? Counters::Take() : Counters();
  span.start_ns = NowNs();
  int index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
    open_counters_.push_back(start);
  }
  open_stack.push_back(index);
  return index;
}

void Tracer::End(int index) {
  const std::int64_t end = NowNs();
  open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[index];
  span.end_ns = end;
  if (span.has_counters) {
    span.counters = Counters::Take() - open_counters_[index];
  }
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, LayerTotals> Tracer::Aggregate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[span.parent] += (span.end_ns - span.start_ns) / 1e6;
    }
  }
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    LayerTotals& layer = totals[span.name];
    const double duration = (span.end_ns - span.start_ns) / 1e6;
    ++layer.count;
    layer.inclusive_ms += duration;
    layer.self_ms += duration - child_ms[i];
    if (span.has_counters) {
      layer.counters += span.counters;
    }
  }
  return totals;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"name\": \"" << span.name << "\", \"ph\": \"X\", \"pid\": 1"
        << ", \"tid\": " << span.thread << ", \"ts\": " << span.start_ns / 1e3
        << ", \"dur\": " << (span.end_ns - span.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << span.parent
        << ", \"op\": " << span.op;
    if (span.has_counters) {
      for (int c = 0; c < Counters::kCount; ++c) {
        if (span.counters.value[c] != 0) {
          out << ", \"" << Counters::Name(c) << "\": " << span.counters.value[c];
        }
      }
    }
    out << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, bool with_counters) {
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) {
    index_ = tracer.Begin(name, with_counters);
  }
}

ScopedSpan::~ScopedSpan() {
  if (index_ >= 0) {
    Tracer::Get().End(index_);
  }
}

}  // namespace perfbench
