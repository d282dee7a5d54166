// vdx::obs umbrella: the Observer bundle threaded through the stack, and
// ScopedTimer, the one sanctioned wall-clock timing helper (DESIGN.md §7).
//
// Instrumented layers take an `Observer` by value — nullable pointers.
// The default Observer is the no-op sink: every instrumentation site guards
// on a null check (or uses a default-constructed no-op handle), so a
// non-observed hot loop pays a predictable branch and nothing else.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace vdx::obs {

/// The observability context handed down through configs. All pointers are
/// non-owning and nullable; a default Observer disables everything.
struct Observer {
  MetricsRegistry* metrics = nullptr;
  SpanTracer* tracer = nullptr;
  RunJournal* journal = nullptr;
  /// Read-only view of the logical clock of the engine running the protocol.
  /// The engine that owns the clock points its own copy here, so spans and
  /// journal records stamp the same value whichever sinks are attached.
  const std::uint64_t* clock = nullptr;

  /// Logical clock for span and journal stamping (0 outside an engine).
  [[nodiscard]] std::uint64_t logical_now() const noexcept {
    return clock != nullptr ? *clock : 0;
  }
  [[nodiscard]] SpanTracer::Scoped span(std::string_view name) const {
    return SpanTracer::Scoped{tracer, name, clock};
  }
  void instant(std::string_view name) const {
    if (tracer != nullptr) tracer->instant(name, logical_now());
  }
  void record(EventKind kind, std::uint32_t subject = RunJournal::kNoSubject,
              double value = 0.0) const {
    if (journal != nullptr) journal->record(kind, subject, value, logical_now());
  }
};

/// RAII wall-clock timer: on destruction, observes the elapsed seconds into
/// a histogram (if valid) and/or accumulates them into a double sink (if
/// non-null). Replaces hand-rolled steady_clock blocks.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram histogram, double* sink = nullptr) noexcept
      : histogram_(histogram), sink_(sink),
        start_(std::chrono::steady_clock::now()) {}
  explicit ScopedTimer(double* sink) noexcept : ScopedTimer(Histogram{}, sink) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

  ~ScopedTimer() {
    const double seconds = elapsed_seconds();
    if (histogram_.valid()) histogram_.observe(seconds);
    if (sink_ != nullptr) *sink_ += seconds;
  }

 private:
  Histogram histogram_;
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vdx::obs
