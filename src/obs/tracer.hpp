// SpanTracer: nested timed spans over the protocol engines (DESIGN.md §7).
//
// Each span records its interned name, parent/depth, a global event-sequence
// pair (seq_open/seq_close), the engine's *logical* clock at open/close, and
// wall-clock timestamps. The logical clock belongs to the engine that runs
// the protocol; spans only read it (begin/end take the reading, Scoped reads
// the clock it points at), so two runs with the same seed produce identical
// span streams. Wall-clock fields exist for profiling but are excluded from
// write_jsonl() by default precisely so the exported trace is byte-stable
// under a fixed seed.
//
// The tracer is bounded: spans beyond `capacity` are dropped (and counted)
// rather than grown without limit. It is deliberately single-threaded — the
// protocol engines are — unlike MetricsRegistry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vdx::obs {

class SpanTracer {
 public:
  explicit SpanTracer(std::size_t capacity = 1 << 16);

  /// Opens a span nested under the currently open one, stamped with the
  /// engine's logical clock reading. Returns a token for end(); token 0
  /// means the span was dropped (capacity) and end(0) is a no-op.
  [[nodiscard]] std::uint64_t begin(std::string_view name, std::uint64_t logical = 0);
  void end(std::uint64_t token, std::uint64_t logical = 0) noexcept;
  /// Records a zero-duration marker span (e.g. a participant-local protocol
  /// step the engine cannot time).
  void instant(std::string_view name, std::uint64_t logical = 0);

  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = UINT32_MAX;  // UINT32_MAX: root span
    std::uint32_t depth = 0;
    std::uint32_t name_id = 0;
    std::uint64_t seq_open = 0;
    std::uint64_t seq_close = 0;
    std::uint64_t logical_open = 0;
    std::uint64_t logical_close = 0;
    double wall_open_s = 0.0;
    double wall_close_s = 0.0;
    bool closed = false;
  };

  [[nodiscard]] std::span<const Span> spans() const noexcept { return spans_; }
  [[nodiscard]] std::string_view name(const Span& span) const;
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// One JSON object per span per line, in open order. Wall-clock fields are
  /// emitted only when `include_wall` — the default export is deterministic
  /// under a fixed seed (logical clock + sequence numbers only).
  void write_jsonl(std::ostream& out, bool include_wall = false) const;

  /// RAII span stamped from `clock` (0 when null) on open and close. A null
  /// tracer is a no-op, so call sites stay unconditional.
  class Scoped {
   public:
    Scoped(SpanTracer* tracer, std::string_view name,
           const std::uint64_t* clock = nullptr)
        : tracer_(tracer), clock_(clock),
          token_(tracer != nullptr ? tracer->begin(name, read(clock)) : 0) {}
    ~Scoped() {
      if (tracer_ != nullptr) tracer_->end(token_, read(clock_));
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    static std::uint64_t read(const std::uint64_t* clock) noexcept {
      return clock != nullptr ? *clock : 0;
    }

    SpanTracer* tracer_;
    const std::uint64_t* clock_;
    std::uint64_t token_;
  };

 private:
  [[nodiscard]] std::uint32_t intern(std::string_view name);
  [[nodiscard]] double wall_now() const noexcept;

  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_stack_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_index_;
  std::uint64_t seq_ = 0;
  std::size_t dropped_ = 0;
  std::uint64_t epoch_ns_ = 0;
};

}  // namespace vdx::obs
