#include "obs/tracer.hpp"

#include <chrono>
#include <cstdio>

namespace vdx::obs {

SpanTracer::SpanTracer(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity_);
  epoch_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SpanTracer::wall_now() const noexcept {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return static_cast<double>(now - epoch_ns_) * 1e-9;
}

std::uint32_t SpanTracer::intern(std::string_view name) {
  const auto it = name_index_.find(name);
  if (it != name_index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_index_.emplace(names_.back(), id);
  return id;
}

std::uint64_t SpanTracer::begin(std::string_view name, std::uint64_t logical) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size());
  span.parent = open_stack_.empty() ? UINT32_MAX : open_stack_.back();
  span.depth = static_cast<std::uint32_t>(open_stack_.size());
  span.name_id = intern(name);
  span.seq_open = ++seq_;
  span.logical_open = logical;
  span.wall_open_s = wall_now();
  spans_.push_back(span);
  open_stack_.push_back(span.id);
  return span.id + 1;
}

void SpanTracer::end(std::uint64_t token, std::uint64_t logical) noexcept {
  if (token == 0 || token > spans_.size()) return;
  const auto id = static_cast<std::uint32_t>(token - 1);
  Span& span = spans_[id];
  if (span.closed) return;
  span.closed = true;
  span.seq_close = ++seq_;
  span.logical_close = logical;
  span.wall_close_s = wall_now();
  // RAII usage is LIFO; defensively unwind anything left open above us.
  while (!open_stack_.empty()) {
    const std::uint32_t top = open_stack_.back();
    open_stack_.pop_back();
    if (top == id) break;
  }
}

void SpanTracer::instant(std::string_view name, std::uint64_t logical) {
  end(begin(name, logical), logical);
}

std::string_view SpanTracer::name(const Span& span) const {
  return names_[span.name_id];
}

void SpanTracer::write_jsonl(std::ostream& out, bool include_wall) const {
  for (const Span& span : spans_) {
    out << "{\"span\":\"" << names_[span.name_id] << "\",\"id\":" << span.id;
    if (span.parent != UINT32_MAX) out << ",\"parent\":" << span.parent;
    out << ",\"depth\":" << span.depth << ",\"seq_open\":" << span.seq_open
        << ",\"seq_close\":" << span.seq_close
        << ",\"logical_open\":" << span.logical_open
        << ",\"logical_close\":" << span.logical_close;
    if (include_wall) {
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, ",\"wall_open_s\":%.9f,\"wall_close_s\":%.9f",
                    span.wall_open_s, span.wall_close_s);
      out << buffer;
    }
    out << ",\"closed\":" << (span.closed ? "true" : "false") << "}\n";
  }
}

}  // namespace vdx::obs
