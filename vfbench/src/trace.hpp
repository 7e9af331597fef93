// In-memory span recorder of the benchmark's traced mode.
//
// Each rank thread owns one Tracer and wraps every call it makes into a
// library layer in span("<layer>.<call>", ...).  A span records its name,
// start and end, the step it belongs to, its parent span, and the data
// traffic (messages and bytes from the rank's own CommStats) that moved
// inside it, so per-layer byte counts are measured where the work happens.
// Disarmed, span() costs two branches around the call.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vf/msg/cost_model.hpp"

namespace vfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string "<layer>.<call>" (or "step")
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int step = -1;    ///< step id; -1 for set-up calls
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  std::uint64_t data_msgs = 0;   ///< data messages this rank sent inside
  std::uint64_t data_bytes = 0;  ///< data bytes this rank sent inside

  [[nodiscard]] std::int64_t dur_ns() const { return end_ns - start_ns; }
};

/// The layer a span belongs to: its name up to the first '.'.
[[nodiscard]] std::string_view layer_of(const Span& s);

class Tracer {
 public:
  /// `stats` is the owning rank's counter block (Context::stats()); it
  /// must outlive the tracer.
  explicit Tracer(const vf::msg::CommStats& stats) : stats_(&stats) {}

  /// Turns recording on, with room for `reserve` spans so steady-state
  /// recording does not allocate.
  void arm(std::size_t reserve);
  [[nodiscard]] bool on() const noexcept { return on_; }
  void set_step(int step) noexcept { step_ = step; }

  /// Opens a span starting at t0 (nested under the innermost open span);
  /// returns its index for close().  Only call while on().
  int open(const char* name, std::int64_t t0);
  void close(int idx, std::int64_t t1);

  template <typename F>
  void span(const char* name, F&& f) {
    // One call site for f in both modes, so tracing cannot change how the
    // wrapped call is compiled.
    const int i = on_ ? open(name, now_ns()) : -1;
    f();
    if (i >= 0) close(i, now_ns());
  }

  [[nodiscard]] std::vector<Span> take() { return std::move(spans_); }

 private:
  const vf::msg::CommStats* stats_;
  bool on_ = false;
  int step_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span: its duration minus the durations of its
/// direct children.
[[nodiscard]] std::vector<std::int64_t> self_ns(const std::vector<Span>& s);

/// Writes per-rank spans as Chrome trace-event JSON (one "X" event per
/// span, tid = rank, timestamps in microseconds from `origin_ns`).
void write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<Span>>& per_rank,
                        std::int64_t origin_ns);

}  // namespace vfbench
