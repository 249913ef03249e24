// In-memory span recorder for the traced run. Spans are kept in memory while
// the workload runs and written out once, at exit, as Chrome trace-event
// JSON (load it in chrome://tracing or ui.perfetto.dev).
//
// A span names the seam it was taken at, its start and end on the steady
// clock, the id of the frame or request it belongs to, and its parent span
// (0 for a root). Recording is switched on and off per measurement slice so
// one run can compare traced and untraced slices of the same rig.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Parent/child links between seams are derived from the frame or request
// id, so a child can name its parent without the parent being recorded yet.
inline std::uint64_t FrameSpanId(std::int64_t stream, std::int64_t index) {
  return (1ull << 62) | (static_cast<std::uint64_t>(stream) << 40) |
         static_cast<std::uint64_t>(index);
}
inline std::uint64_t FetchSpanId(std::uint64_t request_id) {
  return (2ull << 62) | request_id;
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;      // frame or request id
    std::uint64_t span = 0;    // this span's id (0: anonymous leaf)
    std::uint64_t parent = 0;  // 0: root
  };

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  void Record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t id, std::uint64_t span = 0,
              std::uint64_t parent = 0) {
    if (!on()) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_ns, end_ns, id, span, parent});
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  // Writes every span as one complete ("X") trace event. Returns false when
  // the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
