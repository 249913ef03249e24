// Small, pure helpers the ffbench harness is built on. They carry no
// FilterForward dependency so perfbench/tests can pin them in isolation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of `samples` (q in (0, 1]), reported only when the
// sample supports it: at least `min_beyond` samples must rank above it,
// i.e. n - ceil(q * n) >= min_beyond. With the default guard a p50 needs 20
// samples and a p95 needs 200. Returns nullopt otherwise.
std::optional<double> Percentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond = 10);

// Median of a non-empty sample (nearest-rank, no count guard): used for the
// handful of per-slice and per-setup values a run summarizes.
double Median(std::vector<double> samples);

// Median over groups (e.g. one per second of a run) of each group's guarded
// p50. A slow episode covering fewer than half the groups cannot move it, as
// it moves a p50 pooled over the whole run. Groups too small for a guarded
// p50 are skipped; nullopt when fewer than `min_groups` remain.
std::optional<double> MedianOfGroupP50s(
    const std::vector<std::vector<double>>& groups, std::size_t min_groups);

// Aggregate CPU counters of the "cpu " line of /proc/stat, in clock ticks.
struct CpuTimes {
  std::uint64_t busy = 0;   // user + nice + system + irq + softirq
  std::uint64_t idle = 0;   // idle + iowait
  std::uint64_t steal = 0;  // time the hypervisor ran someone else
  std::uint64_t total() const { return busy + idle + steal; }
};

// Parses the aggregate "cpu " line out of /proc/stat text. nullopt when the
// line is missing or has fewer than the 8 fields steal needs.
std::optional<CpuTimes> ParseProcStat(const std::string& text);

// Share of all ticks between two readings that the hypervisor stole; 0 when
// no tick elapsed.
double StealFraction(const CpuTimes& before, const CpuTimes& after);

// Reads /proc/stat now; nullopt where the file is unavailable.
std::optional<CpuTimes> ReadProcStat();

// Fixed open-loop arrival schedule: frame k of every camera is due at
// start_ns + k * 1e9 / fps, computed from k directly so rounding never
// accumulates and the pacer never drifts, whatever the system does.
class PacingSchedule {
 public:
  PacingSchedule(std::int64_t start_ns, std::int64_t fps);
  std::int64_t Due(std::int64_t k) const;
  std::int64_t fps() const { return fps_; }

 private:
  std::int64_t start_ns_;
  std::int64_t fps_;
};

}  // namespace perfbench
