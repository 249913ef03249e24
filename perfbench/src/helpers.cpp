#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond) {
  if (samples.empty() || !(q > 0.0 && q <= 1.0)) return std::nullopt;
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n) - 1e-9)));
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return *Percentile(std::move(samples), 0.5, 0);
}

std::optional<double> MedianOfGroupP50s(
    const std::vector<std::vector<double>>& groups, std::size_t min_groups) {
  std::vector<double> p50s;
  for (const std::vector<double>& g : groups) {
    if (const auto p = Percentile(g, 0.5)) p50s.push_back(*p);
  }
  if (p50s.empty() || p50s.size() < min_groups) return std::nullopt;
  return Median(std::move(p50s));
}

std::optional<CpuTimes> ParseProcStat(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("cpu ", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    std::uint64_t v[8] = {};
    for (std::uint64_t& f : v) {
      if (!(fields >> f)) return std::nullopt;
    }
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted inside user/nice.
    CpuTimes t;
    t.busy = v[0] + v[1] + v[2] + v[5] + v[6];
    t.idle = v[3] + v[4];
    t.steal = v[7];
    return t;
  }
  return std::nullopt;
}

double StealFraction(const CpuTimes& before, const CpuTimes& after) {
  if (after.total() <= before.total() || after.steal < before.steal) {
    return 0.0;
  }
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total() - before.total());
}

std::optional<CpuTimes> ReadProcStat() {
  std::ifstream in("/proc/stat");
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  return ParseProcStat(text.str());
}

PacingSchedule::PacingSchedule(std::int64_t start_ns, std::int64_t fps)
    : start_ns_(start_ns), fps_(fps < 1 ? 1 : fps) {}

std::int64_t PacingSchedule::Due(std::int64_t k) const {
  return start_ns_ + k * 1'000'000'000 / fps_;
}

}  // namespace perfbench
