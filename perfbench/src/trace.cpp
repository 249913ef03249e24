#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::map<std::string, int> lanes;  // one trace row per seam
  for (const Span& s : spans_) {
    origin = std::min(origin, s.start_ns);
    lanes.emplace(s.name, static_cast<int>(lanes.size()) + 1);
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"span\":%llu,\"parent\":%llu}}%s\n",
                 s.name, lanes[s.name],
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.span),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
