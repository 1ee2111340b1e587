#include "trace.h"

#include <cstdio>
#include <cstring>

namespace cypherbench {

SpanSummary Summarize(const Tracer& tracer) {
  SpanSummary s;
  for (const auto& t : tracer.threads()) {
    const std::vector<SpanRecord>& recs = t->records();
    std::vector<int64_t> covered(recs.size(), 0);
    std::vector<size_t> root(recs.size());
    for (size_t i = 0; i < recs.size(); ++i) {
      const SpanRecord& r = recs[i];
      root[i] = r.parent < 0 ? i : root[r.parent];
      if (r.parent >= 0) covered[r.parent] += r.end_ns - r.start_ns;
    }
    for (size_t i = 0; i < recs.size(); ++i) {
      const SpanRecord& r = recs[i];
      if (r.phase != Phase::kTimed && r.phase != Phase::kWrite) continue;
      const double dur_us = static_cast<double>(r.end_ns - r.start_ns) / 1e3;
      s.durations_us[r.name].push_back(dur_us);
      ++s.spans;
      // Probe calls are extra work of the traced run, not of operations.
      if (std::strcmp(recs[root[i]].name, "probe") == 0) continue;
      s.self_us[kLayerNames[static_cast<int>(r.layer)]] +=
          dur_us - static_cast<double>(covered[i]) / 1e3;
    }
  }
  return s;
}

bool WriteSpans(const Tracer& tracer, int64_t origin_ns,
                const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\top\tparent\tlayer\tphase\tname\tstart_ns\tend_ns\n");
  for (const auto& t : tracer.threads()) {
    for (const SpanRecord& r : t->records()) {
      std::fprintf(f, "%u\t%llu\t%d\t%s\t%s\t%s\t%lld\t%lld\n", t->thread(),
                   static_cast<unsigned long long>(r.op), r.parent,
                   kLayerNames[static_cast<int>(r.layer)],
                   kPhaseNames[static_cast<int>(r.phase)], r.name,
                   static_cast<long long>(r.start_ns - origin_ns),
                   static_cast<long long>(r.end_ns - origin_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace cypherbench
