// In-memory span recording for the traced run: one span per call the
// driver makes into a gqlite module, kept per thread and written out
// when the run ends. With tracing off no span is recorded and no clock
// is read on its behalf.
#ifndef CYPHERBENCH_DRIVER_TRACE_H_
#define CYPHERBENCH_DRIVER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cypherbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The gqlite module a span's call enters; `kDriver` marks the
/// benchmark's own per-operation root spans.
enum class Layer : uint8_t { kDriver, kFrontend, kPlan, kCore, kUpdate,
                             kStorage, kGraph };
inline constexpr const char* kLayerNames[] = {
    "driver", "frontend", "plan", "core", "update", "storage", "graph"};

/// Which part of the run a span belongs to. Per-layer metrics are taken
/// over the timed phase and the write phase only.
enum class Phase : uint8_t { kSetup, kTimed, kWrite, kRecovery };
inline constexpr const char* kPhaseNames[] = {"setup", "timed", "write",
                                              "recovery"};

struct SpanRecord {
  const char* name = nullptr;  // static storage
  Layer layer = Layer::kDriver;
  Phase phase = Phase::kSetup;
  int32_t parent = -1;  // index in the same thread's records
  uint64_t op = 0;      // operation id; spans of one operation share it
  int64_t start_ns = 0, end_ns = 0;
};

/// The spans of one thread. Only that thread touches it until the run
/// ends and the driver reads every thread's records.
class ThreadTrace {
 public:
  explicit ThreadTrace(uint32_t thread) : thread_(thread) {}

  int32_t Open(const char* name, Layer layer, uint64_t op) {
    SpanRecord r;
    r.name = name;
    r.layer = layer;
    r.phase = phase_;
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.op = op;
    records_.push_back(r);
    stack_.push_back(static_cast<int32_t>(records_.size() - 1));
    records_.back().start_ns = NowNs();
    return stack_.back();
  }
  void Close(int32_t index) {
    records_[index].end_ns = NowNs();
    stack_.pop_back();
  }
  /// A value derived from several spans (e.g. Explain less Prepare).
  void Sample(const std::string& name, double value) {
    if (phase_ == Phase::kTimed || phase_ == Phase::kWrite) {
      samples_[name].push_back(value);
    }
  }

  void set_phase(Phase p) { phase_ = p; }
  uint32_t thread() const { return thread_; }
  const std::vector<SpanRecord>& records() const { return records_; }
  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

 private:
  uint32_t thread_;
  Phase phase_ = Phase::kSetup;
  std::vector<SpanRecord> records_;
  std::vector<int32_t> stack_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Owns every thread's trace. Disabled tracers hand out null traces,
/// which Span treats as "record nothing".
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  ThreadTrace* NewThread() {
    if (!enabled_) return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(
        std::make_unique<ThreadTrace>(static_cast<uint32_t>(threads_.size())));
    return threads_.back().get();
  }
  /// Call only after every recording thread has been joined.
  const std::vector<std::unique_ptr<ThreadTrace>>& threads() const {
    return threads_;
  }

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// Records one span for its scope (nothing when `t` is null).
class Span {
 public:
  Span(ThreadTrace* t, const char* name, Layer layer, uint64_t op = 0)
      : t_(t), index_(t ? t->Open(name, layer, op) : -1) {}
  ~Span() {
    if (t_) t_->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* t_;
  int32_t index_;
};

/// Aggregates of the recorded spans, over the timed and write phases.
struct SpanSummary {
  /// Durations in microseconds, by span name.
  std::map<std::string, std::vector<double>> durations_us;
  /// Self time (duration less the time covered by child spans) summed
  /// per layer, in microseconds; spans under a "probe" root (calls the
  /// traced run adds on the side) are left out.
  std::map<std::string, double> self_us;
  size_t spans = 0;
};
SpanSummary Summarize(const Tracer& tracer);

/// Writes every span as one tab-separated line: thread, op, parent,
/// layer, phase, name, start and end (ns since `origin_ns`).
bool WriteSpans(const Tracer& tracer, int64_t origin_ns,
                const std::string& path);

}  // namespace cypherbench

#endif  // CYPHERBENCH_DRIVER_TRACE_H_
