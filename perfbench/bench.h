// Shared plumbing of the DMap benchmark binary: arguments, the result
// report, the in-memory span recorder of the traced run, per-worker timing
// of thread-pool blocks, and the layer attribution table.
//
// The benchmark only calls the library's public API. Spans are recorded by
// the benchmark around the calls it makes into a layer; the library itself
// is not instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t NowNs() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now().time_since_epoch())
                           .count());
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny sizes for the self-check: every code path, seconds of work.
  bool smoke = false;
  std::string spans_path;  // where the traced run writes its spans
  unsigned threads = 4;    // min(4, hardware threads)
};

// Wall time of the untraced measurement. A traced run spends half of
// --seconds on it and about as long again on the traced pass of equal size.
inline double UntracedSeconds(const Args& args) {
  return args.trace ? args.seconds / 2 : args.seconds;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Set-up is built this many times in an untraced run and setup_s is the
// median; a traced run builds once.
constexpr int kSetupReps = 5;
inline int SetupReps(const Args& args) { return args.trace ? 1 : kSetupReps; }

// Wall time of each set-up step of one build of a workload's world.
struct SetupTimes {
  double env_s = 0, labels_s = 0, dir_s = 0, gen_s = 0, load_s = 0, total_s = 0;
};

// One row of the attribution table: a layer's mean self time per call in
// the traced run, times the number of calls the untraced run made.
struct AttributionRow {
  std::string layer;
  double self_ns_per_call = 0.0;
  double calls = 0.0;
  double total_ms() const { return self_ns_per_call * calls / 1e6; }
};

struct Report {
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::pair<std::string, double>> sizes;
  std::vector<AttributionRow> attribution;
  double attribution_measured_ms = 0.0;
  std::vector<SetupTimes> setup_reps;  // one per build, in build order
  // (per-layer metric, why this workload does not report it): the layer is
  // bypassed, or its calls run inside a span that is not split further. A
  // traced run reports every other per-layer metric; the runner reads these
  // as 0 and fails on any metric that is neither reported nor listed here.
  std::vector<std::pair<std::string, std::string>> unmeasured;

  // Records a correctness check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
  void Size(const std::string& name, double value) {
    sizes.emplace_back(name, value);
  }
  void Unmeasured(const std::string& why,
                  std::initializer_list<const char*> names) {
    for (const char* name : names) unmeasured.emplace_back(name, why);
  }
  // Records one build's set-up times and sets setup_s to the median total
  // over the builds so far.
  void Setup(const SetupTimes& t);
};

// ---- Spans ---------------------------------------------------------------

constexpr std::uint64_t kNoParent = ~std::uint64_t{0};

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t parent = kNoParent;  // span id of the parent, or kNoParent
  std::uint64_t op = 0;              // the operation the span belongs to
  std::uint32_t units = 1;           // layer calls the span covers
};

// In-memory span store with one lane per worker, so recording takes no
// lock. A span id is (lane << 40) | index within the lane.
class SpanRecorder {
 public:
  // Measures the duration of an empty span (the clock reads and the record
  // itself), which SelfTimes subtracts from every span.
  explicit SpanRecorder(unsigned lanes);

  std::uint64_t Begin(unsigned lane, const char* name, std::uint64_t parent,
                      std::uint64_t op, std::uint32_t units = 1) {
    std::vector<Span>& spans = lanes_[lane];
    spans.push_back(Span{name, NowNs(), 0, parent, op, units});
    return (std::uint64_t(lane) << 40) | (spans.size() - 1);
  }
  void End(std::uint64_t id) {
    Get(id).end_ns = NowNs();
  }
  std::size_t size() const;

  struct LayerSelf {
    double self_ns = 0.0;  // summed self time
    double units = 0.0;    // summed layer calls
    std::uint64_t spans = 0;
    double ns_per_unit() const { return units > 0 ? self_ns / units : 0.0; }
  };
  // Self time per span name: each span's duration minus the durations of
  // its child spans, every duration net of the empty-span cost. Children
  // here are the benchmark's replays of the work their parent did, timed
  // right after it, so they are subtracted by duration rather than by
  // interval overlap.
  std::map<std::string, LayerSelf> SelfTimes() const;
  double empty_span_ns() const { return empty_span_ns_; }

  // Writes every span as CSV (id, parent, op, name, start, end, units).
  bool WriteCsv(const std::string& path) const;

 private:
  Span& Get(std::uint64_t id) {
    return lanes_[id >> 40][id & ((std::uint64_t{1} << 40) - 1)];
  }
  std::vector<std::vector<Span>> lanes_;
  double empty_span_ns_ = 0.0;
};

// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, unsigned lane, const char* name,
             std::uint64_t parent, std::uint64_t op, std::uint32_t units = 1)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(lane, name, parent, op, units)
                     : kNoParent) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::uint64_t id_;
};

// Mean self time per layer call of the spans named `name`; 0 if none ran.
double SelfNs(const std::map<std::string, SpanRecorder::LayerSelf>& self,
              const std::string& name);

// ---- Thread-pool blocks --------------------------------------------------

// Per-worker busy time of RunChunks blocks, measured inside the
// benchmark's own chunk lambdas.
class PoolTimer {
 public:
  explicit PoolTimer(unsigned workers) : busy_ns_(workers, 0.0) {}

  // Runs fn(begin, end, worker) over [0, n) in chunks of `chunk` items.
  template <typename Fn>
  void Run(dmap::ThreadPool& pool, std::size_t n, std::size_t chunk,
           const Fn& fn) {
    if (n == 0) return;
    std::vector<double> block_busy(busy_ns_.size(), 0.0);
    const std::size_t chunks = (n + chunk - 1) / chunk;
    const std::uint64_t start = NowNs();
    pool.RunChunks(chunks, [&](std::size_t c, unsigned worker) {
      const std::uint64_t t0 = NowNs();
      const std::size_t begin = c * chunk;
      fn(begin, std::min(n, begin + chunk), worker);
      block_busy[worker] += double(NowNs() - t0);
    });
    const double wall = double(NowNs() - start);
    double max_busy = 0.0;
    for (std::size_t w = 0; w < busy_ns_.size(); ++w) {
      busy_ns_[w] += block_busy[w];
      max_busy = std::max(max_busy, block_busy[w]);
    }
    wall_ns_ += wall;
    dispatch_ns_ += wall - max_busy;
    ++calls_;
  }

  double busy_ns() const;
  // Busy time over workers x wall time of the blocks.
  double busy_frac() const;
  // Busiest worker's busy time over the mean.
  double imbalance() const;
  // Wall time of a block not covered by its busiest worker, per block.
  double dispatch_us() const {
    return calls_ > 0 ? dispatch_ns_ / double(calls_) / 1e3 : 0.0;
  }

 private:
  std::vector<double> busy_ns_;
  double wall_ns_ = 0.0;
  double dispatch_ns_ = 0.0;
  std::uint64_t calls_ = 0;
};

// ---- Helpers -------------------------------------------------------------

double Median(std::vector<double> values);
// Exact quantile (nearest rank) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double PeakRssMb();

// Splits a 64-bit seed into independent per-purpose streams.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t purpose);

// Fills the attribution metrics from report.attribution and the measured
// time, and prints the table.
void FinishAttribution(Report& report, double measured_ms);

// The workloads. `spans` is null for an untraced run; when set, the run
// measures an untraced pass, then a traced pass of the same size that
// records spans into it, and fills the per-layer metrics.
Report RunLookupZipf(const Args& args, SpanRecorder* spans);
Report RunMobilityMixed(const Args& args, SpanRecorder* spans);
Report RunWireOpenLoop(const Args& args, SpanRecorder* spans);

}  // namespace perfbench
