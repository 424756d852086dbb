#include "bench.h"

#include <sys/resource.h>

#include <cmath>
#include <numeric>
#include <unordered_map>

namespace perfbench {

SpanRecorder::SpanRecorder(unsigned lanes) : lanes_(lanes) {
  constexpr int kCalibration = 20'000;
  lanes_[0].reserve(kCalibration);
  for (int i = 0; i < kCalibration; ++i) End(Begin(0, "calibration", kNoParent, 0));
  std::vector<double> durations;
  durations.reserve(kCalibration);
  for (const Span& span : lanes_[0]) {
    durations.push_back(double(span.end_ns - span.start_ns));
  }
  empty_span_ns_ = Median(durations);
  lanes_[0].clear();
}

std::size_t SpanRecorder::size() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane.size();
  return n;
}

std::map<std::string, SpanRecorder::LayerSelf> SpanRecorder::SelfTimes()
    const {
  std::unordered_map<std::uint64_t, double> child_ns;
  for (const auto& lane : lanes_) {
    for (const Span& span : lane) {
      if (span.parent != kNoParent) {
        child_ns[span.parent] +=
            double(span.end_ns - span.start_ns) - empty_span_ns_;
      }
    }
  }
  std::map<std::string, LayerSelf> out;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    for (std::size_t i = 0; i < lanes_[l].size(); ++i) {
      const Span& span = lanes_[l][i];
      const std::uint64_t id = (std::uint64_t(l) << 40) | i;
      const auto it = child_ns.find(id);
      LayerSelf& self = out[span.name];
      self.self_ns += double(span.end_ns - span.start_ns) - empty_span_ns_ -
                      (it == child_ns.end() ? 0.0 : it->second);
      self.units += double(span.units);
      ++self.spans;
    }
  }
  return out;
}

double SelfNs(const std::map<std::string, SpanRecorder::LayerSelf>& self,
              const std::string& name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : it->second.ns_per_unit();
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id,parent,op,name,start_ns,end_ns,units\n");
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    for (std::size_t i = 0; i < lanes_[l].size(); ++i) {
      const Span& s = lanes_[l][i];
      const std::uint64_t id = (std::uint64_t(l) << 40) | i;
      std::fprintf(out, "%llu,%lld,%llu,%s,%llu,%llu,%u\n",
                   (unsigned long long)id,
                   s.parent == kNoParent ? -1LL : (long long)s.parent,
                   (unsigned long long)s.op, s.name,
                   (unsigned long long)s.start_ns,
                   (unsigned long long)s.end_ns, s.units);
    }
  }
  return std::fclose(out) == 0;
}

double PoolTimer::busy_ns() const {
  return std::accumulate(busy_ns_.begin(), busy_ns_.end(), 0.0);
}

double PoolTimer::busy_frac() const {
  const double capacity = wall_ns_ * double(busy_ns_.size());
  return capacity > 0 ? busy_ns() / capacity : 0.0;
}

double PoolTimer::imbalance() const {
  const double mean = busy_ns() / double(busy_ns_.size());
  if (mean <= 0) return 0.0;
  return *std::max_element(busy_ns_.begin(), busy_ns_.end()) / mean;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * double(values.size()));
  const std::size_t index =
      std::size_t(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + purpose * 0xd1b54a32d192ed03ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

void Report::Setup(const SetupTimes& t) {
  setup_reps.push_back(t);
  std::vector<double> totals;
  for (const SetupTimes& rep : setup_reps) totals.push_back(rep.total_s);
  E2E("setup_s", Median(totals), "s");
}

void FinishAttribution(Report& report, double measured_ms) {
  report.attribution_measured_ms = measured_ms;
  double attributed_ms = 0.0;
  for (const AttributionRow& row : report.attribution) {
    attributed_ms += row.total_ms();
  }
  report.Layer("attribution.residual_frac",
               measured_ms > 0 ? (measured_ms - attributed_ms) / measured_ms
                               : 0.0,
               "ratio");
}

}  // namespace perfbench
