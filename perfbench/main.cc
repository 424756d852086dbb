// DMap benchmark: runs one workload and prints its metrics.
//
//   dmap_perfbench --workload <lookup_zipf|mobility_mixed|wire_openloop>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <csv path>] [--smoke]
//
// Human-readable lines come first; the last line is one JSON object with
// the correctness verdict, the end-to-end metrics, the set-up time of each
// build, traced also the per-layer metrics, the ones the workload does not
// measure (with why) and the attribution table, and the machine and build
// fingerprint. Exit code 0 when every correctness check passed, 1 when one
// failed, 2 on bad arguments.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "dmap_perfbench: %s\nusage: dmap_perfbench --workload "
               "<lookup_zipf|mobility_mixed|wire_openloop> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>] [--smoke]\n",
               error);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  args.threads = std::min(4u, dmap::ThreadPool::HardwareConcurrency());
  return args;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonMetrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += JsonString(name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) + "}";
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::map<std::string, Metric>& m) {
  std::printf("%s:\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-36s %16.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Report (*run)(const Args&, SpanRecorder*) = nullptr;
  if (args.workload == "lookup_zipf") run = RunLookupZipf;
  if (args.workload == "mobility_mixed") run = RunMobilityMixed;
  if (args.workload == "wire_openloop") run = RunWireOpenLoop;
  if (run == nullptr) Usage(("unknown workload " + args.workload).c_str());

  std::unique_ptr<SpanRecorder> spans;
  if (args.trace) spans = std::make_unique<SpanRecorder>(args.threads);
  Report report;
  try {
    report = run(args, spans.get());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmap_perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("workload=%s seed=%llu seconds=%g trace=%d smoke=%d threads=%u\n",
              args.workload.c_str(), (unsigned long long)args.seed,
              args.seconds, int(args.trace), int(args.smoke), args.threads);
  PrintMetrics("end-to-end (untraced)", report.end_to_end);

  std::printf("set-up builds (s):  %9s %9s %9s %9s %9s %9s\n", "env",
              "labels", "dir24_8", "gen", "load", "total");
  for (const SetupTimes& t : report.setup_reps) {
    std::printf("                    %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                t.env_s, t.labels_s, t.dir_s, t.gen_s, t.load_s, t.total_s);
  }

  std::string largest;
  if (spans != nullptr) {
    PrintMetrics("per-layer (traced)", report.per_layer);
    std::printf("attribution (self time per call x calls in the untraced "
                "run, against %.3f ms measured):\n",
                report.attribution_measured_ms);
    double best = -1;
    for (const AttributionRow& row : report.attribution) {
      std::printf("  %-32s %12.1f ns x %14.0f = %12.3f ms\n",
                  row.layer.c_str(), row.self_ns_per_call, row.calls,
                  row.total_ms());
      if (row.total_ms() > best) best = row.total_ms(), largest = row.layer;
    }
    std::printf("  residual_frac = %.4f\n",
                report.per_layer["attribution.residual_frac"].value);
    std::printf("largest self time: %s\n", largest.c_str());
    std::printf("not measured on this workload (read as 0):\n");
    for (const auto& [name, why] : report.unmeasured) {
      std::printf("  %-36s %s\n", name.c_str(), why.c_str());
    }
    if (!args.spans_path.empty()) {
      if (!spans->WriteCsv(args.spans_path)) {
        report.Check(false, "could not write spans to " + args.spans_path);
      } else {
        std::printf("spans: %zu written to %s\n", spans->size(),
                    args.spans_path.c_str());
      }
    }
  }

  std::string failures = "[";
  for (const std::string& f : report.failures) {
    if (failures.size() > 1) failures += ",";
    failures += JsonString(f);
  }
  failures += "]";
  std::string sizes = "{";
  for (const auto& [name, value] : report.sizes) {
    if (sizes.size() > 1) sizes += ",";
    sizes += JsonString(name) + ":" + JsonNumber(value);
  }
  sizes += "}";
  std::string setup_reps = "[";
  for (const SetupTimes& t : report.setup_reps) {
    if (setup_reps.size() > 1) setup_reps += ",";
    setup_reps += "{\"env_s\":" + JsonNumber(t.env_s) +
                  ",\"labels_s\":" + JsonNumber(t.labels_s) +
                  ",\"dir24_8_s\":" + JsonNumber(t.dir_s) +
                  ",\"gen_s\":" + JsonNumber(t.gen_s) +
                  ",\"load_s\":" + JsonNumber(t.load_s) +
                  ",\"total_s\":" + JsonNumber(t.total_s) + "}";
  }
  setup_reps += "]";
  std::string unmeasured = "{";
  for (const auto& [name, why] : report.unmeasured) {
    if (unmeasured.size() > 1) unmeasured += ",";
    unmeasured += JsonString(name) + ":" + JsonString(why);
  }
  unmeasured += "}";
  std::string attribution = "[";
  for (const AttributionRow& row : report.attribution) {
    if (attribution.size() > 1) attribution += ",";
    attribution += "{\"layer\":" + JsonString(row.layer) +
                   ",\"self_ns_per_call\":" + JsonNumber(row.self_ns_per_call) +
                   ",\"calls\":" + JsonNumber(row.calls) +
                   ",\"total_ms\":" + JsonNumber(row.total_ms()) + "}";
  }
  attribution += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"correct\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"failures\":%s,\"end_to_end\":%s,\"per_layer\":%s,"
      "\"unmeasured\":%s,\"setup_reps\":%s,"
      "\"attribution\":{\"measured_ms\":%s,\"rows\":%s,\"largest_layer\":%s},"
      "\"sizes\":%s,\"fingerprint\":{\"nproc\":%u,\"threads\":%u,"
      "\"compiler\":%s,\"build_type\":%s}}\n",
      JsonString(args.workload).c_str(), (unsigned long long)args.seed,
      report.correct ? "true" : "false",
      (unsigned long long)report.attempted, (unsigned long long)report.failed,
      failures.c_str(), JsonMetrics(report.end_to_end).c_str(),
      JsonMetrics(report.per_layer).c_str(), unmeasured.c_str(),
      setup_reps.c_str(), JsonNumber(report.attribution_measured_ms).c_str(),
      attribution.c_str(), JsonString(largest).c_str(), sizes.c_str(),
      dmap::ThreadPool::HardwareConcurrency(), args.threads,
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str());
  return report.correct ? 0 : 1;
}
