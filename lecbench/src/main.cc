// lecbench — end-to-end benchmark of the lecopt serving stack.
//
//   lecbench --workload hot_serve|cold_optimize|adaptive_exec
//            --seed N --seconds S --trace 0|1 [--span-dir DIR]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// report the per-layer metrics and print the layer ladder. Every run
// checks every answer. Human-readable lines come first; the last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A "COUNTERS {...}" line before it carries the counters that must repeat
// exactly for one seed, and the corpus fingerprint.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: lecbench --workload hot_serve|cold_optimize|"
               "adaptive_exec --seed N --seconds S --trace 0|1 "
               "[--span-dir DIR]\n");
}

std::string JsonNumber(double v) { return lecbench::Format("%.17g", v); }

}  // namespace

int main(int argc, char** argv) {
  lecbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--span-dir") {
      config.span_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || !(config.seconds > 0) ||
      (config.workload != "hot_serve" && config.workload != "cold_optimize" &&
       config.workload != "adaptive_exec")) {
    Usage();
    return 2;
  }

  lecbench::Ledger ledger;
  lecbench::Report report;
  try {
    report = config.workload == "adaptive_exec"
                 ? lecbench::RunAdaptiveExec(config, &ledger)
                 : lecbench::RunServeWorkload(config, &ledger);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lecbench: %s\n", e.what());
    return 1;
  }

  size_t failed = ledger.failures();
  size_t attempted = std::max<size_t>(report.attempted, 1);
  bool finite = true;
  for (const lecbench::Metric& m : report.metrics) {
    finite = finite && std::isfinite(m.value);
  }
  bool correct = failed == 0 && finite && report.attempted > 0;

  std::printf("lecbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const lecbench::Metric& m : report.metrics) {
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-32s %18.6f %s\n", "error_rate",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "fraction");
  for (const std::string& msg : ledger.messages()) {
    std::printf("FAILED: %s\n", msg.c_str());
  }

  std::string counters = "{";
  for (const auto& [name, value] : report.counters) {
    if (counters.size() > 1) counters += ", ";
    counters += "\"" + name + "\": " + JsonNumber(value);
  }
  counters += ", \"corpus_fingerprint\": \"" +
              lecbench::Format("%016llx", static_cast<unsigned long long>(
                                              report.corpus_fingerprint)) +
              "\"}";
  std::printf("COUNTERS %s\n", counters.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const lecbench::Metric& m : report.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " +
            (std::isfinite(m.value) ? JsonNumber(m.value) : "null") +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
