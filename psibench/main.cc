// psibench: the repository benchmark. Runs one named workload against the
// public API of the service, core, match, signature and fsm layers, checks
// every answer against a reference, and prints each metric by name with its
// unit. The last stdout line is the result object; the line before it is
// the host and config block that makes ledgers from different builds or
// hosts visibly not comparable.
//
//   psibench --workload serve|deep|mine --seed N --seconds S --trace 0|1
//            [--span-dir DIR]

#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "signature/kernels.h"
#include "util/timer.h"
#include "workloads.h"

#ifndef PSIBENCH_BUILD_TYPE
#define PSIBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace psibench;

struct Args {
  std::string workload;
  RunOptions run;
  std::string span_dir;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "psibench: %s\nusage: psibench --workload serve|deep|mine "
               "--seed N --seconds S --trace 0|1 [--span-dir DIR]\n",
               message);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  args.run.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.run.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.run.trace = value == "1";
    } else if (flag == "--span-dir") {
      args.span_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!IsWorkload(args.workload)) Usage("unknown or missing --workload");
  if (!(args.run.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* DatasetName(graph::Dataset d) {
  return graph::GetDatasetSpec(d).name.c_str();
}

void PrintConfig(const Args& args, const WorkloadSpec& spec, const Inputs& in,
                 const Result& result, double input_s,
                 const std::vector<std::string>& not_exercised) {
#ifdef PSI_FAULT_INJECTION_ENABLED
  const bool fault_injection = true;
#else
  const bool fault_injection = false;
#endif
  std::string out = "{\"config\": {";
  out += "\"bench\": \"psibench\", \"workload\": \"" + args.workload + "\"";
  out += ", \"seed\": " + std::to_string(args.run.seed);
  out += ", \"seconds\": " + Number(args.run.seconds);
  out += ", \"trace\": " + std::string(args.run.trace ? "1" : "0");
  out += ", \"host\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"threads\": " + std::to_string(args.run.threads) +
         ", \"build_type\": \"" PSIBENCH_BUILD_TYPE "\"" +
         ", \"avx2_kernels\": " +
         (psi::signature::KernelsUseAvx2() ? "true" : "false") +
         ", \"fault_injection\": " + (fault_injection ? "true" : "false") +
         ", \"compiler\": \"" __VERSION__ "\"}";
  out += ", \"graph\": {\"dataset\": \"" + std::string(DatasetName(spec.dataset)) +
         "\", \"scale\": " + Number(spec.graph_scale) +
         ", \"nodes\": " + std::to_string(in.graph.num_nodes()) +
         ", \"edges\": " + std::to_string(in.graph.num_edges()) +
         ", \"labels\": " + std::to_string(in.graph.num_labels()) + "}";
  out += ", \"queries\": {\"size\": " + std::to_string(spec.query_size) +
         ", \"distinct\": " + std::to_string(in.queries.size()) +
         ", \"zipf_exponent\": " + Number(spec.zipf_exponent) +
         ", \"min_support\": " + std::to_string(spec.min_support) +
         ", \"max_edges\": " + std::to_string(spec.max_edges) + "}";
  out += ", \"inputs_s\": " + Number(input_s);
  out += ", \"reference_s\": " + Number(in.reference_seconds);
  out += ", \"realist_references\": " + std::to_string(in.realist_references);
  out += ", \"attempted\": " + std::to_string(result.tally.attempted);
  out += ", \"failed\": " + std::to_string(result.tally.failed);
  out += ", \"wrong\": " + std::to_string(result.tally.wrong);
  out += ", \"failed_share\": " +
         Number(result.tally.attempted == 0
                    ? 0.0
                    : static_cast<double>(result.tally.failed) /
                          static_cast<double>(result.tally.attempted));
  out += ", \"not_exercised\": [";
  for (size_t i = 0; i < not_exercised.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + not_exercised[i] + "\"";
  }
  out += "], \"run\": {";
  for (size_t i = 0; i < result.facts.size(); ++i) {
    out += (i == 0 ? "" : ", ") + result.facts[i];
  }
  out += "}}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const WorkloadSpec spec = FullSpec(args.workload);
  try {
    psi::util::WallTimer input_timer;
    Inputs in = MakeInputs(spec, args.run.threads);
    const double input_s = input_timer.Seconds();
    const std::string span_path =
        args.run.trace && !args.span_dir.empty()
            ? args.span_dir + "/" + args.workload + "-seed" +
                  std::to_string(args.run.seed) + ".jsonl"
            : "";
    const Result result = RunWorkload(spec, in, args.run, span_path);

    std::vector<std::string> not_exercised;
    std::string metrics;
    std::printf("%-32s %16s  %s\n", "metric", "value", "unit");
    for (const Metric& m :
         NamedMetrics(result, args.run.trace, &not_exercised)) {
      std::printf("%-32s %16.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      metrics += (metrics.empty() ? "" : ", ") + ("\"" + m.name + "\"") +
                 ": {\"value\": " + Number(m.value) + ", \"unit\": \"" +
                 m.unit + "\"}";
    }
    PrintConfig(args, spec, in, result, input_s, not_exercised);
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        result.correct() ? "true" : "false",
        static_cast<unsigned long long>(result.tally.attempted),
        static_cast<unsigned long long>(result.tally.failed), metrics.c_str());
    std::fflush(stdout);
    if (!result.correct()) {
      std::fprintf(stderr, "psibench: %llu wrong answers\n",
                   static_cast<unsigned long long>(result.tally.wrong));
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psibench: %s\n", e.what());
    return 3;
  }
}
