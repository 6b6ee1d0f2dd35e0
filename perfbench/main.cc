// perfbench: the repository benchmark. One process runs one workload for a
// fixed, seeded amount of work, checks every output, and prints its metrics
// as the last line of stdout:
//
//   perfbench --workload fire_mix|fire_smp|admit_cold|redeploy
//             --seed N --seconds S --trace 0|1 [--fault ID]
//
// --seconds sizes the work (batches = S x a per-workload constant), it is
// not a timer: the same arguments always run the same ops. --trace 0
// reports the end-to-end metrics; --trace 1 reports the per-layer ledger
// (see README.md). --fault injects one FaultRegistry defect, for the
// oracle self-test: the run must then report failures and exit 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "perfbench/common.h"
#include "src/xbase/strfmt.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  u64 seed = 1;
  u64 seconds = 10;
  int trace = 0;
  std::string fault;
};

// Per-workload work sizing: timed batches per second of --seconds (about
// what a 4-vCPU AMD EPYC KVM host completes in that second) and warm-up
// batches.
struct Sizing {
  double batches_per_second;
  usize warmup_batches;
};

constexpr usize kSetups = 15;

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtoull(value, &end, 10);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--fault") {
      args.fault = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds >= 1 &&
         args.seconds <= 600 && (args.trace == 0 || args.trace == 1);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "fire_mix") return MakeFireWorkload(1);
  if (name == "fire_smp") return MakeFireWorkload(2);
  if (name == "admit_cold") return MakeAdmitColdWorkload();
  if (name == "redeploy") return MakeRedeployWorkload();
  return nullptr;
}

Sizing SizingFor(const std::string& name) {
  if (name == "fire_mix") return {165, 20};
  if (name == "fire_smp") return {210, 20};
  if (name == "admit_cold") return {90, 4};
  return {550, 20};  // redeploy
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const usize colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintResult(const RunStats& stats, const Metrics& metrics) {
  for (const std::string& failure : stats.failures) {
    std::printf("# failure: %s\n", failure.c_str());
  }
  std::printf("# error_rate: %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(stats.failed) /
                  static_cast<double>(std::max<u64>(stats.attempted, 1)),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.attempted));
  std::string json = xbase::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      stats.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(stats.attempted),
      static_cast<unsigned long long>(stats.failed));
  for (usize i = 0; i < metrics.size(); ++i) {
    json += xbase::StrFormat("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                             i == 0 ? "" : ", ", metrics[i].name.c_str(),
                             metrics[i].value, metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// End-to-end run: set up, warm up, then alternate throughput and latency
// batches. Set-up is timed kSetups times: once for the rig that runs the
// batches, and kSetups - 1 more times for spare rigs, discarded at once,
// spread evenly between the batches. The median so samples the host over
// the whole run: on a 4-vCPU KVM host set-up time flipped between two speeds
// for tens of milliseconds at a time.
int RunEndToEnd(const Args& args, const Sizing& sizing) {
  RunStats stats;
  std::vector<double> setup_s;
  auto set_up = [&](std::unique_ptr<Workload>& workload) {
    const u64 start = NowNs();
    workload = MakeWorkload(args.workload);
    const xbase::Status status = workload->Setup(args.seed, args.fault);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
    }
    return status.ok();
  };
  std::unique_ptr<Workload> workload;
  if (!set_up(workload)) {
    return 2;
  }
  std::printf("# topology: %s\n", workload->Topology().c_str());
  for (usize i = 0; i < sizing.warmup_batches; ++i) {
    (void)workload->RunBatch(BatchMode::kThroughput, stats);
  }
  // Enough latency batches (every other batch) for kMinWindows windows.
  const usize min_batches =
      (LatencyWindows::kMinWindows * LatencyWindows::kWindow +
       workload->ops_per_batch() - 1) /
      workload->ops_per_batch();
  const usize batches = std::max<usize>(
      min_batches, static_cast<usize>(sizing.batches_per_second *
                                      static_cast<double>(args.seconds)));
  const double ops = static_cast<double>(workload->ops_per_batch());
  const usize spare_every = std::max<usize>(1, 2 * batches / kSetups);
  for (usize i = 0; i < 2 * batches; ++i) {
    const BatchMode mode =
        i % 2 == 0 ? BatchMode::kThroughput : BatchMode::kLatency;
    const u64 ns = workload->RunBatch(mode, stats);
    if (mode == BatchMode::kThroughput) {
      stats.batch_ns_per_op.push_back(static_cast<double>(ns) / ops);
    }
    std::unique_ptr<Workload> spare;
    if ((i + 1) % spare_every == 0 && setup_s.size() < kSetups &&
        !set_up(spare)) {
      return 2;
    }
  }
  workload->FinalCheck(stats);
  if (stats.latency.windows() < LatencyWindows::kMinWindows) {
    stats.Fail("too few latency windows: p50/p99 are not resolved");
  }
  std::vector<double> sorted = stats.batch_ns_per_op;
  std::sort(sorted.begin(), sorted.end());
  std::printf(
      "# latency samples: %llu in %zu windows, throughput batches: %zu x "
      "%.0f ops, batch ns/op q1 %.1f median %.1f q3 %.1f\n",
      static_cast<unsigned long long>(stats.latency.count()),
      stats.latency.windows(), sorted.size(),
      ops, sorted[sorted.size() / 4], sorted[sorted.size() / 2],
      sorted[3 * sorted.size() / 4]);
  const double ns_per_op = Median(stats.batch_ns_per_op);
  Metrics metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", 1e9 / ns_per_op, "1/s"},
      {"op_p50_us", stats.latency.p50() / 1e3, "us"},
      {"op_p99_us", stats.latency.p99() / 1e3, "us"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  workload.reset();
  PrintResult(stats, metrics);
  return stats.failed == 0 ? 0 : 1;
}

// Traced run: the workload's own ops with and without one span per op
// (alternating batches; the difference is the tracing overhead), then the
// isolated layer probes of both stacks.
int RunTraced(const Args& args, const Sizing& sizing) {
  RunStats stats;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  xbase::Status status = workload->Setup(args.seed, args.fault);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  std::printf("# topology: %s\n", workload->Topology().c_str());
  for (usize i = 0; i < sizing.warmup_batches; ++i) {
    (void)workload->RunBatch(BatchMode::kThroughput, stats);
  }
  const usize batches = std::max<usize>(
      20, static_cast<usize>(sizing.batches_per_second *
                             static_cast<double>(args.seconds) / 4));
  const double ops = static_cast<double>(workload->ops_per_batch());
  std::vector<double> plain;
  std::vector<double> traced;
  for (usize i = 0; i < 2 * batches; ++i) {
    const BatchMode mode =
        i % 2 == 0 ? BatchMode::kThroughput : BatchMode::kTraced;
    const double ns_per_op =
        static_cast<double>(workload->RunBatch(mode, stats)) / ops;
    (mode == BatchMode::kTraced ? traced : plain).push_back(ns_per_op);
  }
  // Span kinds: the event kind (fire workloads), the corpus kind
  // (admit_cold) or 0 for a whole cycle (redeploy).
  std::vector<Span> spans = workload->TakeSpans();
  std::vector<std::vector<double>> by_kind(kEventKinds);
  for (const Span& span : spans) {
    by_kind[span.kind % kEventKinds].push_back(span.ns);
  }
  for (usize kind = 0; kind < kEventKinds; ++kind) {
    if (!by_kind[kind].empty()) {
      std::printf("# span kind %zu: %zu spans, median %.0f ns\n", kind,
                  by_kind[kind].size(), Median(by_kind[kind]));
    }
  }
  workload->FinalCheck(stats);
  const service::AdmissionMetrics service = workload->ServiceMetrics();
  workload.reset();

  Metrics metrics;
  const double plain_ns = Median(plain);
  metrics.push_back(
      {"trace_overhead_pct", 100 * (Median(traced) - plain_ns) / plain_ns,
       "%"});
  const u64 lookups = service.cache.hits + service.cache.misses;
  metrics.push_back({"service.cache_hit_ratio",
                     lookups == 0 ? 0.0
                                  : static_cast<double>(service.cache.hits) /
                                        static_cast<double>(lookups),
                     "ratio"});
  const u64 bpf_admissions = service.submitted - service.signature_checks;
  metrics.push_back({"service.verify_runs",
                     bpf_admissions == 0
                         ? 0.0
                         : static_cast<double>(service.verify_runs) /
                               static_cast<double>(bpf_admissions),
                     "1/admit"});
  for (auto* probe : {&ProbeFirePath, &ProbeSmp, &ProbeAdmission}) {
    status = probe(args.seed, stats, metrics);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: layer probe failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }
  PrintResult(stats, metrics);
  return stats.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  if (!ParseArgs(argc, argv, args) || MakeWorkload(args.workload) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fire_mix|fire_smp|admit_cold|"
                 "redeploy --seed N --seconds S --trace 0|1 [--fault ID]\n");
    return 2;
  }
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::printf(
      "# provenance: {\"workload\": %s, \"seed\": %llu, \"seconds\": %llu, "
      "\"trace\": %d, \"fault\": %s, \"nproc\": %ld, \"cpu_model\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"git_sha\": %s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(args.seconds), args.trace,
      JsonString(args.fault).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(CpuModel()).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(sha != nullptr ? sha : "unknown").c_str());
  const Sizing sizing = SizingFor(args.workload);
  return args.trace == 0 ? RunEndToEnd(args, sizing)
                         : RunTraced(args, sizing);
}
