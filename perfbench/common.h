// Shared plumbing for the repository benchmark: timing, the latency
// histogram, per-run accounting, the fire-path rig (kernel + both extension
// stacks + the seeded tenant mix) and the workload interface every
// benchmark workload implements.
//
// Everything here sits *outside* the program under test: the benchmark
// only calls the public functions of src/{core,ebpf,staticcheck,service,
// simkern} and times those calls from its own code.
#pragma once

#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/core/hooks.h"
#include "src/core/sched.h"
#include "src/core/toolchain.h"
#include "src/ebpf/interp.h"
#include "src/service/admission.h"
#include "src/xbase/rand.h"
#include "src/xbase/types.h"

namespace perfbench {

using xbase::s32;
using xbase::u16;
using xbase::u32;
using xbase::u64;
using xbase::u8;
using xbase::usize;

inline u64 NowNs() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Median of a sample vector. 0 for an empty vector.
double Median(std::vector<double> values);

// Mean of the values between the first and third quartile: as robust to
// outliers as a median, but not pinned to the 10 ns steps the host clock
// reads in.
double InterquartileMean(std::vector<double> values);

// Per-op latencies, summarized per window of kWindow consecutive ops: the
// reported p50 and p99 are interquartile means over windows, so a burst of
// host noise moves a few windows rather than the figure. Each window's p99
// has 10 samples beyond it.
class LatencyWindows {
 public:
  static constexpr usize kWindow = 1024;
  static constexpr usize kMinWindows = 10;

  void Add(u64 ns);
  double p50() const { return InterquartileMean(p50_); }
  double p99() const { return InterquartileMean(p99_); }
  u64 count() const { return count_; }
  usize windows() const { return p50_.size(); }

 private:
  std::vector<u64> current_;
  std::vector<double> p50_;
  std::vector<double> p99_;
  u64 count_ = 0;
};

// What every run reports: correctness accounting plus the raw batch and
// op timings the end-to-end metrics are computed from.
struct RunStats {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;  // first few, for the human log
  std::vector<double> batch_ns_per_op;  // one entry per timed batch
  LatencyWindows latency;               // one sample per timed op

  void Fail(const std::string& why, u64 count = 1) {
    failed += count;
    if (failures.size() < 8) {
      failures.push_back(why);
    }
  }
};

// How a batch is run. kThroughput times the batch only; kLatency also
// times every op (the clock reads stay out of the throughput figure);
// kTraced records one span per op (the traced-run pass whose difference
// from kThroughput is the tracing overhead).
enum class BatchMode : u8 { kThroughput, kLatency, kTraced };

// Span record of the traced pass: which op kind, and how long it took.
struct Span {
  u8 kind = 0;
  u32 ns = 0;
};

// One benchmark workload. main.cc calls Setup on a fresh instance,
// warms it up, runs fixed-size batches, then FinalCheck.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual xbase::Status Setup(u64 seed, const std::string& fault) = 0;
  // Runs one fixed-size batch. Returns the batch's wall time in ns
  // (excluding any per-batch housekeeping done outside the timed region).
  virtual u64 RunBatch(BatchMode mode, RunStats& stats) = 0;
  virtual usize ops_per_batch() const = 0;
  // End-of-run invariants (counter sums, loader population, ...).
  virtual void FinalCheck(RunStats& stats) = 0;
  // Spans recorded by kTraced batches since the last call.
  virtual std::vector<Span> TakeSpans() = 0;
  // "workers=2 cpus=1"-style provenance.
  virtual std::string Topology() const = 0;
  // Admission-service counters for the traced ledger.
  virtual service::AdmissionMetrics ServiceMetrics() const = 0;
};

std::unique_ptr<Workload> MakeFireWorkload(u32 cpus);
std::unique_ptr<Workload> MakeAdmitColdWorkload();
std::unique_ptr<Workload> MakeRedeployWorkload();

// ---- the traced run's layer probes ----------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Times `fn` in `samples` groups of `group` back-to-back calls and returns
// the median ns per call (grouping keeps the clock reads out of
// nanosecond-scale calls).
template <typename Fn>
double MedianNsPerCall(usize samples, usize group, Fn&& fn) {
  std::vector<double> per_call;
  per_call.reserve(samples);
  for (usize s = 0; s < samples; ++s) {
    const u64 start = NowNs();
    for (usize g = 0; g < group; ++g) {
      fn();
    }
    per_call.push_back(static_cast<double>(NowNs() - start) /
                       static_cast<double>(group));
  }
  return Median(std::move(per_call));
}

// Each probe builds its own rig, times isolated calls into one side's
// layers and appends the per-layer metrics. Failures of checked calls are
// charged to `stats`.
xbase::Status ProbeFirePath(u64 seed, RunStats& stats, Metrics& out);
xbase::Status ProbeSmp(u64 seed, RunStats& stats, Metrics& out);
xbase::Status ProbeAdmission(u64 seed, RunStats& stats, Metrics& out);

// ---- the fire-path rig ------------------------------------------------------

// The seeded event mix both fire workloads (and the traced probes) drive.
enum class EventKind : u8 {
  kPacket,       // XDP packet-counter fire
  kSyscall,      // signed safex extension on kSyscallEnter
  kLsm,          // eBPF LSM file-open policy
  kSched,        // SchedCore tick (extension pick-next)
  kChurnUpdate,  // control-plane hash-map update
  kChurnDelete,  // control-plane hash-map delete
};
inline constexpr usize kEventKinds = 6;

struct Event {
  EventKind kind = EventKind::kPacket;
  u8 packet_class = 0;  // kPacket: protocol byte & 3; class 3 is dropped
  u16 key = 0;          // churn key
};

// Event mix, percent: packet-dominated like a datapath box with a
// syscall-audit extension, an access-control policy, a scheduler and a
// control plane churning a map underneath.
inline constexpr u32 kPacketPct = 60;
inline constexpr u32 kSyscallPct = 10;
inline constexpr u32 kLsmPct = 10;
inline constexpr u32 kSchedPct = 10;  // remainder: churn
inline constexpr u32 kChurnKeys = 128;

// Kernel + eBPF stack + safex runtime + supervised hook registry with the
// five tenants attached: the packet counter (per-CPU array counter), the
// signed syscall-audit extension (per-CPU array counter), the LSM policy,
// the pick-first scheduler (one SchedCore per CPU) and the churn hash map.
// Tenants are admitted through an AdmissionService (prepass on), as a
// production control plane would; `keep_service` leaves it running for
// callers that admit more programs later.
struct FireRig {
  xbase::Status Init(u32 cpus, bool keep_service);

  std::unique_ptr<simkern::Kernel> kernel;
  std::unique_ptr<ebpf::Bpf> bpf;
  std::unique_ptr<ebpf::Loader> loader;
  std::unique_ptr<safex::Runtime> runtime;
  std::unique_ptr<crypto::SigningKey> key;
  std::unique_ptr<safex::ExtLoader> ext_loader;
  std::unique_ptr<safex::Supervisor> supervisor;
  std::unique_ptr<safex::HookRegistry> hooks;
  std::unique_ptr<service::AdmissionService> service;
  service::AdmissionMetrics setup_metrics;  // snapshot when the service stops

  int pkt_fd = -1;
  int audit_fd = -1;
  ebpf::Map* churn_map = nullptr;
  u32 pkt_prog_id = 0;
  u32 audit_ext_id = 0;
  safex::SignedArtifact audit_artifact;
  std::array<simkern::Addr, 4> pkt_ctx{};  // one skb per packet class
  simkern::Addr lsm_ctx = 0;
  simkern::Addr sys_ctx = 0;
  std::vector<std::unique_ptr<safex::SchedCore>> cores;

  // Sum over keys and CPUs of a per-CPU u64 counter map.
  u64 PercpuSum(int fd) const;
};

// The signed syscall-audit extension: bumps its per-CPU counter, allows.
safex::SignedArtifact BuildAuditArtifact(const crypto::SigningKey& key,
                                         int counter_fd,
                                         const std::string& name);

// Expected aggregate verdict of one fire of `kind` on a FireRig.
u64 ExpectedVerdict(const Event& event);

}  // namespace perfbench
