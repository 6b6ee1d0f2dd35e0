// fire_mix and fire_smp: the event path of both extension stacks.
//
// fire_mix runs the seeded tenant mix inline on one simulated CPU through
// HookRegistry::FireInto. fire_smp runs the same mix and seed on two
// simulated CPUs through the CpuPool: fires go through
// HookRegistry::FireAsync, ticks and churn through CpuPool::SubmitAny, and
// the submitter drains the pool at every burst boundary (3 threads: the
// submitter and one worker per CPU).
#include <bitset>
#include <mutex>

#include "perfbench/common.h"
#include "src/analysis/workloads.h"
#include "src/ebpf/asm.h"
#include "src/xbase/bytes.h"
#include "src/xbase/strfmt.h"

namespace perfbench {
namespace {

constexpr usize kStreamLen = 1u << 16;  // cycled; a power of two
constexpr usize kInlineBatch = 8192;    // ~3 ms of fire_mix
constexpr usize kBurstLen = 256;
constexpr usize kBurstsPerBatch = 16;

// Per-CPU state touched only by the thread bound to that CPU (or by the
// submitter at quiescent points, after a Drain).
struct alignas(64) CpuState {
  safex::HookFireReport report;
  std::vector<u64> latency_ns;
  std::vector<Span> spans;
  u64 failed = 0;
  std::string first_failure;
};

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kPacket: return "packet";
    case EventKind::kSyscall: return "syscall";
    case EventKind::kLsm: return "lsm";
    case EventKind::kSched: return "sched";
    case EventKind::kChurnUpdate: return "churn_update";
    case EventKind::kChurnDelete: return "churn_delete";
  }
  return "?";
}

// The seeded event stream, cycled by the workloads.
std::vector<Event> MakeEventStream(u64 seed, usize length) {
  xbase::Rng rng(seed);
  std::vector<Event> stream(length);
  for (Event& event : stream) {
    const u64 dice = rng.NextBelow(100);
    if (dice < kPacketPct) {
      event.kind = EventKind::kPacket;
      event.packet_class = static_cast<u8>(rng.NextBelow(4));
    } else if (dice < kPacketPct + kSyscallPct) {
      event.kind = EventKind::kSyscall;
    } else if (dice < kPacketPct + kSyscallPct + kLsmPct) {
      event.kind = EventKind::kLsm;
    } else if (dice < kPacketPct + kSyscallPct + kLsmPct + kSchedPct) {
      event.kind = EventKind::kSched;
    } else {
      event.kind = rng.NextBelow(3) != 0 ? EventKind::kChurnUpdate
                                         : EventKind::kChurnDelete;
      event.key = static_cast<u16>(rng.NextBelow(kChurnKeys));
    }
  }
  return stream;
}

bool ReportOk(const safex::HookFireReport& report, u64 expected) {
  return report.failed == 0 && report.skipped == 0 && report.served == 1 &&
         report.verdict == expected;
}

class FireWorkload : public Workload {
 public:
  explicit FireWorkload(u32 cpus) : cpus_(cpus) {}

  ~FireWorkload() override {
    if (rig_.kernel != nullptr) {
      rig_.kernel->StopCpus();
    }
  }

  xbase::Status Setup(u64 seed, const std::string& fault) override {
    XB_RETURN_IF_ERROR(rig_.Init(cpus_, /*keep_service=*/false));
    if (!fault.empty()) {
      rig_.bpf->faults().Inject(fault);
    }
    stream_ = MakeEventStream(seed, kStreamLen);
    cpu_state_ = std::vector<CpuState>(cpus_);
    for (CpuState& state : cpu_state_) {
      state.report.verdicts.reserve(4);
      state.latency_ns.reserve(ops_per_batch());
    }
    for (u32 key = 0; key < kChurnKeys; ++key) {
      xbase::StoreLe32(churn_keys_[key].data(), key);
    }
    core_mu_ = std::vector<std::mutex>(cpus_);
    if (cpus_ > 1) {
      rig_.kernel->StartCpus();
    }
    return xbase::Status::Ok();
  }

  usize ops_per_batch() const override {
    return cpus_ == 1 ? kInlineBatch : kBurstLen * kBurstsPerBatch;
  }

  std::string Topology() const override {
    return cpus_ == 1 ? "cpus=1 threads=1 engine=threaded elide=on"
                      : xbase::StrFormat(
                            "cpus=%u threads=%u (submitter + one worker per "
                            "CPU) engine=threaded elide=on",
                            cpus_, cpus_ + 1);
  }

  service::AdmissionMetrics ServiceMetrics() const override {
    return rig_.setup_metrics;
  }

  u64 RunBatch(BatchMode mode, RunStats& stats) override {
    const u64 ops = ops_per_batch();
    stats.attempted += ops;
    for (usize i = 0; i < ops; ++i) {
      const Event& event = stream_[(pos_ + i) & (kStreamLen - 1)];
      switch (event.kind) {
        case EventKind::kPacket: ++packet_fires_; break;
        case EventKind::kSyscall: ++syscall_fires_; break;
        case EventKind::kLsm: ++lsm_fires_; break;
        case EventKind::kSched: ++sched_ticks_; break;
        default: break;
      }
    }
    const u64 ns = cpus_ == 1 ? RunInline(mode) : RunSmp(mode);
    pos_ += ops;
    for (CpuState& state : cpu_state_) {
      if (state.failed != 0) {
        stats.Fail(state.first_failure, state.failed);
        state.failed = 0;
      }
      for (u64 ns : state.latency_ns) {
        stats.latency.Add(ns);
      }
      state.latency_ns.clear();
    }
    return ns;
  }

  std::vector<Span> TakeSpans() override {
    std::vector<Span> all;
    for (CpuState& state : cpu_state_) {
      all.insert(all.end(), state.spans.begin(), state.spans.end());
      state.spans.clear();
    }
    return all;
  }

  void FinalCheck(RunStats& stats) override {
    simkern::Kernel& kernel = *rig_.kernel;
    kernel.StopCpus();
    auto expect = [&stats](bool ok, const std::string& what) {
      if (!ok) {
        stats.Fail("end of run: " + what);
      }
    };
    const u64 counted = rig_.PercpuSum(rig_.pkt_fd);
    expect(counted == packet_fires_,
           xbase::StrFormat("packet counter sum %llu != %llu packet fires",
                            static_cast<unsigned long long>(counted),
                            static_cast<unsigned long long>(packet_fires_)));
    const u64 audited = rig_.PercpuSum(rig_.audit_fd);
    expect(audited == syscall_fires_,
           xbase::StrFormat("syscall audit sum %llu != %llu syscall fires",
                            static_cast<unsigned long long>(audited),
                            static_cast<unsigned long long>(syscall_fires_)));
    const u64 fires = packet_fires_ + syscall_fires_ + lsm_fires_ +
                      sched_ticks_;
    expect(rig_.hooks->fires_total() == fires,
           xbase::StrFormat("hook registry counted %llu fires, sent %llu",
                            static_cast<unsigned long long>(
                                rig_.hooks->fires_total()),
                            static_cast<unsigned long long>(fires)));
    expect(rig_.supervisor->failures() == 0 && rig_.supervisor->skips() == 0,
           "supervisor charged an honest tenant");
    u32 present = 0;
    for (u32 key = 0; key < kChurnKeys; ++key) {
      present += rig_.churn_map->LookupAddr(kernel, churn_keys_[key]).ok();
    }
    expect(present == rig_.churn_map->entry_count(),
           "churn map entry count disagrees with its contents");
    if (cpus_ == 1) {
      expect(present == shadow_.count(), "churn map differs from shadow");
    }
    for (u32 cpu = 0; cpu < cpus_; ++cpu) {
      const safex::HookFireReport& last = rig_.hooks->async_report_on(cpu);
      expect(last.failed == 0 && last.skipped == 0,
             "an asynchronous fire reported a failure");
    }
    expect(kernel.state() == simkern::KernelState::kRunning,
           "kernel not running");
    expect(!kernel.rcu().AnyReader(), "RCU read-side section leaked");
    expect(kernel.locks().held_count_total() == 0, "lock left held");
  }

  FireRig& rig() { return rig_; }
  const std::vector<Event>& stream() const { return stream_; }

  // Runs one event on the calling thread's CPU and checks its outcome.
  void RunEvent(const Event& event, u64 index) {
    CpuState& state = cpu_state_[rig_.kernel->current_cpu()];
    bool ok = true;
    switch (event.kind) {
      case EventKind::kPacket:
        rig_.hooks->FireInto(safex::HookPoint::kXdpIngress,
                             rig_.pkt_ctx[event.packet_class], state.report);
        ok = ReportOk(state.report, ExpectedVerdict(event));
        break;
      case EventKind::kSyscall:
        rig_.hooks->FireInto(safex::HookPoint::kSyscallEnter, rig_.sys_ctx,
                             state.report);
        ok = ReportOk(state.report, 0);
        break;
      case EventKind::kLsm:
        rig_.hooks->FireInto(safex::HookPoint::kLsmFileOpen, rig_.lsm_ctx,
                             state.report);
        ok = ReportOk(state.report, 0);
        break;
      case EventKind::kSched: {
        // A core's per-instance state must not be entered twice at once;
        // on SMP two CPUs may tick different cores concurrently.
        const usize core = index % rig_.cores.size();
        std::lock_guard<std::mutex> lock(core_mu_[core]);
        const safex::SchedTickOutcome outcome = rig_.cores[core]->Tick();
        ok = outcome.from_extension && outcome.ran_pid != 0 &&
             !outcome.fell_back && !outcome.invalid_pick &&
             !outcome.deadline_missed;
        break;
      }
      case EventKind::kChurnUpdate: {
        u8 value[8] = {};
        xbase::StoreLe64(value, index);
        ok = rig_.churn_map
                 ->Update(*rig_.kernel, churn_keys_[event.key], value,
                          ebpf::kBpfAny)
                 .ok();
        if (cpus_ == 1) {
          shadow_.set(event.key);
        }
        break;
      }
      case EventKind::kChurnDelete: {
        const xbase::Status status =
            rig_.churn_map->Delete(*rig_.kernel, churn_keys_[event.key]);
        if (cpus_ == 1) {
          ok = shadow_.test(event.key) ? status.ok()
                                       : status.code() == xbase::Code::kNotFound;
          shadow_.reset(event.key);
        } else {
          ok = status.ok() || status.code() == xbase::Code::kNotFound;
        }
        break;
      }
    }
    if (!ok && state.failed++ == 0) {
      state.first_failure = xbase::StrFormat(
          "%s event %llu gave a wrong answer", EventKindName(event.kind),
          static_cast<unsigned long long>(index));
    }
  }


 private:
  void RunTimed(BatchMode mode, const Event& event, u64 index) {
    const u64 start = NowNs();
    RunEvent(event, index);
    const u64 ns = NowNs() - start;
    CpuState& state = cpu_state_[rig_.kernel->current_cpu()];
    if (mode == BatchMode::kLatency) {
      state.latency_ns.push_back(ns);
    } else {
      state.spans.push_back(
          Span{static_cast<u8>(event.kind), static_cast<u32>(ns)});
    }
  }

  u64 RunInline(BatchMode mode) {
    const usize ops = kInlineBatch;
    const u64 start = NowNs();
    for (usize i = 0; i < ops; ++i) {
      const u64 index = pos_ + i;
      const Event& event = stream_[index & (kStreamLen - 1)];
      if (mode == BatchMode::kThroughput) {
        RunEvent(event, index);
      } else {
        RunTimed(mode, event, index);
      }
    }
    return NowNs() - start;
  }

  u64 RunSmp(BatchMode mode) {
    simkern::CpuPool& pool = *rig_.kernel->cpus();
    safex::HookRegistry& hooks = *rig_.hooks;
    const u64 start = NowNs();
    u64 index = pos_;
    for (usize burst = 0; burst < kBurstsPerBatch; ++burst) {
      for (usize i = 0; i < kBurstLen; ++i, ++index) {
        const Event& event = stream_[index & (kStreamLen - 1)];
        if (mode == BatchMode::kLatency) {
          // An asynchronous op's latency is submit to completion.
          const u64 submitted = NowNs();
          pool.SubmitAny([this, &event, index, submitted] {
            RunEvent(event, index);
            cpu_state_[rig_.kernel->current_cpu()].latency_ns.push_back(
                NowNs() - submitted);
          });
          continue;
        }
        if (mode == BatchMode::kTraced) {
          pool.SubmitAny([this, mode, &event, index] {
            RunTimed(mode, event, index);
          });
          continue;
        }
        switch (event.kind) {
          case EventKind::kPacket:
            hooks.FireAsync(pool, safex::HookPoint::kXdpIngress,
                            rig_.pkt_ctx[event.packet_class]);
            break;
          case EventKind::kSyscall:
            hooks.FireAsync(pool, safex::HookPoint::kSyscallEnter,
                            rig_.sys_ctx);
            break;
          case EventKind::kLsm:
            hooks.FireAsync(pool, safex::HookPoint::kLsmFileOpen,
                            rig_.lsm_ctx);
            break;
          default:
            pool.SubmitAny([this, &event, index] { RunEvent(event, index); });
            break;
        }
      }
      pool.Drain();
    }
    return NowNs() - start;
  }

  const u32 cpus_;
  FireRig rig_;
  std::vector<Event> stream_;
  std::vector<CpuState> cpu_state_;
  std::vector<std::mutex> core_mu_;
  std::array<std::array<u8, 4>, kChurnKeys> churn_keys_{};
  std::bitset<kChurnKeys> shadow_;  // fire_mix only: keys present
  u64 pos_ = 0;
  u64 packet_fires_ = 0;
  u64 syscall_fires_ = 0;
  u64 lsm_fires_ = 0;
  u64 sched_ticks_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFireWorkload(u32 cpus) {
  return std::make_unique<FireWorkload>(cpus);
}

xbase::Status ProbeFirePath(u64 seed, RunStats& stats, Metrics& out) {
  FireWorkload workload(1);
  XB_RETURN_IF_ERROR(workload.Setup(seed, ""));
  FireRig& rig = workload.rig();
  simkern::Kernel& kernel = *rig.kernel;
  const std::vector<Event>& stream = workload.stream();

  // The untraced end-to-end figure the ledger is held against: fire_mix's
  // own op (mean ns per event of a batch), median over batches.
  for (int i = 0; i < 20; ++i) {
    (void)workload.RunBatch(BatchMode::kThroughput, stats);
  }
  std::vector<double> mix_ns;
  for (int i = 0; i < 200; ++i) {
    mix_ns.push_back(
        static_cast<double>(workload.RunBatch(BatchMode::kThroughput, stats)) /
        static_cast<double>(kInlineBatch));
  }
  const double mix = Median(std::move(mix_ns));

  // Isolated cost of each event kind: the same events, run back to back
  // one kind at a time, weighted by the kind's share of the stream.
  double layered = 0;
  for (usize kind = 0; kind < kEventKinds; ++kind) {
    std::vector<u64> indexes;
    for (u64 i = 0; i < kStreamLen; ++i) {
      if (static_cast<usize>(stream[i].kind) == kind) {
        indexes.push_back(i);
      }
    }
    usize next = 0;
    const double iso = MedianNsPerCall(400, 32, [&] {
      const u64 index = indexes[next++ % indexes.size()];
      workload.RunEvent(stream[index], index);
    });
    layered += iso * static_cast<double>(indexes.size()) /
               static_cast<double>(kStreamLen);
  }

  safex::HookFireReport report;
  const double fire = MedianNsPerCall(400, 64, [&] {
    rig.hooks->FireInto(safex::HookPoint::kXdpIngress, rig.pkt_ctx[1],
                        report);
  });
  safex::Supervisor scratch_supervisor;
  const double bookkeeping = MedianNsPerCall(400, 64, [&] {
    const u64 now = kernel.clock().now_ns();
    (void)scratch_supervisor.Admit(7, now);
    scratch_supervisor.RecordSuccess(7, now);
  });
  const double rcu = MedianNsPerCall(400, 64, [&] {
    kernel.rcu().ReadLock(kernel.clock(), "bpf-prog");
    (void)kernel.rcu().ReadUnlock();
  });
  const double journal = MedianNsPerCall(400, 64, [&] {
    kernel.objects().BeginRefJournal();
    (void)kernel.objects().EndRefJournal();
  });
  const ebpf::LoadedProgram* pkt = rig.loader->Find(rig.pkt_prog_id).value();
  ebpf::ExecOptions bare;
  bare.wrap_in_rcu = false;  // the bracket is timed on its own above
  u64 insns = 0;
  const double exec = MedianNsPerCall(400, 64, [&] {
    auto result =
        ebpf::Execute(*rig.bpf, *pkt, rig.pkt_ctx[1], bare, rig.loader.get());
    if (!result.ok() || result.value().r0 != ebpf::kXdpPass) {
      stats.Fail("probe: packet counter execution failed");
    } else {
      insns = result.value().stats.insns;
    }
  });
  const double invoke = MedianNsPerCall(400, 16, [&] {
    if (!rig.ext_loader->Invoke(rig.audit_ext_id).ok()) {
      stats.Fail("probe: audit extension invoke failed");
    }
  });
  const double tick = MedianNsPerCall(400, 16, [&] {
    if (!rig.cores[0]->Tick().from_extension) {
      stats.Fail("probe: scheduler tick fell back");
    }
  });

  // Map operations on a map of their own, so the churn shadow stays valid.
  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kHash;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = kChurnKeys;
  spec.name = "pb_probe_hash";
  XB_ASSIGN_OR_RETURN(int probe_fd, rig.bpf->maps().Create(spec));
  ebpf::Map& map = *rig.bpf->maps().Find(probe_fd).value();
  std::array<std::array<u8, 4>, kChurnKeys> keys{};
  for (u32 key = 0; key < kChurnKeys; ++key) {
    xbase::StoreLe32(keys[key].data(), key);
  }
  const u8 value[8] = {1};
  usize cursor = 0;
  const double update = MedianNsPerCall(400, 64, [&] {
    (void)map.Update(kernel, keys[cursor++ % kChurnKeys], value,
                     ebpf::kBpfAny);
  });
  const double lookup = MedianNsPerCall(400, 64, [&] {
    if (!map.LookupAddr(kernel, keys[cursor++ % kChurnKeys]).ok()) {
      stats.Fail("probe: hash lookup missed a present key");
    }
  });
  std::vector<double> deletes;
  for (int round = 0; round < 200; ++round) {
    const u64 start = NowNs();
    for (const auto& key : keys) {
      (void)map.Delete(kernel, key);
    }
    deletes.push_back(static_cast<double>(NowNs() - start) / kChurnKeys);
    for (const auto& key : keys) {
      (void)map.Update(kernel, key, value, ebpf::kBpfAny);
    }
  }

  // Control plane: attach/detach a second packet counter on the XDP hook
  // (each republishes the hook snapshot), and the safex load-time checks.
  XB_ASSIGN_OR_RETURN(ebpf::Program second,
                      analysis::BuildPacketCounter(rig.pkt_fd));
  XB_ASSIGN_OR_RETURN(u32 second_id, rig.loader->Load(second));
  std::vector<double> attach_ns;
  std::vector<double> detach_ns;
  for (int round = 0; round < 300; ++round) {
    u64 start = NowNs();
    auto attachment =
        rig.hooks->AttachProgram(safex::HookPoint::kXdpIngress, second_id);
    attach_ns.push_back(static_cast<double>(NowNs() - start));
    XB_RETURN_IF_ERROR(attachment.status());
    start = NowNs();
    XB_RETURN_IF_ERROR(rig.hooks->Detach(attachment.value()));
    detach_ns.push_back(static_cast<double>(NowNs() - start));
  }
  XB_RETURN_IF_ERROR(rig.loader->Unload(second_id));
  const double ext_prepare = MedianNsPerCall(200, 1, [&] {
    if (!rig.ext_loader->Prepare(rig.audit_artifact).ok()) {
      stats.Fail("probe: signed artifact failed its load-time checks");
    }
  });

  const double self = fire - (bookkeeping + rcu + journal + exec);
  out.push_back({"core.hooks.fire_ns", fire, "ns"});
  out.push_back({"core.hooks.self_ns", self, "ns"});
  out.push_back({"core.supervisor.bookkeeping_ns", bookkeeping, "ns"});
  out.push_back({"core.safex.invoke_ns", invoke, "ns"});
  out.push_back({"core.sched.tick_ns", tick, "ns"});
  out.push_back({"core.hooks.attach_us", Median(attach_ns) / 1e3, "us"});
  out.push_back({"core.hooks.detach_us", Median(detach_ns) / 1e3, "us"});
  out.push_back({"core.safex.ext_prepare_us", ext_prepare / 1e3, "us"});
  out.push_back({"ebpf.exec_ns", exec, "ns"});
  out.push_back({"ebpf.insns_per_fire", static_cast<double>(insns), "count"});
  out.push_back({"ebpf.map.lookup_ns", lookup, "ns"});
  out.push_back({"ebpf.map.update_ns", update, "ns"});
  out.push_back({"ebpf.map.delete_ns", Median(deletes), "ns"});
  out.push_back({"ebpf.jit.checks_elided",
                 static_cast<double>(pkt->jit.checks_elided), "count"});
  out.push_back({"ebpf.jit.superblocks",
                 static_cast<double>(pkt->jit.superblocks), "count"});
  out.push_back({"simkern.rcu.bracket_ns", rcu, "ns"});
  out.push_back({"simkern.objects.ref_journal_ns", journal, "ns"});
  out.push_back({"ledger.fire_residual_pct", 100 * (mix - layered) / mix,
                 "%"});
  return xbase::Status::Ok();
}

xbase::Status ProbeSmp(u64 seed, RunStats& stats, Metrics& out) {
  FireWorkload workload(2);
  XB_RETURN_IF_ERROR(workload.Setup(seed, ""));
  FireRig& rig = workload.rig();
  simkern::CpuPool& pool = *rig.kernel->cpus();
  const std::vector<Event>& stream = workload.stream();
  std::vector<double> submit_ns;
  std::vector<double> drain_ns;
  u64 index = 0;
  for (int burst = 0; burst < 400; ++burst) {
    for (usize i = 0; i < kBurstLen; ++i, ++index) {
      const Event& event = stream[index & (kStreamLen - 1)];
      const u64 start = NowNs();
      rig.hooks->FireAsync(pool, safex::HookPoint::kXdpIngress,
                           rig.pkt_ctx[event.packet_class]);
      submit_ns.push_back(static_cast<double>(NowNs() - start));
    }
    const u64 start = NowNs();
    pool.Drain();
    drain_ns.push_back(static_cast<double>(NowNs() - start));
  }
  u64 executed = 0;
  u64 stolen = 0;
  for (u32 cpu = 0; cpu < rig.kernel->num_cpus(); ++cpu) {
    executed += pool.executed_on(cpu);
    stolen += pool.stolen_by(cpu);
    const safex::HookFireReport& last = rig.hooks->async_report_on(cpu);
    if (last.failed != 0 || last.skipped != 0) {
      stats.Fail("probe: asynchronous packet fire failed");
    }
  }
  rig.kernel->StopCpus();
  if (rig.PercpuSum(rig.pkt_fd) != index) {
    stats.Fail("probe: SMP packet counter lost updates");
  }
  const simkern::LockStats locks = rig.kernel->locks().Totals();
  out.push_back({"simkern.smp.submit_ns", Median(std::move(submit_ns)), "ns"});
  out.push_back({"simkern.smp.drain_us", Median(std::move(drain_ns)) / 1e3,
                 "us"});
  out.push_back({"simkern.smp.stolen_ratio",
                 executed == 0 ? 0.0
                               : static_cast<double>(stolen) /
                                     static_cast<double>(executed),
                 "ratio"});
  out.push_back({"simkern.lock.contended_ratio",
                 locks.acquires == 0
                     ? 0.0
                     : static_cast<double>(locks.contended_acquires) /
                           static_cast<double>(locks.acquires),
                 "ratio"});
  return xbase::Status::Ok();
}

}  // namespace perfbench
