// admit_cold and redeploy: the admission side of both stacks.
//
// admit_cold pushes a seeded corpus of distinct programs through the
// AdmissionService (2 workers, staticcheck prepass on, cache on but never
// hit) with one submitter keeping 2 tickets outstanding. redeploy cycles a
// small fixed set of eBPF programs and safex artifacts through admit,
// attach, a fixed fire burst, detach and unload next to the running fire
// tenants; after the first cycle every eBPF admission is a cache hit.
#include <array>
#include <cstdio>
#include <deque>
#include <utility>

#include "perfbench/common.h"
#include "src/analysis/rangefuzz.h"
#include "src/analysis/workloads.h"
#include "src/ebpf/asm.h"
#include "src/simkern/lsm.h"
#include "src/staticcheck/check.h"
#include "src/xbase/bytes.h"
#include "src/xbase/strfmt.h"

namespace perfbench {
namespace {

// ---- admit_cold ---------------------------------------------------------------

constexpr usize kAdmitBatch = 64;
constexpr usize kOutstanding = 2;

// Corpus kinds and their hand labels. Heavy builder programs must be
// admitted; Table-1 exploits (clean verifier) and malformed bytes must be
// rejected. Fuzz programs are memory-safe by construction but about 3% of
// them exceed the verifier's precision, so they carry no admission label:
// a rejection must be a verifier verdict (kRejected), and every admitted
// one must run identically on both execution engines.
enum class ProgKind : u8 { kFuzz, kHeavy, kExploit, kMalformed };
constexpr u32 kFuzzPct = 80;
constexpr u32 kHeavyPct = 10;
constexpr u32 kExploitPct = 5;  // remainder: malformed

bool VerdictMatchesLabel(ProgKind kind, const xbase::Result<u32>& verdict) {
  switch (kind) {
    case ProgKind::kFuzz:
      return verdict.ok() || verdict.status().code() == xbase::Code::kRejected;
    case ProgKind::kHeavy:
      return verdict.ok();
    case ProgKind::kExploit:
    case ProgKind::kMalformed:
      return !verdict.ok();
  }
  return false;
}

struct CorpusItem {
  ProgKind kind = ProgKind::kFuzz;
  u32 variant = 0;  // which heavy builder / exploit / malformation
  u32 param = 0;    // builder size parameter or fuzz body length
  u64 seed = 0;     // fuzz program seed
};

// Heavy builders (counted loop, branch diamonds, reg-reg diamonds,
// spill-heavy, straight-line) and their size ranges, chosen so that every
// heavy program costs roughly 0.1-0.3 ms of admission on a 4-vCPU KVM host:
// the p99 then sits on that plateau instead of on the exponential tail of
// the branch-diamond family (2 ms at 10 diamonds).
constexpr u32 kHeavyVariants = 5;
constexpr std::array<std::pair<u32, u32>, kHeavyVariants> kHeavySizes = {
    {{4, 10}, {5, 7}, {6, 10}, {4, 10}, {4, 10}}};
constexpr u32 kMalformedVariants = 4;

// Table-1 exploits with no defect injected. Each builder's comment in
// src/analysis/workloads.h names the verifier defect that would admit it.
constexpr u32 kExploitVariants = 8;

// A seeded fill of an array map's values (fuzz programs read them).
void FillArrayMap(simkern::Kernel& kernel, ebpf::Map& map, u64 seed) {
  xbase::Rng rng(seed);
  std::vector<u8> key(4);
  std::vector<u8> value(map.spec().value_size);
  for (u32 index = 0; index < map.spec().max_entries; ++index) {
    xbase::StoreLe32(key.data(), index);
    for (u8& byte : value) {
      byte = static_cast<u8>(rng.NextBelow(256));
    }
    (void)map.Update(kernel, key, value, ebpf::kBpfAny);
  }
}

class AdmitColdWorkload : public Workload {
 public:
  ~AdmitColdWorkload() override {
    if (service_ != nullptr) {
      service_->Shutdown();
    }
  }

  xbase::Status Setup(u64 seed, const std::string& fault) override {
    simkern::KernelConfig config;
    config.version = simkern::kV6_12;
    config.unprivileged_bpf_disabled = false;
    config.num_cpus = 1;
    kernel_ = std::make_unique<simkern::Kernel>(config);
    bpf_ = std::make_unique<ebpf::Bpf>(*kernel_);
    loader_ = std::make_unique<ebpf::Loader>(*bpf_);
    XB_RETURN_IF_ERROR(kernel_->BootstrapWorkload());
    if (!fault.empty()) {
      bpf_->faults().Inject(fault);
    }
    auto make_array = [this](u32 value_size, u32 entries,
                             const char* name) -> xbase::Result<int> {
      ebpf::MapSpec spec;
      spec.type = ebpf::MapType::kArray;
      spec.key_size = 4;
      spec.value_size = value_size;
      spec.max_entries = entries;
      spec.name = name;
      return bpf_->maps().Create(spec);
    };
    XB_ASSIGN_OR_RETURN(fuzz_fd_, make_array(analysis::kRangeFuzzValueSize, 1,
                                             "pb_fuzz"));
    XB_ASSIGN_OR_RETURN(arr16_fd_, make_array(16, 4, "pb_arr16"));
    XB_ASSIGN_OR_RETURN(arr64_fd_, make_array(64, 4, "pb_arr64"));
    FillArrayMap(*kernel_, *bpf_->maps().Find(fuzz_fd_).value(), seed);
    XB_ASSIGN_OR_RETURN(
        ctx_, kernel_->mem().Map(64, simkern::MemPerm::kReadWrite,
                                 simkern::RegionKind::kKernelData, "pb_ctx"));
    service::AdmissionConfig service_config;
    service_config.workers = 2;
    service_ = std::make_unique<service::AdmissionService>(
        service_config, *bpf_, *loader_);
    options_.staticcheck_prepass = true;
    options_.async = true;
    rng_ = std::make_unique<xbase::Rng>(seed);
    // Warm the schedule so set-up pays for a first slice of corpus
    // generation, like the other workloads pay for their tenant loads.
    for (usize i = 0; i < 4 * kAdmitBatch; ++i) {
      pending_.push_back(NextItem());
    }
    return xbase::Status::Ok();
  }

  usize ops_per_batch() const override { return kAdmitBatch; }

  std::string Topology() const override {
    return "cpus=1 threads=3 (submitter + 2 admission workers) "
           "outstanding=2 prepass=on cache=on engine=threaded elide=on";
  }

  service::AdmissionMetrics ServiceMetrics() const override {
    return service_->Metrics();
  }

  u64 RunBatch(BatchMode mode, RunStats& stats) override {
    // Materialize this batch's programs outside the timed region.
    std::vector<CorpusItem> items(kAdmitBatch);
    std::vector<ebpf::Program> progs(kAdmitBatch);
    for (usize i = 0; i < kAdmitBatch; ++i) {
      if (pending_.empty()) {
        pending_.push_back(NextItem());
      }
      items[i] = pending_.front();
      pending_.pop_front();
      auto prog = Materialize(items[i], next_salt_++);
      if (!prog.ok()) {
        stats.Fail("corpus program failed to build: " +
                   prog.status().ToString());
        prog = ebpf::Program{};
      }
      progs[i] = std::move(prog).value();
    }
    stats.attempted += kAdmitBatch;

    std::vector<service::AdmissionService::Ticket> tickets(kAdmitBatch);
    std::vector<u64> submitted_at(kAdmitBatch);
    std::vector<xbase::Result<u32>> verdicts;
    verdicts.reserve(kAdmitBatch);
    std::vector<Span> spans;
    const u64 start = NowNs();
    usize next = 0;
    auto submit = [&] {
      submitted_at[next] = NowNs();
      tickets[next] = service_->Load(progs[next], options_);
      ++next;
    };
    while (next < kOutstanding) {
      submit();
    }
    for (usize i = 0; i < kAdmitBatch; ++i) {
      verdicts.push_back(service_->Wait(tickets[i]));
      const u64 ns = NowNs() - submitted_at[i];
      if (mode == BatchMode::kLatency) {
        stats.latency.Add(ns);
      } else if (mode == BatchMode::kTraced) {
        spans.push_back(
            Span{static_cast<u8>(items[i].kind), static_cast<u32>(ns)});
      }
      if (next < kAdmitBatch) {
        submit();
      }
    }
    const u64 elapsed = NowNs() - start;
    spans_.insert(spans_.end(), spans.begin(), spans.end());

    // Check every verdict against its label; run the engine differential
    // on admitted fuzz programs; unload. All outside the timed region.
    for (usize i = 0; i < kAdmitBatch; ++i) {
      const bool admitted = verdicts[i].ok();
      if (!VerdictMatchesLabel(items[i].kind, verdicts[i])) {
        stats.Fail(xbase::StrFormat(
            "%s program %s was %s: %s", KindName(items[i].kind),
            progs[i].name.c_str(), admitted ? "admitted" : "rejected",
            verdicts[i].status().ToString().c_str()));
      }
      if (!admitted) {
        continue;
      }
      const u32 id = verdicts[i].value();
      if (items[i].kind == ProgKind::kFuzz) {
        CheckEngines(id, progs[i].name, stats);
      }
      if (!loader_->Unload(id).ok()) {
        stats.Fail("unload failed for " + progs[i].name);
      }
    }
    return elapsed;
  }

  std::vector<Span> TakeSpans() override { return std::move(spans_); }

  // The admission ledger: every stage of Loader::Prepare called on its own
  // (with the options the loader passes), then the same programs through
  // the service one at a time, cold and as cache hits.
  xbase::Status Probe(RunStats& stats, Metrics& out) {
    constexpr usize kPrograms = 128;
    constexpr usize kReps = 3;
    const simkern::KernelVersion version = kernel_->version();
    ebpf::LoadOptions sync_options = options_;
    sync_options.async = false;
    std::vector<double> check_us, verify_us, jit_us, install_us, unload_us;
    std::vector<double> verdict_us, residual_share, self_us;
    double insns = 0, explored = 0, pruned = 0;
    auto time_us = [](auto&& fn) {
      std::vector<double> runs;
      for (usize rep = 0; rep < kReps; ++rep) {
        const u64 start = NowNs();
        fn();
        runs.push_back(static_cast<double>(NowNs() - start) / 1e3);
      }
      return Median(std::move(runs));
    };
    usize measured = 0;
    while (measured < kPrograms) {
      const CorpusItem item = NextItem();
      if (item.kind != ProgKind::kFuzz && item.kind != ProgKind::kHeavy) {
        continue;
      }
      XB_ASSIGN_OR_RETURN(ebpf::Program prog, Materialize(item, next_salt_++));
      // The ledger needs programs every stage runs to the end on.
      auto prepared = loader_->Prepare(prog, sync_options);
      if (!prepared.ok()) {
        continue;
      }
      ++measured;

      staticcheck::CheckOptions copts;
      copts.maps = &bpf_->maps();
      copts.helpers = &bpf_->helpers();
      ebpf::RangeTrace prepass_trace;
      prepass_trace.mem_only = true;
      copts.range_trace = &prepass_trace;
      const double check = time_us([&] {
        if (!staticcheck::RunChecks(prog, copts).ok()) {
          stats.Fail("probe: staticcheck failed on " + prog.name);
        }
      });

      ebpf::VerifyOptions vopts;
      vopts.version = version;
      vopts.faults = &bpf_->faults();
      vopts.kfuncs = &bpf_->kfuncs();
      ebpf::RangeTrace elide_trace;
      elide_trace.mem_only = true;
      vopts.range_trace = &elide_trace;
      ebpf::VerifyStats vstats;
      const double verify = time_us([&] {
        auto result = ebpf::Verify(prog, bpf_->maps(), bpf_->helpers(), vopts);
        if (result.ok()) {
          vstats = result.value().stats;
        } else {
          stats.Fail("probe: verifier rejected " + prog.name);
        }
      });
      insns += static_cast<double>(vstats.insns_processed);
      explored += static_cast<double>(vstats.states_explored);
      pruned += static_cast<double>(vstats.states_pruned);

      ebpf::JitClaims claims;
      claims.verifier = &elide_trace;
      claims.staticcheck = &prepass_trace;
      const double jit = time_us([&] {
        if (!ebpf::JitCompile(prog, bpf_->faults(), &bpf_->helpers(),
                              &bpf_->kfuncs(), &version, &claims)
                 .ok()) {
          stats.Fail("probe: JIT failed on " + prog.name);
        }
      });

      std::vector<double> installs, unloads;
      for (usize rep = 0; rep < kReps; ++rep) {
        u64 start = NowNs();
        XB_ASSIGN_OR_RETURN(u32 id, loader_->Install(prepared.value()));
        installs.push_back(static_cast<double>(NowNs() - start) / 1e3);
        start = NowNs();
        XB_RETURN_IF_ERROR(loader_->Unload(id));
        unloads.push_back(static_cast<double>(NowNs() - start) / 1e3);
      }
      const double install = Median(installs);

      // Cold verdicts on fresh salts of the same program, then cache hits
      // on the last one (against its content hash, the one stage a hit
      // still pays besides the install).
      std::vector<double> cold;
      ebpf::Program variant = prog;
      for (usize rep = 0; rep < kReps; ++rep) {
        variant.insns.front() =
            ebpf::Mov64Imm(ebpf::R9, static_cast<s32>(next_salt_++));
        const u64 start = NowNs();
        auto id = service_->Wait(service_->Load(variant, sync_options));
        cold.push_back(static_cast<double>(NowNs() - start) / 1e3);
        if (!id.ok() || !loader_->Unload(id.value()).ok()) {
          stats.Fail("probe: service rejected " + prog.name);
        }
      }
      const double hit = time_us([&] {
        auto id = service_->Wait(service_->Load(variant, sync_options));
        if (!id.ok() || !loader_->Unload(id.value()).ok()) {
          stats.Fail("probe: cache hit failed for " + prog.name);
        }
      });
      const double hash =
          time_us([&] { (void)service::HashProgram(variant); });

      const double verdict = Median(cold);
      const double stages = check + verify + jit + install;
      check_us.push_back(check);
      verify_us.push_back(verify);
      jit_us.push_back(jit);
      install_us.push_back(install);
      unload_us.push_back(Median(unloads));
      verdict_us.push_back(verdict);
      residual_share.push_back((verdict - stages) / verdict);
      self_us.push_back(hit - hash - install);
    }
    const double n = static_cast<double>(kPrograms);
    out.push_back({"ebpf.verify_us", Median(verify_us), "us"});
    out.push_back({"ebpf.jit_us", Median(jit_us), "us"});
    out.push_back({"ebpf.verifier.insns_processed", insns / n, "count"});
    out.push_back({"ebpf.verifier.states_explored", explored / n, "count"});
    out.push_back({"ebpf.verifier.states_pruned", pruned / n, "count"});
    out.push_back({"ebpf.loader.install_us", Median(install_us), "us"});
    out.push_back({"ebpf.loader.unload_us", Median(unload_us), "us"});
    out.push_back({"staticcheck.check_us", Median(check_us), "us"});
    out.push_back({"service.verdict_us", Median(verdict_us), "us"});
    out.push_back({"service.self_us", Median(self_us), "us"});
    out.push_back({"ledger.admit_residual_pct",
                   100 * Median(residual_share), "%"});
    return xbase::Status::Ok();
  }

  void FinalCheck(RunStats& stats) override {
    service_->Drain();
    const service::AdmissionMetrics metrics = service_->Metrics();
    std::printf("# service stage p50 us: prepass %.1f verify %.1f jit %.1f "
                "install %.1f total %.1f\n",
                metrics.prepass.p50_ns / 1e3, metrics.verify.p50_ns / 1e3,
                metrics.jit.p50_ns / 1e3, metrics.install.p50_ns / 1e3,
                metrics.total.p50_ns / 1e3);
    if (metrics.cache.hits != 0) {
      stats.Fail("corpus not distinct: verdict cache hit");
    }
    if (metrics.submitted != metrics.completed) {
      stats.Fail("admission requests left unresolved");
    }
    if (loader_->size() != 0) {
      stats.Fail("loader still holds programs after unloading all");
    }
    if (kernel_->state() != simkern::KernelState::kRunning) {
      stats.Fail("kernel not running");
    }
  }

 private:
  static const char* KindName(ProgKind kind) {
    switch (kind) {
      case ProgKind::kFuzz: return "fuzz";
      case ProgKind::kHeavy: return "heavy";
      case ProgKind::kExploit: return "exploit";
      case ProgKind::kMalformed: return "malformed";
    }
    return "?";
  }

  CorpusItem NextItem() {
    CorpusItem item;
    const u64 dice = rng_->NextBelow(100);
    if (dice < kFuzzPct) {
      item.kind = ProgKind::kFuzz;
      item.seed = rng_->NextU64();
      item.param = static_cast<u32>(rng_->NextInRange(16, 40));
    } else if (dice < kFuzzPct + kHeavyPct) {
      item.kind = ProgKind::kHeavy;
      item.variant = static_cast<u32>(rng_->NextBelow(kHeavyVariants));
      const auto [lo, hi] = kHeavySizes[item.variant];
      item.param = static_cast<u32>(rng_->NextInRange(lo, hi));
    } else if (dice < kFuzzPct + kHeavyPct + kExploitPct) {
      item.kind = ProgKind::kExploit;
      item.variant = static_cast<u32>(rng_->NextBelow(kExploitVariants));
    } else {
      item.kind = ProgKind::kMalformed;
      item.variant = static_cast<u32>(rng_->NextBelow(kMalformedVariants));
      item.seed = rng_->NextU64();
      item.param = static_cast<u32>(rng_->NextInRange(16, 40));
    }
    return item;
  }

  xbase::Result<ebpf::Program> Build(const CorpusItem& item) const {
    switch (item.kind) {
      case ProgKind::kFuzz:
      case ProgKind::kMalformed:
        return analysis::BuildFuzzProgram(item.seed, fuzz_fd_, item.param,
                                          "pb_fuzz");
      case ProgKind::kHeavy:
        switch (item.variant) {
          case 0: return analysis::BuildCountedLoop(8 * item.param);
          case 1: return analysis::BuildBranchDiamonds(item.param);
          case 2: return analysis::BuildRegRegDiamonds(item.param, arr64_fd_);
          case 3: return analysis::BuildSpillHeavy(32 * item.param, arr64_fd_);
          default: return analysis::BuildStraightLine(256 * item.param);
        }
      case ProgKind::kExploit:
        switch (item.variant) {
          case 0: return analysis::BuildJgtOffByOneExploit(arr16_fd_);
          case 1: return analysis::BuildRegRegOffByOneExploit(arr64_fd_);
          case 2: return analysis::BuildSpillWidthExploit(arr64_fd_);
          case 3: return analysis::BuildTnumMulExploit(arr16_fd_);
          case 4: return analysis::BuildAlu32TruncExploit(arr16_fd_);
          case 5: return analysis::BuildSignExtExploit(arr16_fd_);
          case 6: return analysis::BuildArbitraryReadExploit(arr64_fd_, 4096);
          default: return analysis::BuildSkLookupNoRelease();
        }
    }
    return xbase::Internal("unknown corpus kind");
  }

  // Every program gets a unique leading `r9 = salt` (r9 is dead at entry),
  // so no two corpus programs share content and every cache lookup
  // misses. Malformed programs then get one structural defect.
  xbase::Result<ebpf::Program> Materialize(const CorpusItem& item,
                                           u32 salt) const {
    XB_ASSIGN_OR_RETURN(ebpf::Program prog, Build(item));
    prog.insns.insert(prog.insns.begin(),
                      ebpf::Mov64Imm(ebpf::R9, static_cast<s32>(salt)));
    prog.name = xbase::StrFormat("pb_%s_%u", KindName(item.kind), salt);
    if (item.kind == ProgKind::kMalformed) {
      ebpf::Insn& first = prog.insns.front();
      switch (item.variant) {
        case 0: first.opcode = 0xff; break;  // no such opcode
        case 1: first = ebpf::Ja(30000); break;  // jumps past the end
        case 2: first.dst = 12; break;  // no such register
        default:  // ld_imm64 cut in half at the end of the program
          prog.insns.push_back(ebpf::LdImm64(ebpf::R0, 0)[0]);
          break;
      }
    }
    return prog;
  }

  // The threaded engine and the legacy interpreter (the independent
  // reference) must agree on every admitted fuzz program.
  void CheckEngines(u32 id, const std::string& name, RunStats& stats) {
    auto loaded = loader_->Find(id);
    if (!loaded.ok()) {
      stats.Fail("admitted program not found: " + name);
      return;
    }
    ebpf::ExecOptions threaded;
    threaded.engine = ebpf::ExecEngine::kThreaded;
    ebpf::ExecOptions legacy;
    legacy.engine = ebpf::ExecEngine::kLegacy;
    auto a = ebpf::Execute(*bpf_, *loaded.value(), ctx_, threaded,
                           loader_.get());
    auto b = ebpf::Execute(*bpf_, *loaded.value(), ctx_, legacy,
                           loader_.get());
    if (!a.ok() || !b.ok() || a.value().r0 != b.value().r0) {
      stats.Fail("engines disagree on " + name);
    }
  }

  std::unique_ptr<simkern::Kernel> kernel_;
  std::unique_ptr<ebpf::Bpf> bpf_;
  std::unique_ptr<ebpf::Loader> loader_;
  std::unique_ptr<service::AdmissionService> service_;
  ebpf::LoadOptions options_;
  std::unique_ptr<xbase::Rng> rng_;
  std::deque<CorpusItem> pending_;
  std::vector<Span> spans_;
  int fuzz_fd_ = -1;
  int arr16_fd_ = -1;
  int arr64_fd_ = -1;
  simkern::Addr ctx_ = 0;
  u32 next_salt_ = 1;
};

// ---- redeploy -------------------------------------------------------------------

constexpr usize kCyclesPerBatch = 16;
constexpr u32 kBurstPackets = 8;
constexpr u32 kBurstSyscalls = 4;
constexpr u32 kBurstOpens = 4;

// Returns XDP_PASS without looking at the packet: the safex side of the
// redeployed XDP pair.
class PassExt : public safex::Extension {
 public:
  xbase::Result<u64> Run(safex::Ctx&) override { return ebpf::kXdpPass; }
};

xbase::Result<ebpf::Program> BuildSyscallAllow() {
  ebpf::ProgramBuilder b("rd_syscall_allow", ebpf::ProgType::kSyscall);
  b.Ins(ebpf::Mov64Imm(ebpf::R0, 0)).Ins(ebpf::Exit());
  return b.Build();
}

// Denies root opens; the rig's file-open context is uid 1000.
xbase::Result<ebpf::Program> BuildLsmNoRoot() {
  using namespace ebpf;  // NOLINT
  ProgramBuilder b("rd_lsm_no_root", ProgType::kLsm);
  b.Ins(LdxMem(BPF_W, R2, R1, simkern::LsmCtxLayout::kUid))
      .JmpTo(BPF_JEQ, R2, 0, "deny")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit())
      .Bind("deny")
      .Ins(Mov64Imm(R0, 1))
      .Ins(Exit());
  return b.Build();
}

class RedeployWorkload : public Workload {
 public:
  ~RedeployWorkload() override {
    if (rig_.service != nullptr) {
      rig_.service->Shutdown();
    }
  }

  xbase::Status Setup(u64 seed, const std::string& fault) override {
    XB_RETURN_IF_ERROR(rig_.Init(1, /*keep_service=*/true));
    if (!fault.empty()) {
      rig_.bpf->faults().Inject(fault);
    }
    ebpf::MapSpec spec;
    spec.type = ebpf::MapType::kPercpuArray;
    spec.key_size = 4;
    spec.value_size = 8;
    spec.max_entries = 4;
    spec.name = "rd_pkt";
    XB_ASSIGN_OR_RETURN(rd_pkt_fd_, rig_.bpf->maps().Create(spec));
    spec.max_entries = 1;
    spec.name = "rd_audit";
    XB_ASSIGN_OR_RETURN(rd_audit_fd_, rig_.bpf->maps().Create(spec));
    XB_ASSIGN_OR_RETURN(ebpf::Program pkt,
                        analysis::BuildPacketCounter(rd_pkt_fd_));
    XB_ASSIGN_OR_RETURN(ebpf::Program lsm, BuildLsmNoRoot());
    XB_ASSIGN_OR_RETURN(ebpf::Program sys, BuildSyscallAllow());
    progs_ = {{std::move(pkt), safex::HookPoint::kXdpIngress},
              {std::move(lsm), safex::HookPoint::kLsmFileOpen},
              {std::move(sys), safex::HookPoint::kSyscallEnter}};
    safex::Toolchain toolchain(*rig_.key);
    safex::ExtensionManifest manifest;
    manifest.name = "rd-xdp-pass";
    manifest.version = "1.0";
    manifest.caps = {safex::Capability::kPacketAccess};
    XB_ASSIGN_OR_RETURN(
        safex::SignedArtifact pass,
        toolchain.Build(manifest, [] { return std::make_unique<PassExt>(); },
                        crypto::Sha256::HashString("rd-xdp-pass")));
    exts_ = {{std::move(pass), safex::HookPoint::kXdpIngress},
             {BuildAuditArtifact(*rig_.key, rd_audit_fd_, "rd-audit"),
              safex::HookPoint::kSyscallEnter}};
    options_.staticcheck_prepass = true;
    options_.async = true;
    xbase::Rng rng(seed);
    for (u8& cls : burst_classes_) {
      cls = static_cast<u8>(rng.NextBelow(4));
    }
    return xbase::Status::Ok();
  }

  usize ops_per_batch() const override { return kCyclesPerBatch; }

  std::string Topology() const override {
    return "cpus=1 threads=3 (submitter + 2 admission workers) prepass=on "
           "cache=on engine=threaded elide=on";
  }

  service::AdmissionMetrics ServiceMetrics() const override {
    return rig_.service->Metrics();
  }

  u64 RunBatch(BatchMode mode, RunStats& stats) override {
    stats.attempted += kCyclesPerBatch;
    u64 elapsed = 0;
    for (usize cycle = 0; cycle < kCyclesPerBatch; ++cycle) {
      const u64 start = NowNs();
      const bool ok = RunCycle();
      const u64 ns = NowNs() - start;
      elapsed += ns;
      if (!ok) {
        stats.Fail(xbase::StrFormat("redeploy cycle %llu failed",
                                    static_cast<unsigned long long>(cycles_)));
      }
      ++cycles_;
      if (mode == BatchMode::kLatency) {
        stats.latency.Add(ns);
      } else if (mode == BatchMode::kTraced) {
        spans_.push_back(Span{0, static_cast<u32>(ns)});
      }
    }
    return elapsed;
  }

  std::vector<Span> TakeSpans() override { return std::move(spans_); }

  void FinalCheck(RunStats& stats) override {
    auto expect = [&stats](bool ok, const std::string& what) {
      if (!ok) {
        stats.Fail("end of run: " + what);
      }
    };
    rig_.service->Drain();
    const service::AdmissionMetrics metrics = rig_.service->Metrics();
    // Three tenant programs plus three redeployed ones: each verified once.
    expect(metrics.verify_runs == 6,
           xbase::StrFormat("%llu verifier runs, expected 6",
                            static_cast<unsigned long long>(
                                metrics.verify_runs)));
    expect(rig_.PercpuSum(rig_.pkt_fd) == packets_ &&
               rig_.PercpuSum(rd_pkt_fd_) == packets_,
           "packet counter sums differ from packet fires");
    expect(rig_.PercpuSum(rig_.audit_fd) == syscalls_ &&
               rig_.PercpuSum(rd_audit_fd_) == syscalls_,
           "syscall audit sums differ from syscall fires");
    expect(rig_.loader->size() == 3 && rig_.ext_loader->size() == 1,
           "redeployed programs left loaded");
    expect(rig_.hooks->AttachedCountTotal() == 4,
           "redeployed attachments left attached");
    expect(rig_.supervisor->failures() == 0,
           "supervisor charged an honest tenant");
    expect(rig_.kernel->state() == simkern::KernelState::kRunning,
           "kernel not running");
  }

 private:
  struct ProgSlot {
    ebpf::Program prog;
    safex::HookPoint hook;
  };
  struct ExtSlot {
    safex::SignedArtifact artifact;
    safex::HookPoint hook;
  };

  // admit → attach → fire burst → detach → unload. Returns false on any
  // failed step or wrong verdict.
  bool RunCycle() {
    service::AdmissionService& service = *rig_.service;
    std::array<service::AdmissionService::Ticket, 5> tickets;
    for (usize i = 0; i < progs_.size(); ++i) {
      tickets[i] = service.Load(progs_[i].prog, options_);
    }
    for (usize i = 0; i < exts_.size(); ++i) {
      tickets[progs_.size() + i] =
          service.LoadExtension(exts_[i].artifact, /*async=*/true);
    }
    bool ok = true;
    std::array<u32, 5> ids{};
    for (usize i = 0; i < tickets.size(); ++i) {
      auto id = service.Wait(tickets[i]);
      ok = ok && id.ok();
      ids[i] = id.value_or(0);
    }
    std::array<u32, 5> attachments{};
    for (usize i = 0; ok && i < tickets.size(); ++i) {
      auto attachment =
          i < progs_.size()
              ? rig_.hooks->AttachProgram(progs_[i].hook, ids[i])
              : rig_.hooks->AttachExtension(exts_[i - progs_.size()].hook,
                                            ids[i]);
      ok = attachment.ok();
      attachments[i] = attachment.value_or(0);
    }
    if (ok) {
      ok = FireBurst();
    }
    for (u32 attachment : attachments) {
      if (attachment != 0) {
        ok = rig_.hooks->Detach(attachment).ok() && ok;
      }
    }
    for (usize i = 0; i < tickets.size(); ++i) {
      if (ids[i] == 0) {
        continue;
      }
      ok = (i < progs_.size() ? rig_.loader->Unload(ids[i])
                              : rig_.ext_loader->Unload(ids[i]))
               .ok() &&
           ok;
    }
    return ok;
  }

  // Every hook now has its tenant plus the redeployed attachments: XDP and
  // syscall 3 each, LSM 2.
  bool FireBurst() {
    bool ok = true;
    for (u32 i = 0; i < kBurstPackets; ++i) {
      Event event;
      event.packet_class = burst_classes_[i];
      rig_.hooks->FireInto(safex::HookPoint::kXdpIngress,
                           rig_.pkt_ctx[event.packet_class], report_);
      ok = ok && report_.served == 3 && report_.failed == 0 &&
           report_.verdict == ExpectedVerdict(event);
    }
    for (u32 i = 0; i < kBurstSyscalls; ++i) {
      rig_.hooks->FireInto(safex::HookPoint::kSyscallEnter, rig_.sys_ctx,
                           report_);
      ok = ok && report_.served == 3 && report_.failed == 0 &&
           report_.verdict == 0;
    }
    for (u32 i = 0; i < kBurstOpens; ++i) {
      rig_.hooks->FireInto(safex::HookPoint::kLsmFileOpen, rig_.lsm_ctx,
                           report_);
      ok = ok && report_.served == 2 && report_.failed == 0 &&
           report_.verdict == 0;
    }
    packets_ += kBurstPackets;
    syscalls_ += kBurstSyscalls;
    return ok;
  }

  FireRig rig_;
  std::vector<ProgSlot> progs_;
  std::vector<ExtSlot> exts_;
  ebpf::LoadOptions options_;
  std::array<u8, kBurstPackets> burst_classes_{};
  safex::HookFireReport report_;
  std::vector<Span> spans_;
  int rd_pkt_fd_ = -1;
  int rd_audit_fd_ = -1;
  u64 cycles_ = 0;
  u64 packets_ = 0;
  u64 syscalls_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeAdmitColdWorkload() {
  return std::make_unique<AdmitColdWorkload>();
}

std::unique_ptr<Workload> MakeRedeployWorkload() {
  return std::make_unique<RedeployWorkload>();
}

xbase::Status ProbeAdmission(u64 seed, RunStats& stats, Metrics& out) {
  AdmitColdWorkload workload;
  XB_RETURN_IF_ERROR(workload.Setup(seed, ""));
  return workload.Probe(stats, out);
}

}  // namespace perfbench
