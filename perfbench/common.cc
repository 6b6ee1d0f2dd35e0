#include "perfbench/common.h"

#include <algorithm>

#include "src/analysis/workloads.h"
#include "src/ebpf/asm.h"
#include "src/simkern/lsm.h"
#include "src/xbase/bytes.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  const usize mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const usize lo = values.size() / 4;
  const usize hi = values.size() - lo;
  double sum = 0;
  for (usize i = lo; i < hi; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(hi - lo);
}

void LatencyWindows::Add(u64 ns) {
  current_.push_back(ns);
  ++count_;
  if (current_.size() < kWindow) {
    return;
  }
  auto at = [this](usize rank) {
    std::nth_element(current_.begin(), current_.begin() + rank,
                     current_.end());
    return static_cast<double>(current_[rank]);
  };
  p50_.push_back(at(kWindow / 2));
  p99_.push_back(at(kWindow * 99 / 100));
  current_.clear();
}

u64 ExpectedVerdict(const Event& event) {
  if (event.kind == EventKind::kPacket) {
    return event.packet_class == 3 ? ebpf::kXdpDrop : ebpf::kXdpPass;
  }
  return 0;  // syscall and LSM: allow
}

namespace {

class AuditExt : public safex::Extension {
 public:
  explicit AuditExt(int fd) : fd_(fd) {}
  xbase::Result<u64> Run(safex::Ctx& ctx) override {
    auto map = ctx.Map(fd_);
    XB_RETURN_IF_ERROR(map.status());
    auto slot = map.value().LookupIndex(0);
    XB_RETURN_IF_ERROR(slot.status());
    auto count = slot.value().ReadU64(0);
    XB_RETURN_IF_ERROR(count.status());
    XB_RETURN_IF_ERROR(slot.value().WriteU64(0, count.value() + 1));
    return u64{0};
  }

 private:
  int fd_;
};

// Denies opens that truncate (O_TRUNC); the rig's file-open context does
// not, so the expected verdict is allow.
xbase::Result<ebpf::Program> BuildLsmPolicy() {
  using namespace ebpf;  // NOLINT
  ProgramBuilder b("pb_lsm_no_trunc", ProgType::kLsm);
  b.Ins(LdxMem(BPF_W, R2, R1, simkern::LsmCtxLayout::kOpenFlags))
      .Ins(Alu64Imm(BPF_AND, R2, 0x200))
      .JmpTo(BPF_JNE, R2, 0, "deny")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit())
      .Bind("deny")
      .Ins(Mov64Imm(R0, 1))
      .Ins(Exit());
  return b.Build();
}

xbase::Result<int> CreateMap(ebpf::Bpf& bpf, ebpf::MapType type,
                             u32 value_size, u32 entries, const char* name) {
  ebpf::MapSpec spec;
  spec.type = type;
  spec.key_size = 4;
  spec.value_size = value_size;
  spec.max_entries = entries;
  spec.name = name;
  return bpf.maps().Create(spec);
}

}  // namespace

safex::SignedArtifact BuildAuditArtifact(const crypto::SigningKey& key,
                                         int counter_fd,
                                         const std::string& name) {
  safex::Toolchain toolchain(key);
  safex::ExtensionManifest manifest;
  manifest.name = name;
  manifest.version = "1.0";
  manifest.caps = {safex::Capability::kMapAccess};
  manifest.imports = {"kcrate.map_lookup"};
  auto artifact = toolchain.Build(
      manifest, [counter_fd] { return std::make_unique<AuditExt>(counter_fd); },
      crypto::Sha256::HashString(name));
  return artifact.ok() ? std::move(artifact).value() : safex::SignedArtifact{};
}

u64 FireRig::PercpuSum(int fd) const {
  auto* map = dynamic_cast<ebpf::PercpuArrayMap*>(
      bpf->maps().Find(fd).value_or(nullptr));
  if (map == nullptr) {
    return 0;
  }
  u64 sum = 0;
  std::vector<u8> key(4);
  for (u32 index = 0; index < map->spec().max_entries; ++index) {
    xbase::StoreLe32(key.data(), index);
    for (u32 cpu = 0; cpu < kernel->num_cpus(); ++cpu) {
      auto addr = map->LookupAddrForCpu(key, cpu);
      if (addr.ok()) {
        sum += kernel->mem().ReadU64(addr.value()).value_or(0);
      }
    }
  }
  return sum;
}

xbase::Status FireRig::Init(u32 cpus, bool keep_service) {
  simkern::KernelConfig config;
  config.version = simkern::kV6_12;  // LSM and sched hook families
  config.unprivileged_bpf_disabled = false;
  config.num_cpus = cpus;
  kernel = std::make_unique<simkern::Kernel>(config);
  kernel->set_oops_recovery(true);
  bpf = std::make_unique<ebpf::Bpf>(*kernel);
  loader = std::make_unique<ebpf::Loader>(*bpf);
  XB_RETURN_IF_ERROR(kernel->BootstrapWorkload());
  XB_ASSIGN_OR_RETURN(runtime, safex::Runtime::Create(*kernel, *bpf));
  key = std::make_unique<crypto::SigningKey>(
      crypto::SigningKey::FromPassphrase("perfbench-vendor", "perfbench"));
  XB_RETURN_IF_ERROR(runtime->keyring().Enroll(*key));
  runtime->keyring().Seal();
  ext_loader = std::make_unique<safex::ExtLoader>(*runtime);
  supervisor = std::make_unique<safex::Supervisor>();
  safex::HookRegistryConfig hook_config;
  hook_config.supervisor = supervisor.get();
  hooks = std::make_unique<safex::HookRegistry>(*bpf, *loader, *ext_loader,
                                                hook_config);
  service::AdmissionConfig service_config;
  service_config.workers = 2;
  service = std::make_unique<service::AdmissionService>(
      service_config, *bpf, *loader, ext_loader.get());

  XB_ASSIGN_OR_RETURN(pkt_fd, CreateMap(*bpf, ebpf::MapType::kPercpuArray, 8,
                                        4, "pb_pkt"));
  XB_ASSIGN_OR_RETURN(audit_fd, CreateMap(*bpf, ebpf::MapType::kPercpuArray,
                                          8, 1, "pb_audit"));
  XB_ASSIGN_OR_RETURN(const int churn_fd,
                      CreateMap(*bpf, ebpf::MapType::kHash, 8, kChurnKeys,
                                "pb_churn"));
  churn_map = bpf->maps().Find(churn_fd).value();

  ebpf::LoadOptions options;
  options.staticcheck_prepass = true;
  auto admit = [&](xbase::Result<ebpf::Program> prog) -> xbase::Result<u32> {
    XB_RETURN_IF_ERROR(prog.status());
    return service->Wait(service->Load(prog.value(), options));
  };
  XB_ASSIGN_OR_RETURN(pkt_prog_id, admit(analysis::BuildPacketCounter(pkt_fd)));
  XB_ASSIGN_OR_RETURN(const u32 lsm_prog_id, admit(BuildLsmPolicy()));
  XB_ASSIGN_OR_RETURN(const u32 sched_prog_id,
                      admit(analysis::BuildSchedPickFirst()));
  audit_artifact = BuildAuditArtifact(*key, audit_fd, "pb-syscall-audit");
  XB_ASSIGN_OR_RETURN(audit_ext_id,
                      service->Wait(service->LoadExtension(audit_artifact)));
  if (!keep_service) {
    service->Shutdown();
    setup_metrics = service->Metrics();
    service.reset();
  }

  XB_RETURN_IF_ERROR(
      hooks->AttachProgram(safex::HookPoint::kXdpIngress, pkt_prog_id)
          .status());
  XB_RETURN_IF_ERROR(
      hooks->AttachExtension(safex::HookPoint::kSyscallEnter, audit_ext_id)
          .status());
  XB_RETURN_IF_ERROR(
      hooks->AttachProgram(safex::HookPoint::kLsmFileOpen, lsm_prog_id)
          .status());
  XB_RETURN_IF_ERROR(
      hooks->AttachProgram(safex::HookPoint::kSchedPickNext, sched_prog_id)
          .status());

  for (u8 cls = 0; cls < pkt_ctx.size(); ++cls) {
    u8 payload[48] = {};
    payload[12] = cls;  // protocol byte: counter key and verdict class
    XB_ASSIGN_OR_RETURN(simkern::SkBuff skb,
                        kernel->net().CreateSkBuff(kernel->mem(), payload));
    pkt_ctx[cls] = skb.meta_addr;
  }
  XB_ASSIGN_OR_RETURN(
      lsm_ctx, kernel->mem().Map(simkern::LsmCtxLayout::kSize,
                                 simkern::MemPerm::kReadWrite,
                                 simkern::RegionKind::kKernelData, "pb_lsm"));
  XB_RETURN_IF_ERROR(
      kernel->mem().WriteU32(lsm_ctx + simkern::LsmCtxLayout::kPid, 1));
  XB_RETURN_IF_ERROR(
      kernel->mem().WriteU32(lsm_ctx + simkern::LsmCtxLayout::kUid, 1000));
  XB_RETURN_IF_ERROR(
      kernel->mem().WriteU32(lsm_ctx + simkern::LsmCtxLayout::kOpenFlags, 0));
  XB_ASSIGN_OR_RETURN(
      sys_ctx, kernel->mem().Map(64, simkern::MemPerm::kReadWrite,
                                 simkern::RegionKind::kKernelData, "pb_sys"));

  // One scheduler core per CPU over per-CPU runqueues. The starvation
  // bound is huge: under a packet-dominated mix a CPU's simulated clock
  // races ahead of its rare ticks, and this tenant measures cost, not
  // containment.
  safex::SchedConfig sched_config;
  sched_config.starvation_bound_ns = 3600 * simkern::kNsPerSec;
  for (u32 cpu = 0; cpu < cpus; ++cpu) {
    cores.push_back(
        std::make_unique<safex::SchedCore>(*kernel, *hooks, sched_config));
    XB_RETURN_IF_ERROR(cores.back()->Init());
  }
  for (u32 i = 0; i < 4 * cpus; ++i) {
    const u32 pid = 60000 + i;
    XB_RETURN_IF_ERROR(kernel->tasks()
                           .Create(kernel->mem(), kernel->objects(), pid, pid,
                                   "perfbench")
                           .status());
    XB_RETURN_IF_ERROR(kernel->runqueue(pid % cpus).Enqueue(
        pid, kernel->clock().now_ns(pid % cpus)));
  }
  return xbase::Status::Ok();
}

}  // namespace perfbench
