//===- cipbench/src/Batch.cpp - domore-nest and spec-ckpt -----------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two batch workloads. Each runs a fixed set of train-scale programs
/// ("regions") through one engine: DOMORE for domore-nest, SPECCROSS with
/// the profiled speculative distance for spec-ckpt. A pass runs every
/// region sequentially and in parallel, interleaved, and passes repeat
/// until the measuring time is spent. Every run's checksum is compared
/// with the region's sequential reference.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"

#include "harness/Executor.h"
#include "support/Timer.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace cip;
using cip::telemetry::Counter;
using cip::telemetry::json::Writer;

namespace cipbench {
namespace {

/// Named numbers of one parallel run, written as one JSON object.
using Fields = std::vector<std::pair<const char *, double>>;

struct RunRecord {
  unsigned Pass = 0;
  bool Traced = false;
  Fields F;
};

struct Region {
  std::string Name;
  std::unique_ptr<workloads::Workload> W;
  std::uint64_t RefSum = 0;
  std::uint64_t SpecDistance = 0;
  std::uint32_t CkptInterval = speccross::SpecConfig().CheckpointIntervalEpochs;
  // Per setup repetition.
  std::vector<std::uint64_t> GenNs, SetupSeqNs, ProfileNs;
  // Per pass.
  std::vector<std::uint64_t> SeqNs, BuildNs;
  std::vector<RunRecord> Runs;
  // Direct CheckpointRegistry calls, one pair per epoch (traced runs).
  std::vector<std::uint64_t> SnapshotNs, RestoreNs;
};

/// Histograms merged over one pass's parallel runs.
struct PassHists {
  bool Traced = false;
  telemetry::HistogramData WorkerWait, CheckLatency, DispatchBatch;
};

const std::vector<std::string> DomorePrograms = {
    "symm", "llubench", "blackscholes", "fluidanimate1", "cg", "eclat",
    "loopdep"};
const std::vector<std::string> SpecPrograms = {
    "fdtd", "symm", "loopdep", "equake", "fluidanimate2", "jacobi", "cg",
    "bigstate"};

constexpr unsigned MinPasses = 3;

double ns(double Seconds) { return Seconds * 1e9; }

Span span(const char *Name, std::uint64_t B, std::uint64_t E,
          const std::string &Ref, Fields Counts = {}) {
  Span S;
  S.Name = Name;
  S.StartNs = B;
  S.EndNs = E;
  S.Ref = Ref;
  S.Counts = std::move(Counts);
  return S;
}

/// One full setup: inputs, sequential references, SPECCROSS profiles.
/// Returns false when a program is unknown or a reference changes between
/// repetitions (the inputs must be a pure function of the seed).
bool setUp(const Options &Opt, bool Spec, unsigned Threads, bool Record,
           Tracer &Tr, std::vector<Region> &Regions, bool First) {
  const std::vector<std::string> &Names = Spec ? SpecPrograms : DomorePrograms;
  if (First)
    Regions.resize(Names.size());
  for (std::size_t I = 0; I < Names.size(); ++I) {
    Region &R = Regions[I];
    R.Name = Names[I];
    R.W.reset(); // release the previous repetition's state first
    std::uint64_t T0 = nowNanos();
    R.W = makeInput(R.Name, Size::Train, Opt.Seed);
    if (!R.W) {
      std::fprintf(stderr, "cipbench: unknown program %s\n", R.Name.c_str());
      return false;
    }
    R.W->reset();
    std::uint64_t T1 = nowNanos();
    R.GenNs.push_back(T1 - T0);
    if (Record)
      Tr.add(span("workloads.generate", T0, T1, R.Name));

    const harness::ExecResult Seq = harness::runSequential(*R.W);
    std::uint64_t T2 = nowNanos();
    R.SetupSeqNs.push_back(T2 - T1);
    if (Record)
      Tr.add(span("harness.sequential", T1, T2, R.Name));
    if (!First && Seq.Checksum != R.RefSum) {
      std::fprintf(stderr, "cipbench: %s reference changed between setups\n",
                   R.Name.c_str());
      return false;
    }
    R.RefSum = Seq.Checksum;

    if (Spec) {
      R.SpecDistance = harness::profiledSpecDistance(
          *R.W, Threads > 1 ? Threads - 1 : 1);
      const std::uint64_t T3 = nowNanos();
      R.ProfileNs.push_back(T3 - T2);
      if (Record)
        Tr.add(span("harness.profile", T2, T3, R.Name,
                    {{"spec_distance", static_cast<double>(R.SpecDistance)}}));
      // bigstate is the heavy-checkpointing region: a snapshot per epoch.
      if (R.Name == "bigstate")
        R.CkptInterval = 1;
    }
  }
  return true;
}

void runEpochSequentially(workloads::Workload &W, std::uint32_t E) {
  if (W.hasPrologue())
    W.epochPrologue(E, 0);
  for (std::size_t T = 0, N = W.numTasks(E); T < N; ++T)
    W.runTask(E, T);
}

/// Times CheckpointRegistry::takeSnapshot/restoreSnapshot directly on the
/// region's registered state, one pair per epoch: snapshot, run the epoch,
/// restore, run it again. The final state must equal the reference, so a
/// restore that loses or invents a write fails the run.
void directCheckpoints(Region &R, Tally &T, Tracer &Tr) {
  workloads::Workload &W = *R.W;
  W.reset();
  speccross::CheckpointRegistry Reg;
  W.registerState(Reg);
  for (std::uint32_t E = 0, NE = W.numEpochs(); E < NE; ++E) {
    const std::uint64_t T0 = nowNanos();
    Reg.takeSnapshot();
    const std::uint64_t T1 = nowNanos();
    runEpochSequentially(W, E);
    const std::uint64_t T2 = nowNanos();
    Reg.restoreSnapshot();
    const std::uint64_t T3 = nowNanos();
    runEpochSequentially(W, E);
    R.SnapshotNs.push_back(T1 - T0);
    R.RestoreNs.push_back(T3 - T2);
    Tr.add(span("memory.snapshot", T0, T1, R.Name,
                {{"dirty_pages", static_cast<double>(Reg.lastDirtyPages())},
                 {"bytes_copied",
                  static_cast<double>(Reg.lastBytesCopied())}}));
    Tr.add(span("memory.restore", T2, T3, R.Name));
  }
  T.check(W.checksum() == R.RefSum, R.Name + " after direct checkpoints");
}

Fields domoreFields(const domore::DomoreStats &S) {
  Fields F = {{"engine_ns", ns(S.TotalSeconds)},
              {"iters", static_cast<double>(S.Iterations)},
              {"sync_conds", static_cast<double>(S.SyncConditions)},
              {"sched_busy_ns", ns(S.SchedulerBusySeconds)},
              {"prologue_waits", static_cast<double>(S.PrologueWaits)}};
#if CIP_TELEMETRY
  const auto &C = S.Telemetry;
  F.insert(F.end(),
           {{"sched_stall_ns", double(C.get(Counter::SchedulerStallNs))},
            {"worker_wait_ns", double(C.get(Counter::WorkerWaitNs))},
            {"queue_full_spins", double(C.get(Counter::QueueFullSpins))},
            {"queue_empty_spins", double(C.get(Counter::QueueEmptySpins))},
            {"barrier_wait_ns", double(C.get(Counter::BarrierWaitNs))},
            {"worker_wait_p99_ns", double(S.WorkerWait.percentileNs(0.99))},
            {"worker_wait_count", double(S.WorkerWait.count())}});
#endif
  return F;
}

Fields specFields(const speccross::SpecStats &S) {
  Fields F = {{"engine_ns", ns(S.TotalSeconds)},
              {"epochs", static_cast<double>(S.Epochs)},
              {"check_requests", static_cast<double>(S.CheckRequests)},
              {"cmp", static_cast<double>(S.SignatureComparisons)},
              {"misspec", static_cast<double>(S.Misspeculations)},
              {"snapshots", static_cast<double>(S.CheckpointsTaken)},
              {"reexec_epochs", static_cast<double>(S.ReexecutedEpochs)},
              {"ckpt_ns", ns(S.CheckpointSeconds)},
              {"recovery_ns", ns(S.RecoverySeconds)}};
#if CIP_TELEMETRY
  const auto &C = S.Telemetry;
  F.insert(F.end(),
           {{"tasks_run", double(C.get(Counter::TasksExecuted))},
            {"worker_wait_ns", double(C.get(Counter::WorkerWaitNs))},
            {"barrier_wait_ns", double(C.get(Counter::BarrierWaitNs))},
            {"dirty_pages", double(C.get(Counter::DirtyPages))},
            {"copied_bytes", double(C.get(Counter::CkptBytesCopied))},
            {"check_p99_ns", double(S.CheckLatency.percentileNs(0.99))},
            {"check_count", double(S.CheckLatency.count())}});
#endif
  return F;
}

void writeHist(Writer &W, const char *K, const telemetry::HistogramData &H) {
  W.key(K);
  W.beginObject();
  W.key("count");
  W.value(H.count());
  W.key("sum");
  W.value(H.SumNs);
  W.key("p99_ns");
  W.value(H.percentileNs(0.99));
  W.endObject();
}

} // namespace

bool runBatch(const Options &Opt, Tally &T, Tracer &Tr, Writer &Out) {
  const bool Spec = Opt.Workload == "spec-ckpt";
  const unsigned Threads = benchThreads();

  // Setup, repeated; the last repetition's inputs are the ones measured.
  std::vector<Region> Regions;
  std::vector<std::uint64_t> SetupNs;
  std::uint64_t Spent = 0;
  for (unsigned Rep = 0; moreSetups(Rep, Spent); ++Rep) {
    const std::uint64_t T0 = nowNanos();
    if (!setUp(Opt, Spec, Threads, Tr.on() && Rep == 0, Tr, Regions,
               Rep == 0))
      return false;
    SetupNs.push_back(nowNanos() - T0);
    Spent += SetupNs.back();
  }

  // Engine configuration as the runs report it.
  std::uint32_t ShadowShards = 0, SchedThreads = 0, CheckLanes = 0;
  bool BatchCheck = false;
  std::string Substrate;

  std::vector<PassHists> Passes;
  const std::uint64_t Deadline =
      nowNanos() + static_cast<std::uint64_t>(Opt.Seconds * 1e9);
  for (unsigned P = 0; P < MinPasses || nowNanos() < Deadline; ++P) {
    PassHists H;
    // Traced runs alternate traced and untraced passes; their ratio is
    // the tracing overhead.
    H.Traced = Tr.on() && P % 2 == 1;
    for (Region &R : Regions) {
      workloads::Workload &W = *R.W;
      W.reset();
      std::uint64_t T0 = nowNanos();
      const harness::ExecResult Seq = harness::runSequential(W);
      std::uint64_t T1 = nowNanos();
      R.SeqNs.push_back(T1 - T0);
      T.check(Seq.Checksum == R.RefSum,
              R.Name + " sequential, pass " + std::to_string(P));
      if (H.Traced)
        Tr.add(span("harness.sequential", T0, T1, R.Name));

      W.reset();
      RunRecord Run;
      Run.Pass = P;
      Run.Traced = H.Traced;
      harness::ExecResult Par;
      if (Spec) {
        speccross::SpecConfig Cfg;
        Cfg.NumWorkers = Threads > 1 ? Threads - 1 : 1;
        Cfg.Scheme = W.preferredSignature();
        Cfg.SpecDistance = R.SpecDistance;
        Cfg.CheckpointIntervalEpochs = R.CkptInterval;
        speccross::SpecStats S;
        T0 = nowNanos();
        Par = harness::runSpecCross(W, Cfg, speccross::SpecMode::Speculation,
                                    &S);
        T1 = nowNanos();
        Run.F = specFields(S);
        CheckLanes = S.CheckLanes;
        BatchCheck = S.BatchCheckEnabled;
        if (S.CheckpointsTaken)
          Substrate = S.CkptSubstrate;
        H.WorkerWait += S.WorkerWait;
        H.CheckLatency += S.CheckLatency;
      } else {
        domore::DomoreStats S;
        T0 = nowNanos();
        Par = harness::runDomore(W, Threads, domore::PolicyKind::RoundRobin,
                                 &S);
        T1 = nowNanos();
        Run.F = domoreFields(S);
        ShadowShards = S.ShadowShards;
        SchedThreads = S.SchedThreads;
        H.WorkerWait += S.WorkerWait;
        H.DispatchBatch += S.DispatchBatch;
      }
      Run.F.insert(Run.F.begin(), {"wall_ns", double(T1 - T0)});
      T.check(Par.Checksum == R.RefSum,
              R.Name + " parallel, pass " + std::to_string(P));
      if (H.Traced)
        Tr.add(span(Spec ? "speccross.run" : "domore.run", T0, T1, R.Name,
                    Run.F));
      R.Runs.push_back(std::move(Run));

      // The build step alone, as the engines' harness entry points run it.
      if (Tr.on()) {
        T0 = nowNanos();
        if (Spec) {
          speccross::CheckpointRegistry Reg;
          (void)harness::buildRegion(W, Reg);
        } else {
          (void)harness::buildLoopNest(W);
        }
        T1 = nowNanos();
        R.BuildNs.push_back(T1 - T0);
        if (H.Traced)
          Tr.add(span("harness.build", T0, T1, R.Name));
      }
    }
    Passes.push_back(std::move(H));
  }

  Out.key("peak_rss_kb");
  Out.value(peakRssKb());

  if (Spec && Tr.on())
    for (Region &R : Regions)
      if (R.CkptInterval == 1)
        directCheckpoints(R, T, Tr);

  Out.key("setup_ns");
  Out.beginArray();
  for (std::uint64_t V : SetupNs)
    Out.value(V);
  Out.endArray();

  Out.key("engine");
  Out.beginObject();
  if (Spec) {
    Out.key("spec_workers");
    Out.value(Threads > 1 ? Threads - 1 : 1);
    Out.key("check_lanes");
    Out.value(CheckLanes);
    Out.key("batch_check");
    Out.value(BatchCheck);
    Out.key("ckpt_substrate");
    Out.value(Substrate);
  } else {
    Out.key("domore_workers");
    Out.value(Threads > 1 ? Threads - 1 : 1);
    Out.key("shadow_shards");
    Out.value(ShadowShards);
    Out.key("sched_threads");
    Out.value(SchedThreads);
  }
  Out.endObject();

  Out.key("passes");
  Out.beginArray();
  for (const PassHists &H : Passes) {
    Out.beginObject();
    Out.key("traced");
    Out.value(H.Traced);
#if CIP_TELEMETRY
    writeHist(Out, "worker_wait", H.WorkerWait);
    writeHist(Out, Spec ? "check_latency" : "dispatch_batch",
              Spec ? H.CheckLatency : H.DispatchBatch);
#endif
    Out.endObject();
  }
  Out.endArray();

  Out.key("regions");
  Out.beginArray();
  for (const Region &R : Regions) {
    Out.beginObject();
    Out.key("name");
    Out.value(R.Name);
    Out.key("tasks");
    Out.value(R.W->totalTasks());
    Out.key("epochs");
    Out.value(R.W->numEpochs());
    Out.key("spec_distance");
    Out.value(R.SpecDistance);
    Out.key("ckpt_interval");
    Out.value(R.CkptInterval);
    writeArray(Out, "gen_ns", R.GenNs);
    writeArray(Out, "setup_seq_ns", R.SetupSeqNs);
    writeArray(Out, "profile_ns", R.ProfileNs);
    writeArray(Out, "seq_ns", R.SeqNs);
    writeArray(Out, "build_ns", R.BuildNs);
    writeArray(Out, "snapshot_ns", R.SnapshotNs);
    writeArray(Out, "restore_ns", R.RestoreNs);
    Out.key("runs");
    Out.beginArray();
    for (const RunRecord &Run : R.Runs) {
      Out.beginObject();
      Out.key("pass");
      Out.value(Run.Pass);
      Out.key("traced");
      Out.value(Run.Traced);
      for (const auto &[K, V] : Run.F) {
        Out.key(K);
        Out.value(V);
      }
      Out.endObject();
    }
    Out.endArray();
    Out.endObject();
  }
  Out.endArray();
  return true;
}

} // namespace cipbench
