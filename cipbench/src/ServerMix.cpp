//===- cipbench/src/ServerMix.cpp - server-mix ----------------------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open loop of seeded exponential arrivals into one RegionServer with
/// its default configuration, at three fixed offered rates (lo, hi, over).
/// Each request is a seeded draw of program (jacobi, loopdep, cg,
/// blackscholes at an intermediate size) and technique (barrier, DOMORE,
/// SPECCROSS, adaptive). At most nproc client threads send; a request is
/// timed from its scheduled send time, so a generator that falls behind
/// charges the wait to the request, and the lateness is recorded too.
///
/// The measuring time is cut into rounds, and each round runs every rate
/// for its share of the round, so each rate samples the whole run.
///
/// RequestResult carries no engine statistics, so after each rate's slice a
/// "direct" round runs the same inputs through the harness entry points
/// (build calls, every technique at full width, each next to a sequential
/// run) to read telemetry, AdaptiveStats, the engine configuration and the
/// speedup.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"

#include "harness/Adaptive.h"
#include "server/RegionServer.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace cip;
using cip::telemetry::json::Writer;

namespace cipbench {
namespace {

constexpr unsigned NumPrograms = 4;
const char *const Programs[NumPrograms] = {"jacobi", "loopdep", "cg",
                                           "blackscholes"};

enum Tech : unsigned { Barrier, Domore, SpecCross, Adaptive, NumTechs };
const char *const TechNames[NumTechs] = {"barrier", "domore", "speccross",
                                         "adaptive"};
const char *const RateNames[3] = {"lo", "hi", "over"};
/// Share of the measuring time each rate's arrivals span. The overload
/// rate only needs long enough to read the completion rate.
const double RateShare[3] = {0.45, 0.35, 0.2};

/// p99 needs at least ten samples beyond it.
constexpr std::size_t MinRequestsPerRate = 1000;
/// Rounds of lo, hi and over slices. The machine's speed drifts over
/// seconds as its other tenants come and go; a rate measured in one
/// contiguous window would take that window's speed alone.
constexpr unsigned Rounds = 5;
/// Sequential reference runs per program after each slice, so the
/// sequential time is sampled across the run, not in one window.
constexpr unsigned SeqRepsPerSlice = 4;

struct Request {
  unsigned Prog = 0;
  unsigned Technique = Barrier;
  std::uint64_t DueNs = 0; ///< from the rate's start
  // Filled in by the client that sent it.
  std::uint64_t SendNs = 0, EndNs = 0, QueueNs = 0;
  double ExecSeconds = 0.0;
  unsigned Granted = 0;
  bool Degraded = false;
  bool Completed = false;
  bool Traced = false;
  const char *Ran = "";
};

/// The requests of one round's slice of a rate: exponential interarrival
/// times, and a (program, technique) mix balanced in seeded blocks of
/// NumPrograms x NumTechs, so every seed offers the same work and only the
/// order and the arrival times differ.
std::vector<Request> schedule(std::uint64_t Seed, unsigned RateIdx,
                              unsigned Round, double Rps, std::size_t N) {
  Xoshiro256StarStar Rng(deriveSeed(
      Seed, std::string("server-mix/") + RateNames[RateIdx] + "/" +
                std::to_string(Round)));
  constexpr unsigned Combos = NumPrograms * NumTechs;
  unsigned Block[Combos];
  std::vector<Request> Out(N);
  double T = 0.0;
  for (std::size_t I = 0; I < N; ++I) {
    if (I % Combos == 0) {
      for (unsigned K = 0; K < Combos; ++K)
        Block[K] = K;
      for (unsigned K = Combos - 1; K > 0; --K)
        std::swap(Block[K], Block[Rng.nextBelow(K + 1)]);
    }
    T += -std::log(1.0 - Rng.nextDouble()) / Rps;
    Out[I].DueNs = static_cast<std::uint64_t>(T * 1e9);
    Out[I].Prog = Block[I % Combos] / NumTechs;
    Out[I].Technique = Block[I % Combos] % NumTechs;
  }
  return Out;
}

policy::Technique engineTech(unsigned T) {
  switch (T) {
  case Domore:
    return policy::Technique::Domore;
  case SpecCross:
    return policy::Technique::SpecCross;
  default:
    return policy::Technique::Barrier;
  }
}

/// Everything setup builds; the last repetition's copy is measured.
struct State {
  /// Private inputs per client: requests mutate workload state.
  std::vector<std::unique_ptr<workloads::Workload>> Mine; // [client][prog]
  /// One more instance per program for the sequential reference runs.
  std::unique_ptr<workloads::Workload> Ref[NumPrograms];
  std::uint64_t RefSum[NumPrograms] = {};
  std::unique_ptr<server::RegionServer> Server;
  std::vector<std::uint64_t> GenNs; ///< input generation, per setup
  /// The timed sequential reference runs, per program, one per setup.
  std::vector<std::uint64_t> SeqNs[NumPrograms];
};

bool setUp(const Options &Opt, unsigned Clients, State &S, bool First,
           Tracer &Tr) {
  S.Server.reset();
  S.Mine.clear();
  for (unsigned P = 0; P < NumPrograms; ++P) {
    S.Ref[P] = makeInput(Programs[P], Size::Mid, Opt.Seed);
    S.Ref[P]->reset();
    const std::uint64_t T0 = nowNanos();
    const std::uint64_t Sum = harness::runSequential(*S.Ref[P]).Checksum;
    const std::uint64_t T1 = nowNanos();
    S.SeqNs[P].push_back(T1 - T0);
    if (First)
      Tr.add(Span{0, 0, "harness.sequential", T0, T1, Programs[P], {}});
    if (!First && Sum != S.RefSum[P]) {
      std::fprintf(stderr, "cipbench: %s reference changed between setups\n",
                   Programs[P]);
      return false;
    }
    S.RefSum[P] = Sum;
  }
  const std::uint64_t T0 = nowNanos();
  for (unsigned C = 0; C < Clients; ++C)
    for (unsigned P = 0; P < NumPrograms; ++P) {
      S.Mine.push_back(makeInput(Programs[P], Size::Mid, Opt.Seed));
      S.Mine.back()->reset();
    }
  S.GenNs.push_back(nowNanos() - T0);
  if (First)
    Tr.add(Span{0, 0, "workloads.generate", T0, T0 + S.GenNs.back(),
                "server-mix", {}});
  server::ServerConfig Cfg;
  Cfg.Workers = Clients;
  S.Server =
      std::make_unique<server::RegionServer>(server::configFromEnv(Cfg));
  return true;
}

void sleepUntil(std::uint64_t DueNs) {
  const std::uint64_t Now = nowNanos();
  if (Now < DueNs)
    std::this_thread::sleep_for(std::chrono::nanoseconds(DueNs - Now));
}

/// Sends \p Reqs with \p Clients open-loop client threads. Requests go out
/// in schedule order; a client takes the next one as soon as it is free.
/// \p Slice names the requests in checks and spans.
void drive(State &S, std::vector<Request> &Reqs, unsigned Clients,
           const policy::PolicyConfig &Policy, const std::string &Slice,
           Tally &T, Tracer &Tr) {
  std::atomic<std::size_t> Next{0};
  const std::uint64_t Start = nowNanos() + 1000000; // 1 ms to fan out
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      for (;;) {
        const std::size_t I = Next.fetch_add(1);
        if (I >= Reqs.size())
          return;
        Request &R = Reqs[I];
        workloads::Workload &W = *S.Mine[C * NumPrograms + R.Prog];
        sleepUntil(Start + R.DueNs);
        server::RegionRequest Q;
        Q.W = &W;
        Q.Tech = engineTech(R.Technique);
        if (R.Technique == Adaptive)
          Q.Policy = &Policy;
        R.SendNs = nowNanos() - Start;
        const server::RequestResult Res = S.Server->submit(Q);
        R.EndNs = nowNanos() - Start;
        R.QueueNs = Res.QueueWaitNs;
        R.ExecSeconds = Res.Seconds;
        R.Granted = Res.Granted;
        R.Degraded = Res.Degraded;
        R.Ran = Res.Technique;
        R.Completed = Res.Status == server::RequestStatus::Completed;
        if (R.Completed)
          T.check(Res.Checksum == S.RefSum[R.Prog],
                  Slice + " request " + std::to_string(I));
        else
          T.reject();
        R.Traced = Tr.on() && I % 2 == 1;
        if (R.Traced) {
          const std::string Ref = Slice + "#" + std::to_string(I);
          const std::uint64_t Id = Tr.reserve();
          Span Sub;
          Sub.Id = Id;
          Sub.Name = "server.submit";
          Sub.StartNs = Start + R.SendNs;
          Sub.EndNs = Start + R.EndNs;
          Sub.Ref = Ref;
          Sub.Counts = {{"granted", double(R.Granted)},
                        {"degraded", double(R.Degraded)},
                        {"adaptive", double(R.Technique == Adaptive)}};
          Tr.add(Sub);
          const std::uint64_t QueueEnd =
              std::min(Sub.StartNs + R.QueueNs, Sub.EndNs);
          Span Queue;
          Queue.Parent = Id;
          Queue.Name = "server.queue";
          Queue.StartNs = Sub.StartNs;
          Queue.EndNs = QueueEnd;
          Queue.Ref = Ref;
          Tr.add(Queue);
          Span Exec;
          Exec.Parent = Id;
          Exec.Name = "server.exec";
          Exec.StartNs = QueueEnd;
          Exec.EndNs = Sub.EndNs;
          Exec.Ref = Ref;
          Exec.Counts = {{"engine_s", R.ExecSeconds}};
          Tr.add(Exec);
        }
        W.reset(); // ready for this client's next request of the program
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
}

/// One direct harness run of the direct phase.
struct DirectRun {
  unsigned Prog = 0;
  const char *Technique = "";
  std::uint64_t WallNs = 0;
  /// A sequential run of the same input just before, for the speedup.
  std::uint64_t SeqNs = 0;
  std::uint64_t BarrierWaitNs = 0;
  std::uint64_t DecisionNs = 0;
  std::uint64_t Switches = 0;
};

} // namespace

bool runServerMix(const Options &Opt, Tally &T, Tracer &Tr, Writer &Out) {
  const unsigned Clients = benchThreads();
  policy::PolicyConfig Policy;
  Policy.Kind = policy::PolicyKind::Threshold;

  State S;
  std::vector<std::uint64_t> SetupNs;
  std::uint64_t Spent = 0;
  for (unsigned Rep = 0; moreSetups(Rep, Spent); ++Rep) {
    const std::uint64_t T0 = nowNanos();
    if (!setUp(Opt, Clients, S, Rep == 0, Tr))
      return false;
    SetupNs.push_back(nowNanos() - T0);
    Spent += SetupNs.back();
  }

  // Direct rounds: the request inputs through the harness entry points,
  // for the statistics a RequestResult does not carry. One round follows
  // each slice, so the samples span the run rather than one window.
  std::uint32_t ShadowShards = 0, SchedThreads = 0, CheckLanes = 0;
  bool BatchCheck = false;
  std::string Substrate;
  std::vector<DirectRun> Direct;
  std::vector<std::uint64_t> NestNs[NumPrograms], RegionNs[NumPrograms];
  const auto DirectRound = [&] {
    for (unsigned P = 0; P < NumPrograms; ++P) {
      workloads::Workload &W = *S.Mine[P];
      W.reset();
      std::uint64_t T0 = 0, T1 = 0;
      if (W.domoreApplicable()) {
        T0 = nowNanos();
        (void)harness::buildLoopNest(W);
        T1 = nowNanos();
        NestNs[P].push_back(T1 - T0);
        if (Tr.on())
          Tr.add(Span{0, 0, "harness.build", T0, T1, Programs[P], {}});
      }
      {
        speccross::CheckpointRegistry Reg;
        T0 = nowNanos();
        (void)harness::buildRegion(W, Reg);
        T1 = nowNanos();
      }
      RegionNs[P].push_back(T1 - T0);
      if (Tr.on())
        Tr.add(Span{0, 0, "harness.build", T0, T1, Programs[P], {}});

      for (unsigned Tc = 0; Tc < NumTechs; ++Tc) {
        if (Tc == Domore && !W.domoreApplicable())
          continue;
        W.reset();
        DirectRun D;
        D.Prog = P;
        D.Technique = TechNames[Tc];
        T0 = nowNanos();
        T.check(harness::runSequential(W).Checksum == S.RefSum[P],
                std::string(Programs[P]) + " direct sequential");
        D.SeqNs = nowNanos() - T0;
        W.reset();
        harness::ExecResult R;
        const char *SpanName = "harness.barrier";
        T0 = nowNanos();
        if (Tc == Barrier) {
          R = harness::runBarrier(W, Clients);
        } else if (Tc == Domore) {
          domore::DomoreStats DS;
          R = harness::runDomore(W, Clients, domore::PolicyKind::RoundRobin,
                                 &DS);
          ShadowShards = DS.ShadowShards;
          SchedThreads = DS.SchedThreads;
          SpanName = "domore.run";
        } else if (Tc == SpecCross) {
          speccross::SpecConfig SC;
          SC.NumWorkers = Clients > 1 ? Clients - 1 : 1;
          SC.Scheme = W.preferredSignature();
          speccross::SpecStats SS;
          R = harness::runSpecCross(W, SC, speccross::SpecMode::Speculation,
                                    &SS);
          CheckLanes = SS.CheckLanes;
          BatchCheck = SS.BatchCheckEnabled;
          Substrate = SS.CkptSubstrate;
          SpanName = "speccross.run";
        } else {
          harness::AdaptiveStats AS;
          R = harness::runAdaptive(W, Clients, Policy, &AS);
          D.DecisionNs = AS.DecisionNanos;
          D.Switches = AS.Switches.size();
          SpanName = "policy.adaptive";
        }
        T1 = nowNanos();
        D.WallNs = T1 - T0;
        D.BarrierWaitNs = R.Telemetry.get(telemetry::Counter::BarrierWaitNs);
        T.check(W.checksum() == S.RefSum[P],
                std::string(Programs[P]) + " direct " + D.Technique);
        W.reset(); // client 0 sends its next request on this instance
        if (Tr.on())
          Tr.add(Span{0, 0, SpanName, T0, T1, Programs[P], {}});
        Direct.push_back(D);
      }
    }
  };

  struct RateRun {
    /// Every slice's requests on the rate's own timeline: each slice's
    /// times are shifted past the end of the rate's earlier slices.
    std::vector<Request> Reqs;
    std::uint64_t SpanNs = 0;
    server::ServerStats Delta;
  };
  RateRun Runs[3];
  std::size_t PerSlice[3];
  for (unsigned RI = 0; RI < 3; ++RI) {
    const std::size_t N = std::max<std::size_t>(
        MinRequestsPerRate,
        static_cast<std::size_t>(Opt.Rates[RI] * Opt.Seconds * RateShare[RI]));
    // Whole blocks of the mix per slice, so every slice offers the same mix.
    constexpr std::size_t Block = NumPrograms * NumTechs;
    PerSlice[RI] = (N + Rounds * Block - 1) / (Rounds * Block) * Block;
  }
  for (unsigned Round = 0; Round < Rounds; ++Round)
    for (unsigned RI = 0; RI < 3; ++RI) {
      RateRun &RR = Runs[RI];
      std::vector<Request> Reqs =
          schedule(Opt.Seed, RI, Round, Opt.Rates[RI], PerSlice[RI]);
      const server::ServerStats Before = S.Server->stats();
      drive(S, Reqs, Clients, Policy,
            std::string(RateNames[RI]) + "/" + std::to_string(Round), T, Tr);
      const server::ServerStats After = S.Server->stats();
      RR.Delta.Rejected += After.Rejected - Before.Rejected;
      RR.Delta.DegradedNarrow += After.DegradedNarrow - Before.DegradedNarrow;
      RR.Delta.DegradedSequential +=
          After.DegradedSequential - Before.DegradedSequential;
      std::uint64_t SliceNs = 0;
      for (Request &R : Reqs) {
        SliceNs = std::max(SliceNs, R.EndNs);
        R.DueNs += RR.SpanNs;
        R.SendNs += RR.SpanNs;
        R.EndNs += RR.SpanNs;
        RR.Reqs.push_back(R);
      }
      RR.SpanNs += SliceNs;

      for (unsigned K = 0; K < SeqRepsPerSlice; ++K)
        for (unsigned P = 0; P < NumPrograms; ++P) {
          workloads::Workload &W = *S.Ref[P];
          W.reset();
          const std::uint64_t T0 = nowNanos();
          const harness::ExecResult Seq = harness::runSequential(W);
          const std::uint64_t T1 = nowNanos();
          S.SeqNs[P].push_back(T1 - T0);
          T.check(Seq.Checksum == S.RefSum[P],
                  std::string(Programs[P]) + " sequential");
          if (Tr.on())
            Tr.add(Span{0, 0, "harness.sequential", T0, T1, Programs[P], {}});
        }
      DirectRound();
    }
  Out.key("peak_rss_kb");
  Out.value(peakRssKb());
  const server::ServerConfig Cfg = S.Server->config();
  S.Server.reset();

  writeArray(Out, "setup_ns", SetupNs);
  writeArray(Out, "gen_ns", S.GenNs);
  Out.key("rates");
  Out.beginArray();
  for (unsigned RI = 0; RI < 3; ++RI) {
    const RateRun &RR = Runs[RI];
    Out.beginObject();
    Out.key("name");
    Out.value(RateNames[RI]);
    Out.key("rps");
    Out.value(Opt.Rates[RI]);
    Out.key("rejected");
    Out.value(RR.Delta.Rejected);
    Out.key("degraded_narrow");
    Out.value(RR.Delta.DegradedNarrow);
    Out.key("degraded_seq");
    Out.value(RR.Delta.DegradedSequential);
    Out.key("requests");
    Out.beginArray();
    for (const Request &R : RR.Reqs) {
      Out.beginObject();
      Out.key("prog");
      Out.value(Programs[R.Prog]);
      Out.key("tech");
      Out.value(TechNames[R.Technique]);
      Out.key("ran");
      Out.value(R.Ran);
      Out.key("tasks");
      Out.value(S.Mine[R.Prog]->totalTasks());
      Out.key("due_ns");
      Out.value(R.DueNs);
      Out.key("send_ns");
      Out.value(R.SendNs);
      Out.key("end_ns");
      Out.value(R.EndNs);
      Out.key("queue_ns");
      Out.value(R.QueueNs);
      Out.key("engine_ns");
      Out.value(static_cast<std::uint64_t>(R.ExecSeconds * 1e9));
      Out.key("granted");
      Out.value(R.Granted);
      Out.key("degraded");
      Out.value(R.Degraded);
      Out.key("completed");
      Out.value(R.Completed);
      Out.key("traced");
      Out.value(R.Traced);
      Out.endObject();
    }
    Out.endArray();
    Out.endObject();
  }
  Out.endArray();

  Out.key("programs");
  Out.beginArray();
  for (unsigned P = 0; P < NumPrograms; ++P) {
    Out.beginObject();
    Out.key("name");
    Out.value(Programs[P]);
    Out.key("tasks");
    Out.value(S.Mine[P]->totalTasks());
    writeArray(Out, "seq_ns", S.SeqNs[P]);
    writeArray(Out, "build_nest_ns", NestNs[P]);
    writeArray(Out, "build_region_ns", RegionNs[P]);
    Out.endObject();
  }
  Out.endArray();

  Out.key("direct");
  Out.beginArray();
  for (const DirectRun &D : Direct) {
    Out.beginObject();
    Out.key("prog");
    Out.value(Programs[D.Prog]);
    Out.key("tech");
    Out.value(D.Technique);
    Out.key("wall_ns");
    Out.value(D.WallNs);
    Out.key("seq_ns");
    Out.value(D.SeqNs);
#if CIP_TELEMETRY
    Out.key("barrier_wait_ns");
    Out.value(D.BarrierWaitNs);
#endif
    if (std::string(D.Technique) == "adaptive") {
      Out.key("decision_ns");
      Out.value(D.DecisionNs);
      Out.key("switches");
      Out.value(D.Switches);
    }
    Out.endObject();
  }
  Out.endArray();

  Out.key("engine");
  Out.beginObject();
  Out.key("server_workers");
  Out.value(Cfg.Workers);
  Out.key("server_queue_capacity");
  Out.value(Cfg.QueueCapacity);
  Out.key("server_min_workers");
  Out.value(Cfg.MinWorkers);
  Out.key("clients");
  Out.value(Clients);
  Out.key("shadow_shards");
  Out.value(ShadowShards);
  Out.key("sched_threads");
  Out.value(SchedThreads);
  Out.key("check_lanes");
  Out.value(CheckLanes);
  Out.key("batch_check");
  Out.value(BatchCheck);
  Out.key("ckpt_substrate");
  Out.value(Substrate);
  Out.key("policy");
  Out.value(policy::policyKindName(Policy.Kind));
  Out.endObject();
  return true;
}

} // namespace cipbench
