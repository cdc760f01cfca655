//===- cipbench/src/main.cpp - Benchmark entry point ----------------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cipbench --workload domore-nest|spec-ckpt|server-mix --seed N
///          --seconds S --trace 0|1 [--rates LO,HI,OVER]
///          --out FILE
///
/// Runs one workload and writes its raw samples to FILE as one JSON
/// object. Exit codes: 0 on success, 1 when a run's checksum differed from
/// its sequential reference (the samples are still written), 2 on a usage
/// or setup error. cipbench/run.py builds this binary and computes the
/// metrics.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <string>
#include <sys/resource.h>
#include <thread>

using namespace cipbench;
using cip::telemetry::json::Writer;

unsigned cipbench::benchThreads() {
  unsigned Cpus = std::thread::hardware_concurrency();
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    Cpus = static_cast<unsigned>(CPU_COUNT(&Set));
  // Below 4 threads the engines lose the workers the evidence checks rely
  // on: with 2 SPECCROSS workers jacobi's profiled distance never
  // misspeculates, and 1 DOMORE worker has no sync conditions.
  return std::max(Cpus, MinThreads);
}

std::uint64_t cipbench::peakRssKb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<std::uint64_t>(Usage.ru_maxrss);
}

void Tracer::write(Writer &W) const {
  W.beginArray();
  for (const Span &S : Spans) {
    W.beginObject();
    W.key("id");
    W.value(S.Id);
    W.key("parent");
    W.value(S.Parent);
    W.key("name");
    W.value(S.Name);
    W.key("start_ns");
    W.value(S.StartNs);
    W.key("end_ns");
    W.value(S.EndNs);
    W.key("ref");
    W.value(S.Ref);
    W.key("counts");
    W.beginObject();
    for (const auto &[K, V] : S.Counts) {
      W.key(K);
      W.value(V);
    }
    W.endObject();
    W.endObject();
  }
  W.endArray();
}

void cipbench::writeArray(Writer &W, const char *K,
                          const std::vector<std::uint64_t> &Values) {
  W.key(K);
  W.beginArray();
  for (std::uint64_t V : Values)
    W.value(V);
  W.endArray();
}

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "cipbench: %s\nusage: cipbench --workload "
               "domore-nest|spec-ckpt|server-mix --seed N --seconds S "
               "--trace 0|1 [--rates LO,HI,OVER] "
               "--out FILE\n",
               Why);
  std::exit(2);
}

bool parseDouble(const char *S, double &Out) {
  char *End = nullptr;
  errno = 0;
  Out = std::strtod(S, &End);
  return *S && errno == 0 && *End == '\0' && Out > 0.0;
}

bool parseU64(const char *S, std::uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  Out = std::strtoull(S, &End, 10);
  return *S && *S != '-' && errno == 0 && *End == '\0';
}

Options parse(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      if (!parseU64(V, O.Seed))
        usage("--seed must be a non-negative integer");
      HaveSeed = true;
    } else if (A == "--seconds") {
      if (!parseDouble(V, O.Seconds))
        usage("--seconds must be a positive number");
      HaveSeconds = true;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        usage("--trace must be 0 or 1");
      O.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (A == "--rates") {
      std::string S = V;
      for (unsigned K = 0; K < 3; ++K) {
        const std::size_t Comma = S.find(',');
        const std::string Tok = S.substr(0, Comma);
        if (!parseDouble(Tok.c_str(), O.Rates[K]) ||
            (K < 2) == (Comma == std::string::npos))
          usage("--rates must be three positive numbers LO,HI,OVER");
        S = Comma == std::string::npos ? "" : S.substr(Comma + 1);
      }
    } else if (A == "--out") {
      O.OutPath = V;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (O.Workload != "domore-nest" && O.Workload != "spec-ckpt" &&
      O.Workload != "server-mix")
    usage("--workload must be domore-nest, spec-ckpt or server-mix");
  if (!HaveSeed || !HaveSeconds || !HaveTrace || O.OutPath.empty())
    usage("--seed, --seconds, --trace and --out are required");
  if (O.Workload == "server-mix" && O.Rates[0] == 0.0)
    usage("server-mix needs --rates");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options Opt = parse(Argc, Argv);
  Tally T;
  Tracer Tr(Opt.Trace);

  Writer Out;
  Out.beginObject();
  Out.key("workload");
  Out.value(Opt.Workload);
  Out.key("seed");
  Out.value(Opt.Seed);
  Out.key("trace");
  Out.value(Opt.Trace);
  Out.key("telemetry");
  Out.value(static_cast<bool>(CIP_TELEMETRY));
  Out.key("threads");
  Out.value(benchThreads());
  const bool Ok = Opt.Workload == "server-mix"
                      ? runServerMix(Opt, T, Tr, Out)
                      : runBatch(Opt, T, Tr, Out);
  if (!Ok)
    return 2;
  Out.key("attempted");
  Out.value(T.Attempted.load());
  Out.key("failed");
  Out.value(T.Failed.load());
  Out.key("mismatches");
  Out.value(T.Mismatches.load());
  Out.key("spans");
  Tr.write(Out);
  Out.endObject();

  std::ofstream F(Opt.OutPath);
  F << Out.str() << "\n";
  if (!F) {
    std::fprintf(stderr, "cipbench: cannot write %s\n", Opt.OutPath.c_str());
    return 2;
  }
  return T.Mismatches.load() ? 1 : 0;
}
