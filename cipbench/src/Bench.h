//===- cipbench/src/Bench.h - Shared benchmark state ------------*- C++ -*-===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the command line, the correctness
/// tally, and the in-memory span recorder of the traced run. The workloads
/// call only the library's public entry points and write raw samples (not
/// metrics) to one JSON document; cipbench/metrics.py turns them into the
/// metrics BENCHMARK.json names.
///
//===----------------------------------------------------------------------===//

#ifndef CIPBENCH_BENCH_H
#define CIPBENCH_BENCH_H

#include "telemetry/Json.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cipbench {

struct Options {
  std::string Workload;
  std::uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
  /// server-mix offered rates (requests per second) for lo, hi, over.
  double Rates[3] = {0.0, 0.0, 0.0};
  std::string OutPath;
};

/// Fewest threads the engines run with, whatever the machine: 1 DOMORE
/// scheduler and 3 workers, 3 SPECCROSS workers and 1 checker.
constexpr unsigned MinThreads = 4;

/// Threads every engine runs with: the CPUs this process may use, but at
/// least MinThreads.
unsigned benchThreads();

/// Peak resident memory of the process so far (getrusage), in KiB. Read
/// when measuring ends, before the samples are serialised.
std::uint64_t peakRssKb();

/// Whether to repeat setup again after \p Done repetitions took \p SpentNs:
/// at least 3 times, and more (up to 50) until one second is spent, so
/// that a setup of a few milliseconds still has a steady median (setup_s).
inline bool moreSetups(unsigned Done, std::uint64_t SpentNs) {
  return Done < 3 || (SpentNs < 1000000000ULL && Done < 50);
}

/// Region runs and requests attempted, and those that failed. A failure is
/// a checksum that differs from the sequential reference, a rejected
/// request, or a failed direct checkpoint round trip.
struct Tally {
  std::atomic<std::uint64_t> Attempted{0};
  std::atomic<std::uint64_t> Failed{0};
  std::atomic<std::uint64_t> Mismatches{0};

  /// Counts one attempt; returns \p Ok. A mismatch names \p What on
  /// standard error.
  bool check(bool Ok, const std::string &What) {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    if (!Ok) {
      Failed.fetch_add(1, std::memory_order_relaxed);
      Mismatches.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "cipbench: checksum mismatch: %s\n",
                   What.c_str());
    }
    return Ok;
  }
  void reject() {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    Failed.fetch_add(1, std::memory_order_relaxed);
  }
};

/// One span of the traced run: a call into a library layer, timed by the
/// benchmark around the call. \c Ref names the region or request.
struct Span {
  std::uint64_t Id = 0;
  std::uint64_t Parent = 0; ///< 0 = root
  const char *Name = "";
  std::uint64_t StartNs = 0;
  std::uint64_t EndNs = 0;
  std::string Ref;
  std::vector<std::pair<const char *, double>> Counts;
};

/// Keeps spans in memory until the run ends. Disabled recorders drop
/// everything, so untraced runs pay one branch per call site.
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool on() const { return On; }

  /// Reserves an id, so a parent can be named before it is recorded.
  std::uint64_t reserve() { return NextId.fetch_add(1) + 1; }

  /// Records \p S (assigning an id when it has none); returns its id.
  std::uint64_t add(Span S) {
    if (!On)
      return 0;
    if (!S.Id)
      S.Id = reserve();
    const std::uint64_t Id = S.Id;
    std::lock_guard<std::mutex> L(Mu);
    Spans.push_back(std::move(S));
    return Id;
  }

  void write(cip::telemetry::json::Writer &W) const;

private:
  bool On;
  std::atomic<std::uint64_t> NextId{0};
  std::mutex Mu; ///< guards Spans
  std::vector<Span> Spans;
};

/// Writes \p Values as a JSON array of unsigned integers under key \p K.
void writeArray(cip::telemetry::json::Writer &W, const char *K,
                const std::vector<std::uint64_t> &Values);

/// The two workload families. Each writes its raw samples into the open
/// top-level object of \p Out and returns false on a setup failure.
bool runBatch(const Options &Opt, Tally &T, Tracer &Tr,
              cip::telemetry::json::Writer &Out);
bool runServerMix(const Options &Opt, Tally &T, Tracer &Tr,
                  cip::telemetry::json::Writer &Out);

} // namespace cipbench

#endif // CIPBENCH_BENCH_H
