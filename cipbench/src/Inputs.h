//===- cipbench/src/Inputs.h - Seeded workload inputs ----------*- C++ -*-===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds every workload the benchmark runs from the benchmark seed. The
/// library only ever sees the generated inputs: each program's
/// \c *Params::Seed is derived from (benchmark seed, program name), so the
/// same seed gives the same inputs and a new seed gives new ones.
///
//===----------------------------------------------------------------------===//

#ifndef CIPBENCH_INPUTS_H
#define CIPBENCH_INPUTS_H

#include "workloads/Workload.h"

#include <cstdint>
#include <memory>
#include <string>

namespace cipbench {

/// Input sizes: the paper's train inputs for the batch workloads, and an
/// intermediate size for server requests (train takes ~0.3 s per request,
/// test is pure overhead).
enum class Size { Train, Mid };

/// The per-program seed derived from the benchmark seed.
std::uint64_t deriveSeed(std::uint64_t Seed, const std::string &Program);

/// Constructs \p Program ("symm", "bigstate", ...) at \p S with its
/// derived seed; nullptr for unknown names. Programs whose parameters
/// carry no seed (loopdep, bigstate) are deterministic.
std::unique_ptr<cip::workloads::Workload>
makeInput(const std::string &Program, Size S, std::uint64_t Seed);

} // namespace cipbench

#endif // CIPBENCH_INPUTS_H
