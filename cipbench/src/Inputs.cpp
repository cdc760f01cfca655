//===- cipbench/src/Inputs.cpp - Seeded workload inputs -------------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "support/Rng.h"
#include "workloads/BigState.h"
#include "workloads/BlackScholes.h"
#include "workloads/CG.h"
#include "workloads/Eclat.h"
#include "workloads/Equake.h"
#include "workloads/Fdtd.h"
#include "workloads/FluidAnimate.h"
#include "workloads/Jacobi.h"
#include "workloads/LLUBench.h"
#include "workloads/Loopdep.h"
#include "workloads/Symm.h"

using namespace cip;
using namespace cip::workloads;
using cipbench::Size;

std::uint64_t cipbench::deriveSeed(std::uint64_t Seed,
                                   const std::string &Program) {
  SplitMix64 Mix(Seed ^ hashBytes(Program.data(), Program.size()));
  return Mix.next();
}

namespace {

/// Train parameters, or the intermediate server-request size. Only the
/// four server programs have a Mid size.
template <typename P> P paramsFor(cipbench::Size S) {
  return P::forScale(S == cipbench::Size::Train ? Scale::Train : Scale::Test);
}

template <typename W, typename P>
std::unique_ptr<Workload> seeded(P Params, const std::string &Name,
                                 std::uint64_t Seed) {
  Params.Seed = cipbench::deriveSeed(Seed, Name);
  return std::make_unique<W>(Params);
}

} // namespace

std::unique_ptr<Workload> cipbench::makeInput(const std::string &Program,
                                              Size S, std::uint64_t Seed) {
  const bool Mid = S == Size::Mid;
  if (Program == "jacobi") {
    JacobiParams P = paramsFor<JacobiParams>(S);
    if (Mid) {
      P.Sweeps = 30;
      P.Rows = 120;
      P.Cols = 48;
      P.WorkFlops = 8;
    }
    return seeded<JacobiWorkload>(P, Program, Seed);
  }
  if (Program == "loopdep") {
    LoopdepParams P = paramsFor<LoopdepParams>(S);
    if (Mid) {
      P.Epochs = 60;
      P.TasksPerEpoch = 64;
      P.CellsPerTask = 8;
      P.WorkFlops = 8;
    }
    return std::make_unique<LoopdepWorkload>(P);
  }
  if (Program == "cg") {
    CGParams P = paramsFor<CGParams>(S);
    if (Mid) {
      P.NumRows = 200;
      P.ArraySize = 1024;
      P.WorkFlops = 200;
    }
    return seeded<CGWorkload>(P, Program, Seed);
  }
  if (Program == "blackscholes") {
    BlackScholesParams P = paramsFor<BlackScholesParams>(S);
    if (Mid) {
      P.Epochs = 60;
      P.TasksPerEpoch = 32;
      P.OptionsPerTask = 16;
    }
    return seeded<BlackScholesWorkload>(P, Program, Seed);
  }
  if (Mid)
    return nullptr;
  if (Program == "symm")
    return seeded<SymmWorkload>(paramsFor<SymmParams>(S), Program, Seed);
  if (Program == "llubench")
    return seeded<LLUBenchWorkload>(paramsFor<LLUBenchParams>(S), Program,
                                    Seed);
  if (Program == "fluidanimate1")
    return seeded<FluidAnimate1Workload>(paramsFor<FluidAnimate1Params>(S),
                                         Program, Seed);
  if (Program == "fluidanimate2")
    return seeded<FluidAnimate2Workload>(paramsFor<FluidAnimate2Params>(S),
                                         Program, Seed);
  if (Program == "eclat")
    return seeded<EclatWorkload>(paramsFor<EclatParams>(S), Program, Seed);
  if (Program == "fdtd")
    return seeded<FdtdWorkload>(paramsFor<FdtdParams>(S), Program, Seed);
  if (Program == "equake")
    return seeded<EquakeWorkload>(paramsFor<EquakeParams>(S), Program, Seed);
  if (Program == "bigstate")
    return std::make_unique<BigStateWorkload>(
        BigStateParams::forScale(Scale::Train));
  return nullptr;
}
