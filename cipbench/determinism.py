#!/usr/bin/env python3
"""Determinism report for the batch workloads.

    python3 cipbench/determinism.py [--seeds 1,2] [--reps 2] [--seconds 20]

Runs the traced benchmark --reps times on the first seed and once on every
other seed, for domore-nest and spec-ckpt, and reports per region:

  * counts the program fixes, which must repeat exactly for one seed, in
    every pass of every run: domore.iters and domore.sync_conds
    (domore-nest), speccross.epochs and, on bigstate, memory.snapshots
    (spec-ckpt). A difference makes the script exit 1;
  * counts that depend on timing, as median [min .. max] over every pass
    of the seed's runs: speccross.cmp, misspeculations, re-executed epochs,
    DOMORE queue spins.

The other seeds are reported too, so that no claim rests on one draw of
the inputs. Exit codes: 0 when every fixed count repeated, 1 otherwise, 2
when a benchmark run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FIXED = {"domore-nest": ("iters", "sync_conds"),
         "spec-ckpt": ("epochs", "snapshots")}
TIMING = {"domore-nest": ("queue_full_spins", "queue_empty_spins"),
          "spec-ckpt": ("cmp", "misspec", "reexec_epochs")}


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1"]
    if subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).returncode:
        print("determinism: %s seed %d failed" % (workload, seed),
              file=sys.stderr)
        sys.exit(2)
    path = os.path.join(ROOT, ".bench_build", "results",
                        "%s-seed%d-trace1.json" % (workload, seed))
    with open(path) as f:
        return json.load(f)["raw"]


def values(raws, region, field):
    return [r[field] for raw in raws for reg in raw["regions"]
            if reg["name"] == region for r in reg["runs"] if field in r]


def main(argv):
    p = argparse.ArgumentParser(description="determinism report")
    p.add_argument("--seeds", default="1,2")
    p.add_argument("--reps", type=int, default=2)
    p.add_argument("--seconds", type=float, default=20)
    a = p.parse_args(argv)
    seeds = [int(s) for s in a.seeds.split(",")]
    ok = True
    for workload in ("domore-nest", "spec-ckpt"):
        for i, seed in enumerate(seeds):
            raws = [run(workload, seed, a.seconds)
                    for _ in range(a.reps if i == 0 else 1)]
            passes = sum(len({r["pass"] for reg in raw["regions"][:1]
                              for r in reg["runs"]}) for raw in raws)
            print("%s seed %d: %d run(s), %d passes"
                  % (workload, seed, len(raws), passes))
            for reg in raws[0]["regions"]:
                name = reg["name"]
                cells = []
                for field in FIXED[workload]:
                    if field == "snapshots" and name != "bigstate":
                        continue
                    vs = set(values(raws, name, field))
                    same = len(vs) == 1
                    ok &= same
                    cells.append("%s=%s%s" % (field, "/".join(
                        "%g" % v for v in sorted(vs)),
                        "" if same else " (DIFFERS)"))
                for field in TIMING[workload]:
                    vs = values(raws, name, field)
                    if vs:
                        cells.append("%s=%g [%g .. %g]" % (
                            field, statistics.median(vs), min(vs), max(vs)))
                print("  %-14s %s" % (name, "  ".join(cells)))
    print("fixed counts repeat: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
