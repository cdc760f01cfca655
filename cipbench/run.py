#!/usr/bin/env python3
"""The repository benchmark: build it, run one workload, report.

    python3 cipbench/run.py --workload domore-nest|spec-ckpt|server-mix \\
        --seed N --seconds S --trace 0|1 --rates LO,HI,OVER

Builds cipbench (the C++ bench program in this directory, linked against the
runtime libraries of ../src) under .bench_build/, runs it, computes the
metrics BENCHMARK.json names and prints every metric by name with its unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1. The full record of the run (provenance, per-region values, the
raw samples and, when traced, every span) is written to
.bench_build/results/. See README.md in this directory for what each
workload and metric is for.

Exit codes: 0 when every run matched its sequential reference and every
evidence check held; 1 on a checksum mismatch (the result line is printed
with "correct": false) or a failed evidence check; 2 on a usage, build or
environment error.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("domore-nest", "spec-ckpt", "server-mix")
# A run normally ends well within this; the first run of a checkout also
# builds, which may take longer.
RUN_LIMIT_S = 170
FIRST_RUN_LIMIT_S = 880


def fail(msg, code=2):
    print("cipbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--rates", default=None,
                   help="server-mix offered rates lo,hi,over in requests/s")
    p.add_argument("--telemetry", default="on", choices=("on", "off"),
                   help="build the runtimes with CIP_TELEMETRY on or off")
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if a.workload == "server-mix" and not a.rates:
        fail("server-mix needs --rates lo,hi,over")
    return a


def refuse_engine_knobs():
    """Engine CIP_* knobs would silently change what is measured."""
    knobs = sorted(k for k in os.environ if k.startswith("CIP_"))
    if knobs:
        fail("refusing to run with engine knobs set: " + ", ".join(knobs))


def build(telemetry):
    """Configures and builds the bench program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no runtime sources at %s/src: run from a full checkout"
             % os.path.basename(ROOT))
    bdir = os.path.join(ROOT, ".bench_build",
                        "cipbench" if telemetry == "on" else "cipbench-notel")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", HERE, "-B", bdir,
                  "-DCMAKE_BUILD_TYPE=Release",
                  "-DCIP_TELEMETRY=" + ("ON" if telemetry == "on" else "OFF")],
                 ["cmake", "--build", bdir, "--target", "cipbench",
                  "-j", str(len(os.sched_getaffinity(0)))]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)"
                     % os.path.relpath(log_path, ROOT))
    return os.path.join(bdir, "cipbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_ticks():
    """(steal, total) CPU ticks from /proc/stat: the share of time the
    hypervisor gave this machine's CPUs to others, a source of noise."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
        return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        return 0, 0


def fmt(v):
    return "missing" if v is None else "%.6g" % v


def main(argv):
    args = parse_args(argv)
    refuse_engine_knobs()
    start = time.monotonic()
    binary = build(args.telemetry)
    built_s = time.monotonic() - start
    limit = FIRST_RUN_LIMIT_S if built_s > 30 else RUN_LIMIT_S

    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%s%s" % (args.workload, args.seed, args.trace,
                                    "" if args.telemetry == "on" else "-notel")
    raw_path = os.path.join(results, stem + ".raw.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", raw_path]
    if args.rates:
        cmd += ["--rates", args.rates]
    steal0, total0 = cpu_ticks()
    remaining = max(10, limit - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("the %s run did not finish in time" % args.workload)
    if proc.returncode not in (0, 1):
        fail("cipbench exited with %d" % proc.returncode)
    steal1, total1 = cpu_ticks()
    steal_frac = ((steal1 - steal0) / (total1 - total0)
                  if total1 > total0 else 0.0)
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)

    e2e, layer, notes = metrics.compute(raw)
    bad = metrics.evidence(raw)
    provenance = {
        "seed": args.seed,
        "workload": args.workload,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": raw["threads"],
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "cpu_steal_frac": steal_frac,
        "telemetry": raw["telemetry"],
        "engine": raw["engine"],
        "rates": args.rates,
        "seconds": args.seconds,
    }
    record = {
        "provenance": provenance,
        "end_to_end": e2e,
        "per_layer": layer,
        "notes": notes,
        "per_region": metrics.per_region(raw),
        "evidence_failures": bad,
        "raw": raw,
    }
    if raw["spans"]:
        record["span_summary"] = metrics.span_summary(raw["spans"])
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(record, f)

    print("workload %s  seed %d  trace %s  nproc %d  cpu %s  kernel %s  "
          "telemetry %s  cpu steal %.2f%%"
          % (args.workload, args.seed, args.trace, provenance["nproc"],
             provenance["cpu_model"], provenance["kernel"],
             "on" if raw["telemetry"] else "off", 100 * steal_frac))
    print("engine " + json.dumps(raw["engine"], sort_keys=True))
    print("%-34s %16s  %s" % ("end-to-end metric", "value", "unit"))
    for name, unit in metrics.END_TO_END.items():
        print("%-34s %16s  %s" % (name, fmt(e2e[name]), unit))
    if args.trace == "1":
        print("%-34s %16s  %s" % ("per-layer metric", "value", "unit"))
        for name, (unit, _) in metrics.PER_LAYER.items():
            print("%-34s %16s  %s" % (name, fmt(layer[name]), unit))
        for region, row in record["per_region"].items():
            print("region %-14s " % region + "  ".join(
                "%s=%s" % (k, fmt(v)) for k, v in row.items()))
        for name, s in sorted(record.get("span_summary", {}).items()):
            print("span %-20s count %6d  total %10.3f ms  self %10.3f ms"
                  % (name, s["count"], s["total_ms"], s["self_ms"]))
    for msg in bad:
        print("evidence: " + msg, file=sys.stderr)

    if args.trace == "1":
        out = {k: {"value": layer[k], "unit": u}
               for k, (u, _) in metrics.PER_LAYER.items()
               if layer[k] is not None}
    else:
        out = {k: {"value": e2e[k], "unit": u}
               for k, u in metrics.END_TO_END.items()}
    correct = raw["mismatches"] == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": out}))
    if not correct or bad:
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
