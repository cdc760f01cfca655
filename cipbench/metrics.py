"""Arithmetic of the repository benchmark.

The C++ bench program (cipbench/src) writes raw samples: wall times of every
timed call, the statistics each call returned, server request timestamps
and, in a traced run, spans. This module turns them into the metrics
BENCHMARK.json names, checks the evidence that each workload exercised its
layers, and summarises spans. It has no side effects; run.py does the I/O.
"""

import math
import statistics

RATES = ("lo", "hi", "over")
MIB = 1024.0 * 1024.0

# End-to-end metrics: name -> unit. Every workload reports every one.
END_TO_END = {
    "setup_s": "s",
    "speedup_geo": "x",
    "tasks_per_s": "1/s",
    "lat_p50_ms.lo": "ms",
    "lat_p50_ms.hi": "ms",
    "done_rps.over": "1/s",
    "peak_rss_mb": "MiB",
    "ok_rate": "fraction",
}

# Per-layer metrics: name -> (unit, comes from telemetry). Telemetry-derived
# values are reported as missing in a CIP_TELEMETRY=OFF build.
PER_LAYER = {
    "workloads.seq_ms": ("ms", False),
    "workloads.gen_ms": ("ms", False),
    "harness.profile_ms": ("ms", False),
    "harness.build_ms": ("ms", False),
    "harness.outside_engine_frac": ("fraction", False),
    "domore.iters": ("count", False),
    "domore.sync_conds": ("count", False),
    "domore.ns_per_iter": ("ns", False),
    "domore.sched_busy_frac": ("fraction", False),
    "domore.sched_stall_ms": ("ms", True),
    "domore.worker_wait_ms": ("ms", True),
    "domore.worker_wait_p99_us": ("us", True),
    "domore.queue_full_spins": ("count", True),
    "domore.queue_empty_spins": ("count", True),
    "domore.batch_mean": ("count", True),
    "speccross.epochs": ("count", False),
    "speccross.tasks_run": ("count", True),
    "speccross.useful_frac": ("fraction", True),
    "speccross.cmp": ("count", False),
    "speccross.cmp_per_task": ("count", True),
    "speccross.check_p99_us": ("us", True),
    "speccross.throttle_wait_ms": ("ms", True),
    "speccross.misspec": ("count", False),
    "speccross.reexec_epochs": ("count", False),
    "speccross.recovery_ms": ("ms", False),
    "memory.snapshots": ("count", False),
    "memory.ckpt_ms": ("ms", False),
    "memory.copied_mb": ("MiB", True),
    "memory.dirty_pages": ("count", True),
    "memory.ns_per_copied_page": ("ns", True),
    "memory.snapshot_ms": ("ms", False),
    "memory.restore_ms": ("ms", False),
}
for _rate in RATES:
    PER_LAYER.update({
        "server.queue_p50_ms." + _rate: ("ms", False),
        "server.queue_p99_ms." + _rate: ("ms", False),
        "server.exec_p50_ms." + _rate: ("ms", False),
        "server.degraded_seq_frac." + _rate: ("fraction", False),
        "server.degraded_narrow_frac." + _rate: ("fraction", False),
        "server.granted_mean." + _rate: ("count", False),
        "server.gen_late_p99_ms." + _rate: ("ms", False),
    })
# The tail latencies are computed with the end-to-end metrics but carry no
# regression bound: from run to run they moved by more than the largest
# bound a benchmark may set (README.md, "Tail latency").
TAIL_LATENCY = ("lat_p99_ms.lo", "lat_p99_ms.hi")
PER_LAYER.update({k: ("ms", False) for k in TAIL_LATENCY})
PER_LAYER.update({
    "policy.decision_us": ("us", False),
    "policy.switches_per_req": ("count", False),
    "support.barrier_wait_ms": ("ms", True),
    "trace.overhead_frac": ("fraction", False),
    "error_rate": ("fraction", False),
})

MIN_BEYOND = 10


# --------------------------------------------------------------------------
# Statistics


def median(xs):
    return statistics.median(xs)


def geomean(xs):
    """Geometric mean of positive numbers."""
    xs = list(xs)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile of samples.

    Refuses (ValueError) unless at least min_beyond samples lie beyond the
    returned rank, so a tail is never read off a handful of samples: p99
    needs 1000 samples, p50 needs 20.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, math.ceil(q * n - 1e-9))  # 1-based
    if n - rank < min_beyond:
        raise ValueError("p%g of %d samples has %d beyond it, need %d"
                         % (q * 100, n, n - rank, min_beyond))
    return xs[rank - 1]


# --------------------------------------------------------------------------
# Spans


def self_times(spans):
    """Self time of every span: its duration minus the union of the
    intervals its children cover, clipped to the span. Returns {id: ns}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        ivs = sorted((max(lo, c["start_ns"]), min(hi, c["end_ns"]))
                     for c in children.get(s["id"], []))
        covered, cur_lo, cur_hi = 0, None, None
        for a, b in ivs:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def span_summary(spans):
    """Per span name: count, total and self time (ms)."""
    selft = self_times(spans)
    out = {}
    for s in spans:
        e = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0,
                                       "self_ms": 0.0})
        e["count"] += 1
        e["total_ms"] += (s["end_ns"] - s["start_ns"]) / 1e6
        e["self_ms"] += selft[s["id"]] / 1e6
    return out


# --------------------------------------------------------------------------
# Server requests


def lateness_ns(requests):
    """How late the generator sent each request: send time minus the
    scheduled time (never negative: a client sleeps until the due time)."""
    return [max(0, r["send_ns"] - r["due_ns"]) for r in requests]


def latency_ns(requests):
    """Open-loop latency of each completed request, from its scheduled
    send time to completion."""
    return [r["end_ns"] - r["due_ns"] for r in requests if r["completed"]]


def exec_ns(r):
    """Wall time a request spent past its queue wait (server.exec)."""
    return max(0, r["end_ns"] - r["send_ns"] - r["queue_ns"])


# --------------------------------------------------------------------------
# Metrics


def _zero_per_layer():
    return {k: 0.0 for k in PER_LAYER}


def _par_walls(raw, traced=None):
    return {reg["name"]: [r["wall_ns"] for r in reg["runs"]
                          if traced is None or r["traced"] == traced]
            for reg in raw["regions"]}


def _per_pass(raw, field):
    """Median over passes of the sum of field over the pass's runs."""
    passes = {}
    for reg in raw["regions"]:
        for r in reg["runs"]:
            if field in r:
                passes.setdefault(r["pass"], []).append(r[field])
    if not passes:
        return None
    return median([sum(v) for v in passes.values()])


def _per_pass_ratio(raw, num, den):
    """Median over passes of sum(num) / sum(den) over the pass's runs."""
    passes = {}
    for reg in raw["regions"]:
        for r in reg["runs"]:
            if num in r and den in r:
                a = passes.setdefault(r["pass"], [0.0, 0.0])
                a[0] += r[num]
                a[1] += r[den]
    vals = [a / b for a, b in passes.values() if b]
    return median(vals) if vals else (None if not passes else 0.0)


def _hist(raw, key, what):
    vals = [p[key][what] for p in raw["passes"] if key in p]
    return median(vals) if vals else None


def batch_end_to_end(raw):
    walls = _par_walls(raw)
    seq = {reg["name"]: median(reg["seq_ns"]) for reg in raw["regions"]}
    par = {n: median(w) for n, w in walls.items()}
    tasks = sum(reg["tasks"] for reg in raw["regions"])
    # A batch workload has a few region runs per pass, far too few for a
    # tail; its latencies are per-region medians, so a slow pass moves
    # them less than a quantile that falls between two regions' clusters.
    lat50 = geomean(par.values()) / 1e6
    lat99 = max(par.values()) / 1e6
    return {
        "speedup_geo": geomean(seq[n] / par[n] for n in seq),
        "tasks_per_s": tasks / (sum(par.values()) / 1e9),
        "lat_p50_ms.lo": lat50, "lat_p99_ms.lo": lat99,
        "lat_p50_ms.hi": lat50, "lat_p99_ms.hi": lat99,
        "done_rps.over": len(par) / (sum(par.values()) / 1e9),
    }, {"parallel_runs": sum(len(w) for w in walls.values())}


def batch_per_layer(raw):
    m = _zero_per_layer()
    regs = raw["regions"]
    m["workloads.seq_ms"] = sum(median(r["seq_ns"]) for r in regs) / 1e6
    reps = len(raw["setup_ns"])
    m["workloads.gen_ms"] = median(
        [sum(r["gen_ns"][i] for r in regs) for i in range(reps)]) / 1e6
    if all(r["profile_ns"] for r in regs):
        m["harness.profile_ms"] = median(
            [sum(r["profile_ns"][i] for r in regs) for i in range(reps)]) / 1e6
    if all(r["build_ns"] for r in regs):
        m["harness.build_ms"] = sum(median(r["build_ns"]) for r in regs) / 1e6
    runs = [x for r in regs for x in r["runs"]]
    m["harness.outside_engine_frac"] = 1.0 - (
        sum(x["engine_ns"] for x in runs) / sum(x["wall_ns"] for x in runs))
    tel = raw["telemetry"]

    def put(name, value, telemetry_field=False):
        m[name] = None if (telemetry_field and not tel) else value

    if raw["workload"] == "domore-nest":
        put("domore.iters", _per_pass(raw, "iters"))
        put("domore.sync_conds", _per_pass(raw, "sync_conds"))
        put("domore.ns_per_iter", _per_pass_ratio(raw, "engine_ns", "iters"))
        put("domore.sched_busy_frac",
            _per_pass_ratio(raw, "sched_busy_ns", "engine_ns"))
        put("domore.sched_stall_ms",
            _ms(_per_pass(raw, "sched_stall_ns")), True)
        put("domore.worker_wait_ms",
            _ms(_per_pass(raw, "worker_wait_ns")), True)
        put("domore.worker_wait_p99_us",
            _us(_hist(raw, "worker_wait", "p99_ns")), True)
        put("domore.queue_full_spins",
            _per_pass(raw, "queue_full_spins"), True)
        put("domore.queue_empty_spins",
            _per_pass(raw, "queue_empty_spins"), True)
        means = [p["dispatch_batch"]["sum"] / p["dispatch_batch"]["count"]
                 for p in raw["passes"]
                 if p.get("dispatch_batch", {}).get("count")]
        put("domore.batch_mean", median(means) if means else None, True)
    else:
        put("speccross.epochs", _per_pass(raw, "epochs"))
        put("speccross.tasks_run", _per_pass(raw, "tasks_run"), True)
        ran = _per_pass(raw, "tasks_run")
        put("speccross.useful_frac",
            sum(r["tasks"] for r in regs) / ran if ran else None, True)
        put("speccross.cmp", _per_pass(raw, "cmp"))
        put("speccross.cmp_per_task",
            _per_pass_ratio(raw, "cmp", "tasks_run"), True)
        put("speccross.check_p99_us",
            _us(_hist(raw, "check_latency", "p99_ns")), True)
        put("speccross.throttle_wait_ms",
            _ms(_per_pass(raw, "worker_wait_ns")), True)
        put("speccross.misspec", _per_pass(raw, "misspec"))
        put("speccross.reexec_epochs", _per_pass(raw, "reexec_epochs"))
        put("speccross.recovery_ms", _ms(_per_pass(raw, "recovery_ns")))
        put("memory.snapshots", _per_pass(raw, "snapshots"))
        put("memory.ckpt_ms", _ms(_per_pass(raw, "ckpt_ns")))
        copied = _per_pass(raw, "copied_bytes")
        put("memory.copied_mb", copied / MIB if copied is not None else None,
            True)
        put("memory.dirty_pages", _per_pass(raw, "dirty_pages"), True)
        put("memory.ns_per_copied_page",
            _per_pass_ratio(raw, "ckpt_ns", "dirty_pages"), True)
        snaps = [x for r in regs for x in r["snapshot_ns"]]
        rests = [x for r in regs for x in r["restore_ns"]]
        if snaps:
            m["memory.snapshot_ms"] = median(snaps) / 1e6
            m["memory.restore_ms"] = median(rests) / 1e6
    put("support.barrier_wait_ms", _ms(_per_pass(raw, "barrier_wait_ns")),
        True)
    traced, untraced = _par_walls(raw, True), _par_walls(raw, False)
    if all(traced.values()) and all(untraced.values()):
        m["trace.overhead_frac"] = geomean(
            median(traced[n]) / median(untraced[n]) for n in traced) - 1.0
    return m


def _ms(ns):
    return None if ns is None else ns / 1e6


def _us(ns):
    return None if ns is None else ns / 1e3


def server_end_to_end(raw):
    rates = {r["name"]: r for r in raw["rates"]}
    out = {}
    for name in ("lo", "hi"):
        lat = latency_ns(rates[name]["requests"])
        out["lat_p50_ms." + name] = percentile(lat, 0.50) / 1e6
        out["lat_p99_ms." + name] = percentile(lat, 0.99) / 1e6
    over = rates["over"]["requests"]
    done = [r for r in over if r["completed"]]
    span_s = max(r["end_ns"] for r in over) / 1e9
    out["done_rps.over"] = len(done) / span_s
    out["tasks_per_s"] = sum(r["tasks"] for r in done) / span_s
    # Each direct run is timed next to a sequential run of the same input,
    # so the ratio holds when the machine's speed drifts during the run.
    pairs = {}
    for d in raw["direct"]:
        pairs.setdefault((d["prog"], d["tech"]), []).append(d)
    out["speedup_geo"] = geomean(
        median([d["seq_ns"] for d in ds]) / median([d["wall_ns"] for d in ds])
        for ds in pairs.values())
    return out, {"requests": {n: len(r["requests"]) for n, r in rates.items()}}


def server_per_layer(raw):
    m = _zero_per_layer()
    progs = raw["programs"]
    m["workloads.seq_ms"] = sum(median(p["seq_ns"]) for p in progs) / 1e6
    m["workloads.gen_ms"] = median(raw["gen_ns"]) / 1e6
    builds = [median(p[k]) for p in progs
              for k in ("build_nest_ns", "build_region_ns") if p[k]]
    m["harness.build_ms"] = statistics.fmean(builds) / 1e6
    reqs = [r for rate in raw["rates"] for r in rate["requests"]
            if r["completed"]]
    m["harness.outside_engine_frac"] = 1.0 - (
        sum(r["engine_ns"] for r in reqs) / sum(exec_ns(r) for r in reqs))
    for rate in raw["rates"]:
        n = rate["name"]
        rq = rate["requests"]
        done = [r for r in rq if r["completed"]]
        queue = [r["queue_ns"] for r in done]
        m["server.queue_p50_ms." + n] = percentile(queue, 0.50) / 1e6
        m["server.queue_p99_ms." + n] = percentile(queue, 0.99) / 1e6
        m["server.exec_p50_ms." + n] = percentile(
            [r["engine_ns"] for r in done], 0.50) / 1e6
        m["server.degraded_seq_frac." + n] = rate["degraded_seq"] / len(rq)
        m["server.degraded_narrow_frac." + n] = (
            rate["degraded_narrow"] / len(rq))
        m["server.granted_mean." + n] = statistics.fmean(
            r["granted"] for r in done)
        m["server.gen_late_p99_ms." + n] = percentile(
            lateness_ns(rq), 0.99) / 1e6
    adaptive = [d for d in raw["direct"] if d["tech"] == "adaptive"]
    m["policy.decision_us"] = statistics.fmean(
        d["decision_ns"] for d in adaptive) / 1e3
    m["policy.switches_per_req"] = statistics.fmean(
        d["switches"] for d in adaptive)
    if raw["telemetry"]:
        m["support.barrier_wait_ms"] = statistics.fmean(
            d["barrier_wait_ns"] for d in raw["direct"]) / 1e6
    else:
        m["support.barrier_wait_ms"] = None
    lo = raw["rates"][0]["requests"]
    traced = [r["end_ns"] - r["send_ns"] for r in lo if r["traced"]]
    untraced = [r["end_ns"] - r["send_ns"] for r in lo if not r["traced"]]
    if traced and untraced:
        m["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
    return m


def compute(raw):
    """Returns (end_to_end, per_layer, notes) for one raw run. Metrics that
    a CIP_TELEMETRY=OFF build cannot measure are None in per_layer."""
    server = raw["workload"] == "server-mix"
    e2e, notes = (server_end_to_end if server else batch_end_to_end)(raw)
    e2e["setup_s"] = median(raw["setup_ns"]) / 1e9
    e2e["peak_rss_mb"] = raw["peak_rss_kb"] / 1024.0
    e2e["ok_rate"] = 1.0 - raw["failed"] / raw["attempted"]
    layer = (server_per_layer if server else batch_per_layer)(raw)
    for k in TAIL_LATENCY:
        layer[k] = e2e.pop(k)
    layer["error_rate"] = raw["failed"] / raw["attempted"]
    return e2e, layer, notes


def per_region(raw):
    """Per-region rows of the batch workloads: speedup and the counts and
    times each region contributed (medians over passes)."""
    rows = {}
    for reg in raw.get("regions", []):
        seq = median(reg["seq_ns"])
        par = median(r["wall_ns"] for r in reg["runs"])
        row = {"seq_ms": seq / 1e6, "par_ms": par / 1e6,
               "speedup": seq / par}
        keys = sorted({k for r in reg["runs"] for k in r}
                      - {"pass", "traced"})
        for k in keys:
            vals = [r[k] for r in reg["runs"] if k in r]
            row[k] = median(vals)
        if reg["snapshot_ns"]:
            row["snapshot_ms"] = median(reg["snapshot_ns"]) / 1e6
            row["restore_ms"] = median(reg["restore_ns"]) / 1e6
        rows[reg["name"]] = row
    return rows


# --------------------------------------------------------------------------
# Evidence


def evidence(raw):
    """Checks that each workload exercised the layers it is there for.
    Returns a list of failure messages (empty when all hold)."""
    bad = []
    w = raw["workload"]
    if w in ("domore-nest", "spec-ckpt"):
        regs = {r["name"]: r for r in raw["regions"]}

        def every(name, pred, what):
            if not all(pred(x) for x in regs[name]["runs"]):
                bad.append("%s: %s did not hold in every run" % (name, what))

    if w == "domore-nest":
        for n in ("loopdep", "cg"):
            every(n, lambda x: x["sync_conds"] > 0, "sync conditions > 0")
        for n in ("symm", "llubench"):
            every(n, lambda x: x["sync_conds"] == 0, "sync conditions == 0")
    elif w == "spec-ckpt":
        epochs = regs["bigstate"]["epochs"]
        every("bigstate", lambda x: x["snapshots"] == epochs,
              "snapshots == epochs (%d)" % epochs)
        if raw["telemetry"]:
            every("bigstate", lambda x: x["copied_bytes"] > 0,
                  "bytes copied > 0")
        # Whether a pass misspeculates depends on how the workers
        # interleave, so the rollback path is required of the run, not of
        # every pass.
        for n in ("jacobi", "cg"):
            if not any(x["misspec"] > 0 and x["reexec_epochs"] > 0
                       for x in regs[n]["runs"]):
                bad.append("%s: no pass misspeculated and re-executed" % n)
    else:
        for rate in raw["rates"]:
            rq = rate["requests"]
            if not any(r["granted"] > 0 for r in rq):
                bad.append("%s: no request was granted workers" % rate["name"])
            if not any(r["degraded"] for r in rq):
                bad.append("%s: no request was degraded" % rate["name"])
            if not any(r["tech"] == "adaptive" for r in rq):
                bad.append("%s: no adaptive request" % rate["name"])
    return bad
