"""Metrics from the executor's raw samples, and the output checks.

End-to-end metrics come from untraced rounds only.  Per-layer metrics come
from the traced run: probes around public calls (cpp/probes.cpp), obs
counters read from the engine and from the served pass's daemon, and the
untraced rounds that the traced run interleaves with its traced ones.
"""

import collections
import json

from . import stats, workloads


# With this many untraced rounds or more, the first is a warm-up (first-touch
# page faults and allocator growth) and is left out.  Runs of fewer, longer
# rounds (cold_sweep: about 10 s each) keep it: there it would be a third of
# the data, and its warm-up is a few milliseconds.
WARMUP_MIN_ROUNDS = 10


def _timed_rounds(rounds):
    """The untraced rounds the end-to-end metrics are taken from."""
    rs = [r for r in rounds if not r["traced"]]
    return rs[1:] if len(rs) >= WARMUP_MIN_ROUNDS else rs


def rounds_run(inp, out):
    """The input rounds in the order the executor ran them (it cycles)."""
    return [inp.rounds[i % len(inp.rounds)] for i in range(len(out["rounds"]))]


# The served pass offers its schedule twice; both passes are checked.
SERVED_LADDERS = ("untraced_ladder", "ladder")


def requested_jobs(inp, out):
    """Every job id a run executed."""
    if inp.workload == "served_mix":
        return {j for _, _, req in inp.frames for j in req}
    return {j for rnd in rounds_run(inp, out) for req in rnd for j in req}


def judge(inp, out, ref, goldens):
    """Check a run's outputs.  `ref` maps each requested job id to the
    oracles' {ok, digest, drc, error}, `goldens` maps job keys to committed
    digests.  A job is bad when it gave no layout, or one that differs from
    the oracles' or the golden, or one with DRC violations.  A request
    fails when any of its jobs is bad and, for a served frame, when the
    daemon refused it, timed it out or failed one of its jobs.
    Returns (attempted requests, failed requests, problems)."""
    got = {int(k): v for k, v in out["digests"].items()}
    bad, problems = set(), list(out["failures"])
    for j in sorted(requested_jobs(inp, out)):
        o, key = ref[j], inp.job_key(j)
        why = None
        if j not in got:
            why = "did not produce a layout"
        elif not o["ok"]:
            why = "oracle failed: " + o["error"]
        elif got[j] != o["digest"]:
            why = "digest %s differs from the oracle's %s" % (got[j], o["digest"])
        elif key in goldens and goldens[key] != got[j]:
            why = "digest %s differs from the golden %s" % (got[j], goldens[key])
        elif o["drc"]:
            why = "%d DRC violations" % o["drc"]
        if why:
            bad.add(j)
            problems.append("job %d (%s): %s" % (j, key, why))
    attempted = failed = 0
    if inp.workload == "served_mix":
        for name in SERVED_LADDERS:
            ladder = out[name]
            for (_, _, req), ok, n in zip(inp.frames, ladder["ok"], ladder["jobs"]):
                attempted += 1
                failed += ok != n or any(j in bad for j in req)
    else:
        for rnd in rounds_run(inp, out):
            for req in rnd:
                attempted += 1
                failed += any(j in bad for j in req)
    if out["failure_count"] and not failed:
        failed = 1
    return attempted, failed, problems


# The end-to-end times are reported at a reference host speed: each time is
# scaled by HOST_REF_MS over the host-speed sample taken just before it
# (cpp/hostspeed.h), the fixed work the executor times at most 100 ms
# apart.  HOST_REF_MS is that sample's usual time on the 4-vCPU x86-64 KVM
# guest the bounds were set on; it is a unit, identical on every commit.
HOST_REF_MS = 0.35


def host_scaled(times, host_ms):
    """Each time at the reference host speed."""
    return [t * HOST_REF_MS / h for t, h in zip(times, host_ms)]


def _round_metrics(r, scale):
    """A round's throughput, p50 and tail, scaled to the reference host
    speed when `scale` is set: the round's wall time shrinks or grows as
    its request times do."""
    req = host_scaled(r["req_ms"], r["req_host_ms"]) if scale else r["req_ms"]
    ok = r["attempted"] - r["failed"]
    wall = r["wall_s"] * sum(req) / sum(r["req_ms"])
    value, pct, n = stats.tail(req)
    return {"throughput_jobs_per_s": ok / wall, "latency_ms.p50": stats.median(req),
            "latency_ms.tail": value, "tail_pct": pct, "tail_n": n}


def _end_to_end_times(out, scale):
    per = [_round_metrics(r, scale) for r in _timed_rounds(out["rounds"])]
    m = {k: stats.median([p[k] for p in per])
         for k in ("throughput_jobs_per_s", "latency_ms.p50", "latency_ms.tail")}
    setups = host_scaled(out["setup_s"], out["setup_host_ms"]) if scale else out["setup_s"]
    m["setup_s"] = stats.median(setups)
    return m, per


def inproc_end_to_end(out):
    m, per = _end_to_end_times(out, True)
    m["peak_rss_mb"] = out["peak_rss_kb"] / 1024.0
    raw, _ = _end_to_end_times(out, False)
    host = [h for r in _timed_rounds(out["rounds"]) for h in r["req_host_ms"]]
    info = ["tail = p%.2f of %d requests per round, median over %d rounds"
            % (per[0]["tail_pct"], per[0]["tail_n"], len(per)),
            "host-speed sample: median %.4f ms, quartiles %.4f-%.4f ms (reference %.2f ms)"
            % ((stats.median(host),) + tuple(stats.quartiles(host)[::2]) + (HOST_REF_MS,)),
            "as measured, unscaled: " + ", ".join(
                "%s %.6g" % (k, raw[k]) for k in ("setup_s", "throughput_jobs_per_s",
                                                  "latency_ms.p50", "latency_ms.tail"))]
    return m, info


def ladder_latencies(ladder):
    lat, late = stats.open_loop(ladder["due_ms"], ladder["sent_ms"], ladder["done_ms"],
                                [o == j for o, j in zip(ladder["ok"], ladder["jobs"])])
    by_rung = collections.defaultdict(list)
    for r, x in zip(ladder["rung"], lat):
        by_rung[int(r)].append(x)
    return lat, late, by_rung


def _ratio(a, b):
    return a / b if b else 0.0


def counter_metrics(c, executed_jobs):
    hits, misses = c.get("gen.prefix.hits", 0), c.get("gen.prefix.misses", 0)
    chits, cmiss = c.get("gen.cache.hits", 0), c.get("gen.cache.misses", 0)
    return {
        "vm.dispatch_per_job": _ratio(c.get("vm.dispatch", 0), executed_jobs),
        "compact.candidates_per_step": _ratio(c.get("spatial.candidates", 0),
                                              c.get("compact.steps", 0)),
        "compact.constraint_yield": _ratio(c.get("compact.constraints.emitted", 0),
                                           c.get("compact.constraints.candidates", 0)),
        "prefix.hit_ratio": _ratio(hits, hits + misses),
        "gen.cache.hit_ratio": _ratio(chits, chits + cmiss),
    }


def self_times(spans):
    """Self time per layer in ms: each span's duration minus the part of it
    its child spans cover (children of one span never overlap: a thread
    makes one call at a time).  The layer is the span name's first part."""
    covered = collections.defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            covered[(s["lane"], s["parent"])] += s["end_ns"] - s["start_ns"]
    index = collections.Counter()
    layer = collections.defaultdict(float)
    for s in spans:
        i = index[s["lane"]]
        index[s["lane"]] += 1
        own = s["end_ns"] - s["start_ns"] - covered[(s["lane"], i)]
        layer[s["name"].split(".")[0]] += own / 1e6
    return dict(layer)


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _cold_exponent(inp, out):
    """Log-log slope of the median request time per row-count class, over
    the untraced rounds."""
    by_rows = collections.defaultdict(list)
    for rnd, r in zip(rounds_run(inp, out), out["rounds"]):
        if r["traced"]:
            continue
        for req, ms in zip(rnd, r["req_ms"]):
            _, _, params = inp.jobs[req[0]]
            by_rows[int(dict(params)["rows"])].append(ms)
    rows = sorted(by_rows)
    return stats.fit_exponent(rows, [stats.median(by_rows[r]) for r in rows])


def _overhead_pct(traced, untraced):
    return 100.0 * (traced / untraced - 1.0) if untraced else 0.0


def inproc_layers(inp, out):
    m = dict(out["layers"])
    rows = (40, 80, 160)
    m["compact.step_exponent"] = stats.fit_exponent(
        rows, [m["compact.step_us.r%d" % r] for r in rows])
    traced = [r for r in out["rounds"] if r["traced"]]
    plain = [r for r in out["rounds"] if not r["traced"]]
    m.update(counter_metrics(out["counters"], sum(r["executed"] for r in traced)))
    m["gen.preflight_share"] = _ratio(sum(r["preflight_ms"] for r in plain),
                                      sum(r["batch_ms"] for r in plain))
    m["gen.worker_busy_frac"] = _ratio(sum(r["job_wall_ms"] for r in plain),
                                       sum(r["batch_ms"] for r in plain) * out["workers"])
    jobs = [x for r in plain for x in r["job_ms"]]
    m["gen.job_ms.p50"] = stats.median(jobs)
    m["gen.job_ms.tail"] = stats.tail(jobs)[0]
    m["trace.overhead_pct"] = _overhead_pct(
        stats.median([stats.median(r["req_ms"]) for r in traced]),
        stats.median([stats.median(r["req_ms"]) for r in plain]))
    m["cold_exponent"] = _cold_exponent(inp, out) if inp.workload == "cold_sweep" else 0.0
    return m


def served_layers(out, daemon_counters):
    """The metrics a traced run takes from its served pass, and the served
    pass's tracing overhead in %: traced over untraced median latency at
    the reference rung, minus 1."""
    ladder = out["ladder"]
    outside = [(e - s) - w for s, e, w, o in zip(ladder["sent_ms"], ladder["done_ms"],
                                                ladder["engine_ms"], ladder["ok"]) if o]
    _, late, traced_by_rung = ladder_latencies(ladder)
    _, _, by_rung = ladder_latencies(out["untraced_ladder"])
    rates = out["rung_rates"]
    hits = daemon_counters.get("gen.cache.hits", 0)
    misses = daemon_counters.get("gen.cache.misses", 0)
    m = {"serve.ping_us": out["ping_us"],
         "serve.outside_engine_ms.p50": stats.median(outside),
         "serve.outside_engine_ms.tail": stats.tail(outside)[0],
         "serve.refused": float(out["refused"]),
         "loadgen.late_ms.tail": stats.tail(late)[0],
         "goodput_rps": stats.goodput(rates, [by_rung[i] for i in range(len(rates))],
                                      workloads.SERVE_LIMIT_MS),
         "gen.cache.hit_ratio": _ratio(hits, hits + misses)}
    ref = workloads.SERVE_REF_RUNG
    overhead = _overhead_pct(stats.median(traced_by_rung[ref]), stats.median(by_rung[ref]))
    return m, overhead
