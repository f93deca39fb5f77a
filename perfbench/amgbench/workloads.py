"""Seeded input generators for the workloads and the served pass.

Every input is a pure function of (workload, seed, seconds): the same seed
gives byte-identical input files.  The executor receives only these
inputs.  The text format read by cpp/input.cpp is:

    AMGBENCH 1
    workload <name>
    param <key> <value>
    tech <nbytes>\\n<bytes>           the rule deck
    script <nbytes>\\n<bytes>         script ids count from 0
    job <script> <entity> <n> <k> <v> ...   job ids count from 0
    prewarm <n> <job>...             one set-up request
    round                            opens a round (one user session)
    req <n> <job>...                 one request of the open round
    rung <rate>                      served_mix: an offered rate, frames/s
    frame <rung> <due_us> <n> <job>...   served_mix: one scheduled frame
"""

import hashlib
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(os.path.dirname(HERE), "corpus")
TECH_PATH = "perfbench/corpus/bicmos1u.tech"  # relative to the checkout root

# The workloads run.py --workload runs.  served_mix is the schedule of the
# traced runs' served pass, not a workload of its own.
WORKLOADS = ("cold_sweep", "library_edit", "adjacent_sweep")


def _corpus(name):
    with open(os.path.join(CORPUS, name), encoding="utf-8") as f:
        return f.read()


def num(x):
    """A parameter value as the manifest writes it ("6.2", "80")."""
    return "%g" % x


class Inputs:
    """The generated requests of one workload run, with deduplicated
    scripts and jobs (a job id names one distinct request content)."""

    def __init__(self, workload):
        self.workload = workload
        self.params = {}
        self.scripts = []
        self.jobs = []
        self.prewarm = []
        self.rounds = []
        self.rungs = []
        self.frames = []
        self._sids = {}
        self._jids = {}

    def script(self, text):
        if text not in self._sids:
            self._sids[text] = len(self.scripts)
            self.scripts.append(text)
        return self._sids[text]

    def job(self, sid, entity, params):
        key = (sid, entity, tuple(params))
        if key not in self._jids:
            self._jids[key] = len(self.jobs)
            self.jobs.append(key)
        return self._jids[key]

    def job_key(self, jid):
        """Content address of a job, stable across seeds and runs: what the
        golden digests are keyed by."""
        sid, entity, params = self.jobs[jid]
        h = hashlib.sha256()
        for part in (self.scripts[sid], entity) + tuple(k + "=" + v for k, v in params):
            h.update(part.encode())
            h.update(b"\0")
        return h.hexdigest()[:20]

    def encode(self):
        out = ["AMGBENCH 1\n", "workload %s\n" % self.workload]
        out += ["param %s %s\n" % kv for kv in sorted(self.params.items())]
        tech = _corpus("bicmos1u.tech").encode()
        blobs = [b"".join(s.encode() for s in out), b"tech %d\n" % len(tech), tech, b"\n"]
        for s in self.scripts:
            b = s.encode()
            blobs += [b"script %d\n" % len(b), b, b"\n"]
        lines = []
        for sid, entity, params in self.jobs:
            kv = " ".join("%s %s" % p for p in params)
            lines.append("job %d %s %d %s\n" % (sid, entity, len(params), kv))
        for req in self.prewarm:
            lines.append("prewarm %d %s\n" % (len(req), " ".join(map(str, req))))
        for rnd in self.rounds:
            lines.append("round\n")
            for req in rnd:
                lines.append("req %d %s\n" % (len(req), " ".join(map(str, req))))
        for rate in self.rungs:
            lines.append("rung %g\n" % rate)
        for rung, due_us, req in self.frames:
            lines.append("frame %d %d %d %s\n" % (rung, due_us, len(req), " ".join(map(str, req))))
        blobs.append("".join(lines).encode())
        return b"".join(blobs)

    def write(self, path):
        with open(path, "wb") as f:
            f.write(self.encode())


# --- the Sweep family ---------------------------------------------------------

def sweep_job(inp, rows, p, w):
    return inp.job(inp.script(_corpus("sweep.amg")), "Sweep",
                   [("rows", num(rows)), ("P", num(p)), ("W", num(w))])


# --- library edits ------------------------------------------------------------

LIB_DEFAULTS = {"comb_w": "2", "pad_min": "8", "pad_h": "2", "pad_tall": "8"}


def library_source(slots=None, added=""):
    src = _corpus("library.amg")
    for k, v in dict(LIB_DEFAULTS, **(slots or {})).items():
        src = src.replace("{%s}" % k, v)
    return src.replace("{added}", added)


def _entity_params(rng, entity):
    """Parameters inside the ranges every library entity builds cleanly in."""
    w = num(rng.randrange(8, 17))
    l = num(rng.choice((2, 2.5, 3)))
    if entity in ("Trans", "DiffPair", "MirrorCore") or entity.startswith("Edit"):
        return [("W", w), ("L", l)]
    if entity == "Interdig":
        return [("W", w), ("L", l), ("fingers", num(rng.randrange(1, 7)))]
    if entity == "ContactRow":
        return [("layer", rng.choice(("pdiff", "poly"))), ("W", num(rng.randrange(4, 13)))]
    if entity == "Comb":
        return [("n", num(rng.randrange(2, 9))), ("pitch", num(rng.choice((6, 8)))),
                ("len", num(rng.randrange(12, 31, 2)))]
    if entity == "Pad":
        return [("budget", num(rng.randrange(3, 15)))]
    raise ValueError(entity)


LIB_ENTITIES = ("Trans", "Interdig", "ContactRow", "Comb", "Pad", "DiffPair", "MirrorCore")


def library_edit_job(inp, rng, k, count):
    """Edit number `k`: changed literals plus a new entity Edit<k>, then
    `count` instantiations from the edited source.  Returns job ids."""
    slots = {"comb_w": num(rng.choice((2, 3))), "pad_min": num(rng.randrange(6, 11)),
             "pad_h": num(rng.choice((2, 3))), "pad_tall": num(rng.choice((8, 9, 10)))}
    name = "Edit%d" % k
    added = (_corpus("added.amg").replace("{name}", name)
             .replace("{base}", rng.choice(("Trans", "DiffPair", "MirrorCore")))
             .replace("{reps}", num(rng.randrange(1, 4))))
    sid = inp.script(library_source(slots, added))
    entities = [name] + [rng.choice(LIB_ENTITIES) for _ in range(count - 1)]
    return [inp.job(sid, e, _entity_params(rng, e)) for e in entities]


def library_hot_jobs(inp):
    """The unedited library, one instantiation per entity: what opening the
    library costs, and the served mix's hot set."""
    sid = inp.script(library_source())
    fixed = {"Trans": [("W", "12"), ("L", "2")],
             "Interdig": [("W", "12"), ("L", "2"), ("fingers", "3")],
             "ContactRow": [("layer", "pdiff"), ("W", "6")],
             "Comb": [("n", "4"), ("pitch", "6"), ("len", "20")],
             "Pad": [("budget", "12")],
             "DiffPair": [("W", "10"), ("L", "2")],
             "MirrorCore": [("W", "12"), ("L", "2")]}
    return [inp.job(sid, e, p) for e, p in fixed.items()]


# --- workloads ----------------------------------------------------------------

# cold_sweep: per size class, jobs per round.  Equal counts at 40 and 160
# rows put the median (ranks 35 and 36 of 72) at the middle of the 80-row
# class (ranks 21-50), and the tail (the 11th-largest, rank 61) at the
# middle of the 160-row class (ranks 51-71): both sit on a class median,
# away from the class boundaries, so a host slow phase that catches part
# of a class moves them least.
COLD_MIX = {40: 21, 80: 30, 160: 21}
COLD_W = [6.0 + 0.2 * i for i in range(10)]
# A round runs for about 11 s, so set-up is also timed (in a session of its
# own, outside the round's wall time) before every third request: its
# median then spans the whole run, not one moment of it.
COLD_SETUP_EVERY = 3

# adjacent_sweep: (rows, P) families recorded at set-up; each round
# re-sweeps REQS_PER_FAMILY requests of ADJ_REQ_JOBS tail points each.
ADJ_FAMILIES = [(80, 5), (80, 6), (160, 6)]
ADJ_POOL = [6.0 + 0.02 * i for i in range(100)]
ADJ_REQ_JOBS = 4
ADJ_REQS_PER_FAMILY = 18

# library_edit: sessions of 100 edits, so the per-round tail (11th-largest,
# p90) is set by the heavy edits rather than by host preemptions, which
# bunch up in bursts of a few seconds; six distinct sessions are cycled.
LIB_EDITS_PER_ROUND = 100
LIB_ROUNDS = 6

# served_mix: the offered-rate ladder (frames/s), the reference rung whose
# latencies give the served pass's tracing overhead, and the goodput
# latency limit.
SERVE_RATES = [100, 200, 400, 600, 800]
SERVE_REF_RUNG = 1
SERVE_LIMIT_MS = 25.0
SERVE_ADJ_POOL = [5.0 + 0.001 * i for i in range(5000)]
SERVE_FRAME_JOBS = [1, 1, 1, 1, 2, 2, 2, 3, 4, 8]


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def cold_sweep(seed, seconds):
    rng = _rng("cold_sweep", seed)
    inp = Inputs("cold_sweep")
    inp.params.update(workers=1, cache=0, prefix=0, probe_jobs=3, setup_every=COLD_SETUP_EVERY)
    inp.prewarm.append([sweep_job(inp, 40, 6, 5.0)])
    for _ in range(2):
        reqs = [[sweep_job(inp, rows, 6, rng.choice(COLD_W))]
                for rows, n in COLD_MIX.items() for _ in range(n)]
        rng.shuffle(reqs)
        inp.rounds.append(reqs)
    return inp


def library_edit(seed, seconds):
    rng = _rng("library_edit", seed)
    inp = Inputs("library_edit")
    inp.params.update(workers=1, cache=1, prefix=1, reset_chunks=1, probe_jobs=8)
    inp.prewarm.append(library_hot_jobs(inp))
    k = 0
    for _ in range(LIB_ROUNDS):
        rnd = []
        for _ in range(LIB_EDITS_PER_ROUND):
            rnd.append(library_edit_job(inp, rng, k, rng.randrange(1, 5)))
            k += 1
        inp.rounds.append(rnd)
    return inp


def adjacent_sweep(seed, seconds):
    rng = _rng("adjacent_sweep", seed)
    inp = Inputs("adjacent_sweep")
    inp.params.update(workers=1, cache=0, prefix=1, probe_jobs=4)
    for rows, p in ADJ_FAMILIES:
        inp.prewarm.append([sweep_job(inp, rows, p, 5.5)])
    for _ in range(2):
        reqs = []
        for rows, p in ADJ_FAMILIES:
            pts = rng.sample(ADJ_POOL, ADJ_REQ_JOBS * ADJ_REQS_PER_FAMILY)
            for i in range(0, len(pts), ADJ_REQ_JOBS):
                reqs.append([sweep_job(inp, rows, p, w) for w in pts[i:i + ADJ_REQ_JOBS]])
        rng.shuffle(reqs)
        inp.rounds.append(reqs)
    return inp


def served_mix(seed, seconds):
    rng = _rng("served_mix", seed)
    inp = Inputs("served_mix")
    inp.params.update(workers=2, connections=2, tech_path=TECH_PATH)
    hot = library_hot_jobs(inp) + [sweep_job(inp, 40, 6, w) for w in (6.0, 7.0)]
    family = sweep_job(inp, 80, 6, 4.0)
    inp.prewarm += [hot, [family]]
    hot.append(family)
    adj = iter(rng.sample(SERVE_ADJ_POOL, len(SERVE_ADJ_POOL)))
    edit = 0
    # The served pass offers the ladder twice (untraced, then traced), each
    # in half the time.
    rung_s = seconds / 2.0 / len(SERVE_RATES)
    for r, rate in enumerate(SERVE_RATES):
        t_us = int(r * rung_s * 1e6)
        inp.rungs.append(rate)
        n = int(round(rate * rung_s))
        for i in range(n):
            req = []
            for _ in range(rng.choice(SERVE_FRAME_JOBS)):
                u = rng.random()
                if u < 0.85:
                    req.append(rng.choice(hot))
                elif u < 0.95:
                    req.append(sweep_job(inp, 80, 6, next(adj)))
                else:
                    req += library_edit_job(inp, rng, edit, 1)
                    edit += 1
            inp.frames.append((r, t_us + int(i * 1e6 / rate), req))
    return inp


GENERATORS = {"cold_sweep": cold_sweep, "library_edit": library_edit,
              "adjacent_sweep": adjacent_sweep, "served_mix": served_mix}


def generate(workload, seed, seconds):
    inp = GENERATORS[workload](seed, seconds)
    # Every workload carries the Sweep script for the traced run's C++
    # replay of the compaction column.
    inp.params["replay_script"] = inp.script(_corpus("sweep.amg"))
    return inp
