"""Tests of the benchmark's own logic; they need no build.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from amgbench import report, stats, workloads  # noqa: E402


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.GENERATORS:
            a = workloads.generate(w, 7, 10).encode()
            b = workloads.generate(w, 7, 10).encode()
            self.assertEqual(a, b, w)

    def test_other_seed_other_inputs(self):
        for w in workloads.GENERATORS:
            self.assertNotEqual(workloads.generate(w, 7, 10).encode(),
                                workloads.generate(w, 8, 10).encode(), w)

    def test_job_keys_depend_on_content_only(self):
        a = workloads.generate("cold_sweep", 1, 10)
        b = workloads.generate("cold_sweep", 2, 10)
        keys_a = {a.jobs[j]: a.job_key(j) for j in range(len(a.jobs))}
        for j in range(len(b.jobs)):
            sid, entity, params = b.jobs[j]
            for (sa, ea, pa), key in keys_a.items():
                if a.scripts[sa] == b.scripts[sid] and (ea, pa) == (entity, params):
                    self.assertEqual(key, b.job_key(j))

    def test_every_library_edit_is_new_source(self):
        inp = workloads.generate("library_edit", 3, 10)
        edited = [inp.jobs[req[0]][0] for rnd in inp.rounds for req in rnd]
        self.assertEqual(len(edited), len(set(edited)))

    def test_cold_mix_keeps_median_and_tail_inside_one_class(self):
        n = sum(workloads.COLD_MIX.values())
        rows = sorted(r for r, k in workloads.COLD_MIX.items() for _ in range(k))
        first = {r: rows.index(r) for r in workloads.COLD_MIX}
        mid80 = first[80] + (workloads.COLD_MIX[80] - 1) / 2
        self.assertLessEqual(abs((n - 1) / 2 - mid80), 1)  # median mid-class
        mid160 = first[160] + (workloads.COLD_MIX[160] - 1) / 2
        self.assertLessEqual(abs((n - stats.TAIL_BEYOND - 1) - mid160), 1)


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct, n = stats.tail(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))

    def test_order_does_not_matter(self):
        xs = [5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 0]
        self.assertEqual(stats.tail(xs)[0], 1)

    def test_smallest_sample_count(self):
        self.assertEqual(stats.tail(list(range(11)))[0], 0)
        with self.assertRaises(ValueError):
            stats.tail(list(range(10)))

    def test_spread_is_iqr_over_median(self):
        xs = [10.0] * 4 + [12.0] * 4
        q1, q2, q3 = __import__("statistics").quantiles(xs, n=4)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / q2)


class ExponentFit(unittest.TestCase):
    def test_exact_power_laws(self):
        sizes = [40, 80, 160, 320]
        for k in (1.0, 1.3, 2.0, 2.8, 3.0):
            times = [0.002 * s ** k for s in sizes]
            self.assertAlmostEqual(stats.fit_exponent(sizes, times), k, places=9)

    def test_noisy_power_law(self):
        sizes = [40, 80, 160]
        times = [8.5 * (s / 40) ** 2.78 * f for s, f in zip(sizes, (1.02, 0.98, 1.01))]
        self.assertAlmostEqual(stats.fit_exponent(sizes, times), 2.78, delta=0.05)

    def test_needs_two_sizes(self):
        with self.assertRaises(ValueError):
            stats.fit_exponent([40], [1.0])
        with self.assertRaises(ValueError):
            stats.fit_exponent([40, 40], [1.0, 2.0])


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        lat, late = stats.open_loop([0, 10, 20], [0, 15, 20], [5, 30, 22], [True, True, False])
        self.assertEqual(lat[:2], [5, 20])  # the second waited 5 ms to be sent
        self.assertTrue(math.isinf(lat[2]))  # a failed request misses every limit
        self.assertEqual(late, [0, 5, 0])

    def test_early_send_is_not_negative_lateness(self):
        _, late = stats.open_loop([10], [9.5], [12], [True])
        self.assertEqual(late, [0.0])

    def test_rung_verdicts(self):
        self.assertTrue(stats.rung_meets([1.0] * 100, 25))
        self.assertFalse(stats.rung_meets([1.0] * 98 + [30, 30], 25))  # 98% < 99%
        growing = [1.0] * 90 + [100.0] * 10  # 90% meet, and the last tenth is late
        self.assertFalse(stats.rung_meets(growing, 25))
        self.assertFalse(stats.rung_meets([], 25))

    def test_goodput_is_the_highest_passing_rung(self):
        rates = [100, 200, 400]
        lat = [[1.0] * 100, [2.0] * 200, [50.0] * 400]
        self.assertEqual(stats.goodput(rates, lat, 25), 200)
        self.assertEqual(stats.goodput(rates, [[50.0]] * 3, 25), 0)

    def test_schedule_due_times(self):
        inp = workloads.generate("served_mix", 1, 10)
        rung_us = 5e6 / len(workloads.SERVE_RATES)  # each of two passes takes half
        by_rung = {}
        for rung, due, req in inp.frames:
            by_rung.setdefault(rung, []).append(due)
            self.assertTrue(1 <= len(req) <= 8)
        for r, rate in enumerate(workloads.SERVE_RATES):
            due = by_rung[r]
            self.assertEqual(len(due), round(rate * rung_us / 1e6))
            self.assertEqual(due, sorted(due))
            self.assertGreaterEqual(due[0], r * rung_us - 1)
            self.assertLess(due[-1], (r + 1) * rung_us)

    def test_ladder_latencies_fail_partial_frames(self):
        ladder = {"due_ms": [0, 10], "sent_ms": [0, 10], "done_ms": [2, 12],
                  "ok": [2, 1], "jobs": [2, 2], "rung": [0, 0]}
        lat, _, by_rung = report.ladder_latencies(ladder)
        self.assertEqual(lat[0], 2)
        self.assertTrue(math.isinf(lat[1]))  # one of its two jobs failed
        self.assertEqual(len(by_rung[0]), 2)


class OutputChecks(unittest.TestCase):
    """report.judge on hand-made executor outputs, with the oracles' answer
    given: every job's digest is its id in hex, and DRC-clean."""

    @staticmethod
    def oracle(jids):
        return {j: {"ok": True, "digest": "%016x" % (j + 1), "drc": 0, "error": ""}
                for j in jids}

    def served(self):
        inp = workloads.generate("served_mix", 1, 10)
        jids = report.requested_jobs(inp, None)
        ladder = {"ok": [len(r) for _, _, r in inp.frames],
                  "jobs": [len(r) for _, _, r in inp.frames]}
        out = {"digests": {str(j): "%016x" % (j + 1) for j in jids},
               "failures": [], "failure_count": 0,
               "untraced_ladder": dict(ladder, ok=list(ladder["ok"])), "ladder": ladder}
        return inp, out, self.oracle(jids)

    def test_clean_served_pass(self):
        inp, out, ref = self.served()
        self.assertEqual(report.judge(inp, out, ref, {}), (2 * len(inp.frames), 0, []))

    def test_failed_frame_of_the_untraced_pass_counts(self):
        inp, out, ref = self.served()
        out["untraced_ladder"]["ok"][3] = 0  # refused: the executor writes ok 0
        out["failures"] = ["untraced frame 3: AMG-SRV-002 busy"]
        out["failure_count"] = 1
        attempted, failed, problems = report.judge(inp, out, ref, {})
        self.assertEqual((attempted, failed), (2 * len(inp.frames), 1))
        self.assertEqual(problems, out["failures"])

    def test_partly_failed_frame_counts(self):
        inp, out, ref = self.served()
        i = next(k for k, (_, _, r) in enumerate(inp.frames) if len(r) > 1)
        out["untraced_ladder"]["ok"][i] -= 1
        self.assertEqual(report.judge(inp, out, ref, {})[1], 1)

    def test_wrong_digest_fails_every_request_using_the_job(self):
        inp = workloads.generate("adjacent_sweep", 1, 10)
        out = {"rounds": [{}, {}, {}], "failures": [], "failure_count": 0}
        jids = report.requested_jobs(inp, out)
        out["digests"] = {str(j): "%016x" % (j + 1) for j in jids}
        ref = self.oracle(jids)
        bad = inp.rounds[0][0][0]
        out["digests"][str(bad)] = "0" * 16
        users = sum(bad in req for rnd in report.rounds_run(inp, out) for req in rnd)
        attempted, failed, problems = report.judge(inp, out, ref, {})
        self.assertEqual(attempted, sum(len(r) for r in report.rounds_run(inp, out)))
        self.assertEqual(failed, users)
        self.assertIn("differs from the oracle's", problems[0])

    def test_golden_mismatch_and_drc_fail(self):
        inp, out, ref = self.served()
        a, b = sorted(ref)[:2]
        ref[b]["drc"] = 2
        _, failed, problems = report.judge(inp, out, ref, {inp.job_key(a): "f" * 16})
        self.assertGreaterEqual(failed, 2)
        self.assertEqual(len(problems), 2)


class HostSpeed(unittest.TestCase):
    @staticmethod
    def executor_output(host_ms):
        """Twelve identical rounds of 20 requests, 2 ms each at the
        reference host speed, on a host whose samples read `host_ms`."""
        slow = host_ms / report.HOST_REF_MS
        rnd = {"traced": False, "attempted": 20, "failed": 0, "wall_s": 0.05 * slow,
               "req_ms": [2.0 * slow] * 20, "req_host_ms": [host_ms] * 20}
        return {"rounds": [dict(rnd) for _ in range(12)], "setup_s": [0.003 * slow] * 7,
                "setup_host_ms": [host_ms] * 7, "peak_rss_kb": 2048}

    def test_slow_host_reads_as_reference_host(self):
        ref, _ = report.inproc_end_to_end(self.executor_output(report.HOST_REF_MS))
        slow, info = report.inproc_end_to_end(self.executor_output(1.5 * report.HOST_REF_MS))
        for k in ("setup_s", "throughput_jobs_per_s", "latency_ms.p50", "latency_ms.tail"):
            self.assertAlmostEqual(slow[k], ref[k], msg=k)
        self.assertAlmostEqual(ref["throughput_jobs_per_s"], 400.0)
        self.assertAlmostEqual(ref["latency_ms.p50"], 2.0)
        self.assertIn("throughput_jobs_per_s 266.667", info[-1])  # unscaled, as measured

    def test_each_request_takes_its_own_sample(self):
        xs = report.host_scaled([2.0, 2.0], [report.HOST_REF_MS, 2 * report.HOST_REF_MS])
        self.assertEqual(xs, [2.0, 1.0])


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_per_lane(self):
        spans = [
            {"name": "gen.run", "start_ns": 0, "end_ns": 10_000_000, "parent": -1, "lane": 0},
            {"name": "lang.parse", "start_ns": 1_000_000, "end_ns": 4_000_000, "parent": 0, "lane": 0},
            {"name": "serve.generate", "start_ns": 0, "end_ns": 2_000_000, "parent": -1, "lane": 1},
        ]
        self.assertEqual(report.self_times(spans),
                         {"gen": 7.0, "lang": 3.0, "serve": 2.0})


if __name__ == "__main__":
    unittest.main()
