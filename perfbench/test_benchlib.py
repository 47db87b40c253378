"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import tempfile
import unittest

import benchlib as bl

HERE = os.path.dirname(os.path.abspath(__file__))


def span(sid, parent, start, end, name="core.x", lane=0):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name, "lane": lane, "unit": -1}


class Statistics(unittest.TestCase):
    def test_median_odd_even(self):
        self.assertEqual(bl.median([3, 1, 2]), 2)
        self.assertEqual(bl.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            bl.median([])

    def test_percentile_interpolates(self):
        values = list(range(101))
        self.assertEqual(bl.percentile(values, 50), 50)
        self.assertAlmostEqual(bl.percentile(values, 99.5), 99.5)
        self.assertEqual(bl.percentile([7], 90), 7)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(bl.tail_percentile(list(range(99))))
        self.assertEqual(bl.tail_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(bl.tail_percentile(list(range(999)))[0], 90.0)
        self.assertEqual(bl.tail_percentile(list(range(1000)))[0], 99.0)

    def test_summary_states_sample_count(self):
        s = bl.summarize([2.0, 1.0, 3.0])
        self.assertEqual((s["median"], s["n"], s["tail"]), (2.0, 3, None))


class SelfTime(unittest.TestCase):
    def test_nested(self):
        spans = [span(0, -1, 0, 100, "bench.campaign"),
                 span(1, 0, 10, 60, "core.prefix"),
                 span(2, 1, 20, 30, "mem.flush"),
                 span(3, 0, 70, 90, "core.continuation")]
        selfs = bl.self_times(spans)
        self.assertEqual(selfs, {0: 30, 1: 40, 2: 10, 3: 20})

    def test_overlapping_children_count_once(self):
        # Two pool threads under one phase span: [10,60) and [40,80)
        # cover [10,80), so the parent keeps 100 - 70.
        spans = [span(0, -1, 0, 100, "bench.phase2"),
                 span(1, 0, 10, 60, "core.continuation", lane=1),
                 span(2, 0, 40, 80, "core.continuation", lane=2)]
        self.assertEqual(bl.self_times(spans)[0], 30)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, -1, 0, 50, "bench.unit"),
                 span(1, 0, 40, 70, "core.continuation")]
        self.assertEqual(bl.self_times(spans)[0], 40)

    def test_attribution_and_unexplained_remainder(self):
        spans = [span(0, -1, 0, 100, "bench.campaign"),
                 span(1, 0, 0, 50, "core.prefix"),
                 span(2, 0, 50, 80, "mem.flush")]
        by_name, by_layer, coverage, worst = bl.attribution(spans)
        self.assertEqual(by_layer, {"bench": 20, "core": 50, "mem": 30})
        self.assertAlmostEqual(coverage, 0.8)
        self.assertEqual(worst, ("bench.campaign", 20))
        self.assertEqual(by_name["core.prefix"], 50)

    def test_pool_stats(self):
        spans = [span(0, -1, 0, 100, "bench.campaign"),
                 span(1, 0, 0, 100, "bench.phase2"),
                 span(2, 1, 0, 60, "bench.unit", lane=1),
                 span(3, 1, 0, 90, "bench.unit", lane=2)]
        busy, tail = bl.pool_stats(spans)
        self.assertAlmostEqual(busy, 150 / 200)
        self.assertAlmostEqual(tail, 40e-9)


class Correctness(unittest.TestCase):
    def test_digest_ignores_timing_and_git_describe(self):
        a = {"run": {"seed": 1, "git_describe": "abc"}, "counters": {"x": 1},
             "timing": {"elapsed_seconds": 1.0}}
        b = {"run": {"seed": 1, "git_describe": "def"}, "counters": {"x": 1},
             "timing": {"elapsed_seconds": 2.0}}
        c = dict(b, counters={"x": 2})
        da, db, dc = (bl.digest({"manifest.json": json.dumps(m)})
                      for m in (a, b, c))
        self.assertEqual(da, db)
        self.assertNotEqual(da, dc)

    def test_digest_covers_every_artifact(self):
        base = {"report.txt": "r", "results.csv": "c"}
        self.assertNotEqual(bl.digest(base),
                            bl.digest(dict(base, **{"results.csv": "C"})))
        self.assertNotEqual(bl.digest({"a": "bc"}), bl.digest({"ab": "c"}))

    def test_strip_trace_line(self):
        report = "trace: 16 units -> t.xtrace\nTable 2\nrow\n"
        self.assertEqual(bl.strip_trace_line(report), "Table 2\nrow\n")

    def test_digest_mismatch_fails_the_units(self):
        gate = bl.Gate()
        gate.add(16, [bl.mismatch("pin", "aaaa", "aaaa"),
                      bl.mismatch("other workload", "aaaa", None)])
        self.assertEqual((gate.attempted, gate.failed), (16, 0))
        gate.add(16, [bl.mismatch("pin", "aaaa", "bbbb")])
        self.assertEqual((gate.attempted, gate.failed), (32, 16))
        self.assertAlmostEqual(gate.failed_frac, 0.5)
        self.assertIn("pin", gate.reasons[0])

    def test_requeued_units_fail_one_by_one(self):
        gate = bl.Gate()
        gate.add(16, [], requeued=3)
        self.assertEqual(gate.failed, 3)


class Provenance(unittest.TestCase):
    CACHE = ("# comment\n"
             "CMAKE_BUILD_TYPE:STRING=Release\n"
             "CMAKE_CXX_COMPILER:FILEPATH=/usr/bin/c++\n"
             "CMAKE_CXX_FLAGS:STRING=\n"
             "CMAKE_CXX_FLAGS_RELEASE:STRING=-O3 -DNDEBUG\n")

    def stamp_from(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "CMakeCache.txt")
            with open(path, "w") as f:
                f.write(text)
            return bl.build_stamp(bl.read_cmake_cache(path), "c++ 12.2.0")

    def test_release_build_is_reported(self):
        stamp = self.stamp_from(self.CACHE)
        self.assertEqual(stamp["build_type"], "Release")
        self.assertEqual(stamp["flags"], "-O3 -DNDEBUG")
        self.assertEqual(stamp["sanitizer"], "none")
        self.assertIsNone(bl.refuse_reason(stamp))

    def test_debug_and_sanitizer_builds_are_refused(self):
        debug = self.stamp_from(self.CACHE.replace("=Release", "=Debug"))
        self.assertIn("Debug", bl.refuse_reason(debug))
        asan = self.stamp_from(self.CACHE.replace(
            "FLAGS:STRING=\n", "FLAGS:STRING=-fsanitize=address,undefined\n"))
        self.assertEqual(asan["sanitizer"], "address,undefined")
        self.assertIn("sanitizer", bl.refuse_reason(asan))

    def test_stamp_reads_back_from_a_record(self):
        stamp = self.stamp_from(self.CACHE)
        stamp.update(bl.host_stamp(HERE))
        stamp["loadavg"] = {"before": [0.5, 0.4, 0.3],
                            "after": [0.7, 0.5, 0.3]}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "record.json")
            bl.write_record(path, {"stamp": stamp, "metrics": {}})
            self.assertEqual(bl.read_stamp(path), stamp)
            del stamp["nproc"]
            bl.write_record(path, {"stamp": stamp})
            with self.assertRaises(ValueError):
                bl.read_stamp(path)


class BenchmarkSpec(unittest.TestCase):
    """BENCHMARK.json stays within the limits its readers enforce."""

    def test_spec(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in spec["workloads"]]
        metrics = spec["end_to_end"] + spec["per_layer"]
        names += [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(name.match(n) for n in names))
        self.assertTrue(all(unit.match(m["unit"]) for m in metrics))
        self.assertTrue(all(len(w["why"]) <= 200 for w in spec["workloads"]))
        self.assertTrue(all(0 < m["bound"] <= 0.25
                            for m in spec["end_to_end"]))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
