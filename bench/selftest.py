"""Self-tests of the benchmark's own parts.

Run from the repository root: python3 bench/selftest.py
"""

from __future__ import annotations

import csv
import dataclasses
import shutil
import statistics
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from run import THRESHOLD_ARGS, WORK, percentile, tail_percentile  # noqa: E402
import speed  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SMALL = inputs.Shape(
    users=300, mean_degree=12, community_size=30, strangers_per_picture=15, victims="all",
)


class InputGeneratorTest(unittest.TestCase):
    def test_same_seed_same_network(self):
        a, b = inputs.build(SMALL, 5), inputs.build(SMALL, 5)
        self.assertEqual(a.document, b.document)
        self.assertEqual(a.victims, b.victims)
        self.assertNotEqual(a.document, inputs.build(SMALL, 6).document)

    def test_requested_size_degree_and_strangers(self):
        net = inputs.build(SMALL, 1)
        self.assertEqual(len(net.document["users"]), SMALL.users)
        mean_degree = 2 * net.edge_count / SMALL.users
        self.assertAlmostEqual(mean_degree, SMALL.mean_degree, delta=0.1 * SMALL.mean_degree)
        for picture in net.document["pictures"]:
            if not picture["public"]:
                continue
            friends = net.friends[picture["owner"]]
            strangers = set(picture["likers"]) | set(picture["commenters"])
            self.assertEqual(len(strangers - friends), SMALL.strangers_per_picture)

    def test_communities_give_mutual_friends(self):
        net = inputs.build(SMALL, 2)
        mutual = [
            len(net.friends[a] & net.friends[b]) for a in net.ids for b in net.friends[a]
        ]
        self.assertGreater(statistics.fmean(mutual), 1.0)

    def test_disjoint_victims_share_no_profile(self):
        shape = dataclasses.replace(SMALL, victims="disjoint", max_victims=8)
        net = inputs.build(shape, 3)
        self.assertGreater(len(net.victims), 1)
        closed = [net.friends[v] | {v} for v in net.victims]
        for i, a in enumerate(closed):
            for b in closed[i + 1:]:
                self.assertFalse(a & b)


class TailPercentileTest(unittest.TestCase):
    def test_known_sizes(self):
        self.assertEqual(tail_percentile(1000), 99)
        self.assertEqual(tail_percentile(25), 60)
        self.assertEqual(tail_percentile(20), 50)
        with self.assertRaises(ValueError):
            tail_percentile(19)

    def test_highest_with_ten_beyond(self):
        for n in range(20, 1500):
            p = tail_percentile(n)
            values = list(range(n))
            beyond = sum(1 for v in values if v > percentile(values, p))
            self.assertGreaterEqual(beyond, 10, n)
            if p < 99:
                above = sum(1 for v in values if v > percentile(values, p + 1))
                self.assertLess(above, 10, n)


class SpeedProbeTest(unittest.TestCase):
    def probe(self) -> SpeedProbe:
        probe = SpeedProbe(nominal_s=1.0)
        # Chunks at [0, 10), [100, 120) and [200, 240) ns, taking 1, 2 and 4 s.
        probe.starts, probe.ends, probe.durations = [0, 100, 200], [10, 120, 240], [1.0, 2.0, 4.0]
        return probe

    def test_scale_near_takes_chunks_within_the_window(self):
        probe = self.probe()
        window = speed.WINDOW_NS
        probe.starts = [0, window, 3 * window]
        probe.ends = [s + 10 for s in probe.starts]
        self.assertEqual(probe.scale_near(20, 90), 1 / 1.5)
        self.assertEqual(probe.scale_near(2 * window, 2 * window + 10), 1 / 3.0)
        self.assertEqual(probe.scale_near(3 * window + 20, 3 * window + 90), 1 / 4.0)

    def test_scale_over_takes_the_median_chunk(self):
        probe = self.probe()
        self.assertEqual(probe.scale_over(20, 190), 1 / 2.0)
        self.assertEqual(probe.scale_over(20, 90), 1 / 1.5)

    def test_checkpoint_times_the_chunk(self):
        probe = SpeedProbe(nominal_s=1.0)
        probe.checkpoint()
        probe.maybe_checkpoint()  # not due yet
        self.assertEqual(len(probe.durations), 1)
        self.assertGreater(probe.total_s, 0)


class PlantedFaultTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from osnrecon.cli import main

        cls.work = WORK / "selftest"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        cls.net = inputs.build(SMALL, 4)
        snapshot = cls.work / "snapshot.json"
        inputs.write_snapshot(cls.net, snapshot)
        cls.out = cls.work / "out"
        argv = ["run", "--snapshot", str(snapshot), *THRESHOLD_ARGS, "--out", str(cls.out)]
        for victim in cls.net.victims:
            argv += ["--victim", victim]
        if main(argv) != 0:
            raise RuntimeError("osnrecon run failed on the self-test network")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def copy(self) -> Path:
        target = self.work / f"copy-{self.id().rsplit('.', 1)[-1]}"
        shutil.copytree(self.out, target)
        return target

    def test_program_output_passes(self):
        self.assertEqual(checks.check_run(self.net, self.out), [])

    def test_corrupted_shared_edges_fails(self):
        tree = self.copy()
        path = next(p for p in sorted(tree.glob("*/scores.csv")) if p.stat().st_size > 80)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        rows[1][2] = str(int(rows[1][2]) + 1)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        self.assertTrue(any("shared_edges" in p for p in checks.check_run(self.net, tree)))

    def test_missing_artifact_fails(self):
        tree = self.copy()
        next(iter(sorted(tree.glob("*/graph.dot")))).unlink()
        self.assertTrue(any("artifact set" in p for p in checks.check_run(self.net, tree)))

    def test_changed_bytes_change_digest(self):
        tree = self.copy()
        before = checks.tree_digest(tree)
        with open(tree / "aggregate.json", "a", encoding="utf-8") as handle:
            handle.write(" ")
        self.assertNotEqual(checks.tree_digest(tree), before)


if __name__ == "__main__":
    unittest.main()
