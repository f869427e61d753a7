#!/usr/bin/env python3
"""Checks that the benchmark's correctness checks bite.

Run from the checkout root after one benchmark run has built the tree:

    python3 perfbench/test_run.py

A tampered pinned digest, a broken cell invariant and a tampered figure
output must each count as a failed check (error_rate above 0), and a
traced-loop count mismatch must fail the traced run. The last two need
the build and are skipped without it.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

HEADER = ("workload,prefetcher,instructions,cycles,demand_accesses,"
          "l1_misses,l2_demand_misses,hit-prefetched,shorter-wait,"
          "non-timely,miss-not-prefetched,hit-older-demand,"
          "prefetch_never_hit,hierarchy.demand_accesses")


def grid_csv(classes_total=10):
    rows = [HEADER]
    for prefetcher in ("none", "stride"):
        rows.append(f"mcf,{prefetcher},100,200,10,4,2,"
                    f"1,1,1,1,{classes_total - 4},0,10")
    return "\n".join(rows) + "\n"


def built():
    return os.path.exists(os.path.join(run.BUILD_DIR, "perfbench_driver"))


class ChecksBite(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.BUILD_ROOT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=run.BUILD_ROOT)

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def pinned(self, digest):
        path = os.path.join(self.tmp, "pinned.json")
        with open(path, "w") as f:
            json.dump({"digests": {"1": digest}}, f)
        return path

    def test_pinned_digest_passes_and_tampered_one_fails(self):
        text = grid_csv()
        good = hashlib.sha256(text.encode()).hexdigest()
        checks = run.Checks()
        run.check_grid_csv(checks, text, 1, ["none", "stride"], 1,
                           pinned_path=self.pinned(good))
        self.assertEqual((checks.attempted, checks.failed), (3, 0))
        checks = run.Checks()
        run.check_grid_csv(checks, text, 1, ["none", "stride"], 1,
                           pinned_path=self.pinned("0" * 64))
        self.assertEqual(checks.failed, 1)
        self.assertGreater(checks.error_rate, 0)

    def test_broken_invariant_and_missing_cell_fail(self):
        checks = run.Checks()
        run.check_grid_csv(checks, grid_csv(classes_total=11), 2,
                           ["none", "stride"], 7,
                           pinned_path=self.pinned("0" * 64))
        # Two cells break the class identity, two more are missing.
        self.assertEqual((checks.attempted, checks.failed), (4, 4))

    def test_every_figure_has_a_recorded_instruction_count(self):
        insts = json.loads(run.read(run.FIGURES_INSTS))["instructions"]
        self.assertEqual(sorted(insts), sorted(run.FIGURES))

    @unittest.skipUnless(built(), "needs a benchmark build")
    def test_tampered_figure_output_fails(self):
        expected = os.path.join(self.tmp, "expected")
        os.makedirs(expected)
        names = ["table2_config", "fig05_reward"]
        for name in names:
            shutil.copy(os.path.join(run.ROOT, "results", name + ".txt"),
                        expected)
        with open(os.path.join(expected, "fig05_reward.txt"), "a") as f:
            f.write("tampered\n")
        out = os.path.join(self.tmp, "out")
        os.makedirs(out)
        checks = run.Checks()
        run.figure_outputs(checks, expected, out, names=names)
        self.assertEqual((checks.attempted, checks.failed), (2, 1))

    @unittest.skipUnless(built(), "needs a benchmark build")
    def test_traced_count_mismatch_fails_the_run(self):
        for inject in (False, True):
            checks = run.Checks()
            out = os.path.join(self.tmp, f"trace-{inject}")
            os.makedirs(out)
            ledger = run.trace_driver(checks, out, ["list"],
                                      ["none", "stride"], 20000, 1, 1,
                                      "mem", inject_mismatch=inject)
            self.assertEqual(ledger["mismatched_cells"], 1 if inject else 0)
            if inject:
                self.assertGreater(checks.failed, 0)


if __name__ == "__main__":
    unittest.main()
