#!/usr/bin/env python3
"""The benchmark's own checks: attribution conservation and exact repeats.

    python3 perfbench/test_perfbench.py

Builds simbench.exe, then makes two traced runs of campaign-default.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOAD = "campaign-default"
VARIANT = 1


class TracedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.traces = [run.child("trace", WORKLOAD, VARIANT) for _ in range(2)]

    def test_label_events_sum_to_engine_events(self):
        for t in self.traces:
            labels = t["trace"]["labels"]
            self.assertEqual(sum(v["events"] for v in labels.values()), t["engine_events"])
            self.assertGreater(t["engine_events"], 0)
            self.assertIn("scheduler", labels)
            self.assertIn("unlabelled", labels)

    def test_label_host_time_accounts_for_drive(self):
        for t in self.traces:
            overhead = run.check_conservation(t)
            self.assertLessEqual(overhead, run.MAX_TIMER_OVERHEAD_PCT)

    def test_counts_repeat_exactly(self):
        first, second = self.traces
        self.assertEqual(run.label_counts(first), run.label_counts(second))
        for key in ("engine_events", "ci", "scheduler", "unobserved_fingerprint",
                    "builds_total", "bugs_filed"):
            self.assertEqual(first[key], second[key], key)
        words = [{k: v["words"] for k, v in t["trace"]["labels"].items()} for t in self.traces]
        self.assertEqual(words[0], words[1])

    def test_conservation_check_rejects_lost_events(self):
        broken = dict(self.traces[0], engine_events=self.traces[0]["engine_events"] + 1)
        with self.assertRaises(run.Failure):
            run.check_conservation(broken)


if __name__ == "__main__":
    unittest.main()
