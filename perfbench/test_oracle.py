#!/usr/bin/env python3
"""The benchmark's own tests: a corrupted kernel checksum or batch counter
must raise the failure count and make the run exit nonzero, while a clean
run passes with no failures.

    python3 perfbench/test_oracle.py

Each case is a short real run (--seconds 1) through run.py, which builds the
benchmark first if needed.
"""
import json
import pathlib
import subprocess
import sys
import unittest

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=600)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


class OracleTest(unittest.TestCase):
    def test_corrupted_checksum_fails_the_run(self):
        code, result = run("buffered-memory", 1, "--corrupt", "checksum")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["metrics"]["oracle.failed_frac"]["value"], 0)

    def test_corrupted_batch_counter_fails_the_run(self):
        code, result = run("serve-hotkey", 1, "--corrupt", "counter")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(result["metrics"]["oracle.failed_frac"]["value"], 0)

    def test_clean_run_passes(self):
        code, result = run("serve-hotkey", 0)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
