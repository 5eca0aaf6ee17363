"""Checks that BENCHMARK.json and the benchmark agree.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The Rust side has its own unit tests:
`cargo test --offline --manifest-path perfbench/Cargo.toml`.
"""

import json
import os
import subprocess
import unittest

import run

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def listed_metrics():
    """(kind, name, unit) of every metric the benchmark can print."""
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(run.ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(run.HERE, "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", manifest],
        env=env, check=True,
    )
    out = subprocess.run(
        [os.path.join(target, "release", "perfbench"), "--list-metrics"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return [tuple(line.split()) for line in out.splitlines()]


class BenchmarkSpec(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(SPEC) as f:
            cls.spec = json.load(f)
        cls.printed = listed_metrics()

    def test_every_printed_metric_is_listed_and_every_listed_one_printed(self):
        for kind in ("end_to_end", "per_layer"):
            listed = [(m["name"], m["unit"]) for m in self.spec[kind]]
            printed = [(name, unit) for k, name, unit in self.printed if k == kind]
            self.assertEqual(listed, printed, kind)

    def test_every_listed_workload_runs(self):
        listed = {w["name"] for w in self.spec["workloads"]}
        self.assertLessEqual(listed, set(run.WORKLOADS))

    def test_setup_time_is_measured(self):
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [dict(setup[0], unit="s", better="lower")])
        self.assertEqual(
            setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"])
        )


if __name__ == "__main__":
    unittest.main()
