import json
from pathlib import Path

import process
from stats import Calibrator
from workloads import Outcome, Verify, load_reference, read_report

ROOT = Path(__file__).resolve().parents[2]


class OneCase(Verify):
    """Verify with a single one-basis n=8 case, so the test runs one short op."""

    cycle = 1

    def setup(self):
        self.cases = [self._prepare(f"{self.name}/obz/n=8/seed=3", "case0")]


def test_tampered_algval_below_lambda_max_fails_the_op(tmp_path):
    workload = OneCase(0, tmp_path, load_reference())
    workload.setup()
    seconds, outcome = process.run_op(workload, 0)
    assert seconds > 0 and outcome.problems == [] and outcome.slack > 0

    run = workload.op(0)
    report = run["out"]["certify"]
    lam = float(read_report(run["out"]["oracle"])[0]["lambda_max"])
    lines = [f"algval={lam - 0.01!r}" if ln.startswith("algval=") else ln
             for ln in report.read_text().splitlines()]
    report.write_text("\n".join(lines) + "\n")
    tampered = workload.check(0, run)
    assert any(p.startswith("unsound") for p in tampered.problems)
    assert process.failures([outcome, tampered])[0] == 1


class Flaky:
    """Stub workload: even ops raise, odd ops fail their check, every fourth op passes."""

    cycle = 2

    def op(self, i):
        if i % 4 == 0:
            raise RuntimeError("boom")
        return i

    def check(self, i, result):
        return Outcome([] if i % 4 == 3 else ["mismatch"])


def test_failed_ops_are_counted_and_the_loop_goes_on():
    loop = process.closed_loop(Flaky(), 0.3, Calibrator())
    outcomes = loop["outcomes"]
    assert len(outcomes) % 2 == 0 and len(outcomes) >= 4
    assert len(loop["samples"]) == len(outcomes)
    failed, problems = process.failures(outcomes)
    assert failed == len(outcomes) - len(outcomes) // 4
    assert problems[:2] == ["op 0: RuntimeError: boom", "mismatch"]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    import run
    import tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(process.WORKLOADS)
