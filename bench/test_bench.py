"""Self-tests of the benchmark: its verdicts, and the tracer's counts.

    python3 -m pytest -q bench

Traced bodies run at small bounds in fresh interpreters, so that every
run starts with empty module caches, as a benchmark repetition does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(run.SRC))
SMALL = {"run_commute": {"N": 3, "W": 5}, "run_kp": {"W": 5}}

TRACED_BODY = """
import json, sys
sys.path.insert(0, {bench!r})
import workloads
from tracer import Tracer
tracer = Tracer()
tracer.install()
checks = workloads.{body}(**{kwargs!r})
tracer.uninstall()
print(json.dumps({{"checks": checks, "trace": tracer.summary(),
                  "root_s": tracer.root_time()}}))
"""


def traced(body):
    code = TRACED_BODY.format(bench=str(BENCH), body=body, kwargs=SMALL[body])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(run.SRC)),
                         timeout=120).stdout
    return json.loads(out)


def counts(trace):
    metrics = run.layer_metrics(trace, {})
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", "_calls", "_terms", ".pairs", "_bytes"))}


@pytest.fixture(scope="module")
def kp_runs():
    return [traced("run_kp") for _ in range(2)]


@pytest.fixture(scope="module")
def commute_runs():
    return [traced("run_commute") for _ in range(2)]


# -- verdicts ---------------------------------------------------------------


def test_wrong_digest_is_a_failure(tmp_path):
    session = run.Session("cli-session", 0, tmp_path)
    step = "tables-hurwitz"
    proc = session.spawn("run", workloads.cli_argv(step, tmp_path / "c", 0))
    good = workloads.cli_checks(step, proc.returncode, proc.stdout, session.digests)
    bad = workloads.cli_checks(step, proc.returncode, proc.stdout,
                               dict(session.digests, **{step: "0" * 64}))
    assert run.tally(good) == (2, [])
    assert run.tally(bad) == (2, [f"{step}.digest"])


def test_forced_false_verdict_is_a_failure(monkeypatch):
    from hopfq import kp
    monkeypatch.setattr(kp, "kp_equation_check", lambda tau: False)
    attempted, failed = run.tally(workloads.run_kp(**SMALL["run_kp"]))
    assert attempted == workloads.expected_checks("kp-w8")
    assert failed == [f"kp.{label}.kp_equation" for label in ("none", "t0", "t0t1")]


def test_broken_reports_are_failures():
    report = {"failures": [{"n": 0, "m": 1}], "pairs_checked": 21,
              "weight_bound": 10}
    assert run.tally(workloads.commute_checks(report, 5, 10))[1] == ["commute.failures"]
    verify = json.dumps({"eigen": {"passed": False, "detail": {}}}).encode()
    checks = workloads.cli_checks("verify-eigen", 0, verify, {})
    assert run.tally(checks)[1] == ["verify-eigen.passed"]
    checks = workloads.cli_checks("verify-eigen", 1, b"not json", {})
    assert run.tally(checks)[1] == ["verify-eigen.exit", "verify-eigen.passed"]
    checks = workloads.cli_checks("hamiltonian-warm", 0, b"x", {}, cold_stdout=b"y")
    assert "hamiltonian-warm.equals_cold" in run.tally(checks)[1]


def test_cli_order_is_seeded_and_keeps_cold_first():
    for seed in range(20):
        order = workloads.cli_order(seed)
        assert sorted(order) == sorted(workloads.CLI_STEPS)
        assert order.index("hamiltonian-cold") < order.index("hamiltonian-warm")
        assert order == workloads.cli_order(seed)
    assert len({tuple(workloads.cli_order(s)) for s in range(20)}) > 1


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    empty = {"calls": {}, "incl": {}, "self": {}, "work": {}}
    names = [*run.layer_metrics(empty, {}), "process.cpu_s", "trace.overhead_ratio",
             *run.context_metrics(0.0, run.src_lines())]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, run.unit_of(n)) for n in names]


# -- tracer -----------------------------------------------------------------


def test_traced_counts_repeat_exactly(kp_runs, commute_runs):
    for first, second in (kp_runs, commute_runs):
        assert first["checks"] == second["checks"]
        assert counts(first["trace"]) == counts(second["trace"])


def test_predicted_zeros(kp_runs, commute_runs):
    kp_counts = counts(kp_runs[0]["trace"])
    assert kp_counts["fock.apply.calls"] == 0
    assert kp_counts["kp.hirota_apply.calls"] > 0
    commute_counts = counts(commute_runs[0]["trace"])
    assert commute_counts["fock.apply.calls"] > 0
    assert all(v == 0 for k, v in commute_counts.items() if k.startswith("kp."))


def test_self_times_add_up_to_traced_time(kp_runs, commute_runs):
    for result in (kp_runs[0], commute_runs[0]):
        self_total = sum(result["trace"]["self"].values())
        assert self_total == pytest.approx(result["root_s"], rel=1e-9, abs=1e-9)
        for key, incl in result["trace"]["incl"].items():
            assert 0 <= result["trace"]["self"][key] <= incl + 1e-12


def test_uninstall_restores_the_package():
    from hopfq import cli, fock, scalars
    before = (scalars.ExactScalar.__mul__, fock.NormalOrderedOperator.apply,
              cli.disk_potential)
    tracer = Tracer()
    tracer.install()
    assert cli.disk_potential is not before[2]
    tracer.uninstall()
    assert (scalars.ExactScalar.__mul__, fock.NormalOrderedOperator.apply,
            cli.disk_potential) == before
