"""Time-to-verdict benchmark for hopfq.

    python3 bench/run.py --workload commute-w10|kp-w8|cli-session \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition starts fresh
interpreters on the checkout's `src/`, one process at a time.

--trace 0 repeats the workload while the next repetition, taken to be as
long as the longest so far, still ends within S seconds (at least once), and
reports the end-to-end metrics `wall_s`, `setup_s` and `peak_rss_mb` as
medians over the repetitions.  --trace 1 runs the workload once plainly and
once with the outside-in tracer (tracer.py) installed in every process, and
reports the per-layer metrics.  The last line of stdout is the result
object; the line before it records the host and every repetition.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

from tracer import MODULES
from workloads import (CLI_STEPS, WORKLOADS, cli_argv, cli_checks, cli_order,
                       expected_checks)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "expected_stdout.json"

TASK = {"commute-w10": "commute", "kp-w8": "kp", "cli-session": "cli"}
# Import-only set-ups before each repetition and after the last one.
PROBE_SETS = {"commute-w10": 5, "kp-w8": 5, "cli-session": 1}
RUN_LIMIT_S = 165.0  # children still running at this point are killed


class Proc:
    """One finished child process, with its stamps and resource use."""

    def __init__(self, returncode, start, end, rusage, record_path, stdout):
        self.returncode = returncode
        self.start = start
        self.end = end
        self.rss_mb = rusage.ru_maxrss / 1024.0
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.record_path = record_path
        self.stdout = stdout
        try:
            self.record = json.loads(record_path.read_text())
        except (OSError, ValueError):
            self.record = {}

    @property
    def wall(self):
        return self.end - self.start

    @property
    def setup(self):
        ready = self.record.get("ready")
        return None if ready is None else ready - self.start


class Rep:
    """One repetition of a workload."""

    def __init__(self, procs, checks, end, extra=None):
        self.procs = procs
        self.checks = checks
        self.wall = end - procs[0].start
        setups = [p.setup for p in procs]
        self.setup = sum(setups) if None not in setups else None
        self.rss_mb = max(p.rss_mb for p in procs)
        self.cpu_s = sum(p.cpu_s for p in procs)
        self.extra = extra or {}

    def traces(self):
        return [p.record["trace"] for p in self.procs if "trace" in p.record]


class Session:
    def __init__(self, workload, seed, tmp):
        self.workload = workload
        self.task = TASK[workload]
        self.seed = seed
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        self.digests = json.loads(DIGESTS.read_text())
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["HOPFQ_CACHE_DIR"] = str(tmp / "no-cache")

    def spawn(self, mode, args=(), env=None):
        """Run worker.py to completion; stdout goes to a file in tmp."""
        self.count += 1
        record_path = self.tmp / f"proc-{self.count}.json"
        stdout_path = self.tmp / f"proc-{self.count}.out"
        argv = [sys.executable, str(BENCH / "worker.py"), self.task, mode,
                str(record_path), *args]
        with open(stdout_path, "wb") as out, \
                open(self.tmp / f"proc-{self.count}.err", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=env or self.env)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, rusage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, start, end, rusage, record_path,
                    stdout_path.read_bytes())

    # -- repetitions --------------------------------------------------------

    def rep(self, mode):
        return self._cli_rep(mode) if self.task == "cli" else self._body_rep(mode)

    def _body_rep(self, mode):
        p = self.spawn(mode)
        checks = p.record.get("checks")
        if p.returncode != 0 or checks is None:
            checks = [("process", False)] * expected_checks(self.workload)
        return Rep([p], [tuple(c) for c in checks], p.record.get("done", p.end))

    def _cli_rep(self, mode):
        cache = self.tmp / f"cache-{self.count}"
        env = dict(self.env, HOPFQ_CACHE_DIR=str(cache))
        checks, steps = [], {}
        for step in cli_order(self.seed):
            p = self.spawn(mode, cli_argv(step, cache, self.seed), env)
            cold = steps["hamiltonian-cold"].stdout if step == "hamiltonian-warm" else None
            checks += cli_checks(step, p.returncode, p.stdout, self.digests, cold)
            steps[step] = p
        cache_bytes = sum(f.stat().st_size for f in cache.rglob("*") if f.is_file()) \
            if cache.exists() else 0
        extra = {
            "cli.hamiltonian_cold_s": steps["hamiltonian-cold"].wall,
            "cli.hamiltonian_warm_s": steps["hamiltonian-warm"].wall,
            "cli.verify_s": sum(p.wall for s, p in steps.items() if s.startswith("verify-")),
            "cli.tables_s": sum(p.wall for s, p in steps.items() if s.startswith("tables-")),
            "cli.cache_bytes": cache_bytes,
            "cli.stdout_bytes": sum(len(p.stdout) for p in steps.values()),
        }
        procs = list(steps.values())  # in the order they ran
        return Rep(procs, checks, procs[-1].end, extra)

    def probe_setups(self):
        """Set-up time of import-only processes, one sample per set of as
        many processes as one repetition starts."""
        per_set = len(CLI_STEPS) if self.task == "cli" else 1
        samples = []
        for _ in range(PROBE_SETS[self.workload]):
            setups = [self.spawn("probe").setup for _ in range(per_set)]
            if None not in setups:  # an import that fails shows in the checks
                samples.append(sum(setups))
        return samples

    def keep_spans(self, rep):
        """Move the traced processes' span files to .bench_out/."""
        dest = OUT / f"trace-{self.workload}-seed{self.seed}"
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        for i, p in enumerate(rep.procs):
            spans = Path(f"{p.record_path}.spans.jsonl")
            if spans.exists():
                shutil.move(str(spans), str(dest / f"{i:02d}.jsonl"))
        return dest


# ---------------------------------------------------------------------------
# host and code context


def calibrate():
    """A fixed pure-Python Fraction loop, timed; it tracks host speed."""
    t0 = time.perf_counter()
    for k in range(1, 40001):
        Fraction(k, k + 1) * Fraction(k + 2, 3) - Fraction(1, k)
    return time.perf_counter() - t0


def src_lines():
    """Line count of every `src/hopfq/*.py`, by module name."""
    return {p.stem: len(p.read_text().splitlines())
            for p in sorted((SRC / "hopfq").glob("*.py"))}


def host_info():
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# per-layer metrics


def merge_traces(traces):
    merged = {"calls": {}, "incl": {}, "self": {}, "work": {}}
    for t in traces:
        for part in merged:
            for k, v in t[part].items():
                merged[part][k] = merged[part].get(k, 0) + v
    return merged


def layer_metrics(trace, extra):
    calls, incl, self_t, work = (trace["calls"], trace["incl"], trace["self"],
                                 trace["work"])

    def total(d, *keys):
        return sum(d.get(k, 0) for k in keys)

    def module(d, mod, prefix=""):
        return sum(v for k, v in d.items() if k.startswith(f"{mod}.{prefix}"))

    count = {
        "scalars.mul_calls": total(calls, "scalars.ExactScalar.__mul__",
                                   "scalars.ExactScalar.__rmul__"),
        "scalars.add_calls": total(calls, "scalars.ExactScalar.__add__",
                                   "scalars.ExactScalar.__radd__",
                                   "scalars.ExactScalar.__sub__"),
        "partitions.calls": module(calls, "partitions"),
        "fock.apply.calls": total(calls, "fock.NormalOrderedOperator.apply"),
        "fock.apply.pairs": work.get("fock.apply.pairs", 0),
        "fock.poly_add.calls": total(calls, "fock.FockPolynomial.__add__"),
        "fock.poly_mul.calls": total(calls, "fock.FockPolynomial.__mul__",
                                     "fock.FockPolynomial.__rmul__"),
        "hamiltonians.generate.calls": total(
            calls, "hamiltonians.hamiltonian_generating_coefficients"),
        "hamiltonians.operator_terms": work.get("hamiltonians.operator_terms", 0),
        "hamiltonians.eigenvalue.calls": module(calls, "hamiltonians", "eigenvalue_"),
        "schur.calls": module(calls, "schur"),
        "disk.calls": module(calls, "disk"),
        "kp.hirota_apply.calls": total(calls, "kp.hirota_apply"),
        "kp.tau_derivative.calls": total(calls, "kp.TruncatedTau.derivative"),
        "kp.tau_mul.calls": total(calls, "kp.TruncatedTau.__mul__"),
        "kp.tau_terms": work.get("kp.tau_terms", 0),
        "fermion.calls": module(calls, "fermion"),
        "fermion.exp_K.calls": total(calls, "fermion.exp_K"),
    }
    seconds = {
        "scalars.self_s": module(self_t, "scalars"),
        "partitions.self_s": module(self_t, "partitions"),
        "fock.apply.self_s": total(self_t, "fock.NormalOrderedOperator.apply"),
        "fock.self_s": module(self_t, "fock"),
        "hamiltonians.generate.s": total(
            incl, "hamiltonians.hamiltonian_generating_coefficients"),
        "hamiltonians.verify.self_s": total(
            self_t, "hamiltonians.verify_commutativity",
            "hamiltonians.verify_eigenvectors"),
        "schur.self_s": module(self_t, "schur"),
        "disk.potential.s": total(incl, "disk.disk_potential"),
        "disk.self_s": module(self_t, "disk"),
        "kp.hirota_apply.self_s": total(self_t, "kp.hirota_apply"),
        "kp.tau_mul.self_s": total(self_t, "kp.TruncatedTau.__mul__"),
        "kp.hierarchy.s": total(incl, "kp.kp_hierarchy_check"),
        "kp.self_s": module(self_t, "kp"),
        "fermion.self_s": module(self_t, "fermion"),
    }
    cli = {k: extra.get(k, 0) for k in (
        "cli.hamiltonian_cold_s", "cli.hamiltonian_warm_s", "cli.verify_s",
        "cli.tables_s", "cli.cache_bytes", "cli.stdout_bytes")}
    return {**count, **seconds, **cli}


UNITS = {"_s": "s", ".s": "s", "_mb": "MB", "_bytes": "bytes", "_ratio": "ratio"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "lines" if name.startswith("src.lines") else "count"


# ---------------------------------------------------------------------------


def context_metrics(calib_s, lines):
    return {"host.calib_s": calib_s, "src.lines": sum(lines.values()),
            **{f"src.lines.{m}": lines.get(m, 0) for m in MODULES}}


def tally(checks):
    """(checks attempted, names of the failed ones)."""
    return len(checks), [name for name, ok in checks if not ok]


def measure(session, seconds, trace):
    calib = [calibrate()]
    reps, setups, context = [], [], {}
    if trace:
        plain = session.rep("run")
        traced = session.rep("trace")
        reps = [plain, traced]
        metrics = layer_metrics(merge_traces(traced.traces()), traced.extra)
        metrics["process.cpu_s"] = plain.cpu_s
        metrics["trace.overhead_ratio"] = traced.wall / plain.wall
        context["spans"] = str(session.keep_spans(traced).relative_to(ROOT))
        if session.task == "cli":
            context["steps"] = cli_order(session.seed)
    else:
        # Import-only set-ups run before each repetition and after the last.
        start = time.monotonic()
        longest = 0.0
        while True:
            setups += session.probe_setups()
            t0 = time.monotonic()
            reps.append(session.rep("run"))
            now = time.monotonic()
            longest = max(longest, now - t0)
            if now + longest > min(start + seconds, session.deadline - 15):
                break
        setups += session.probe_setups()
        setups += [r.setup for r in reps if r.setup is not None]
        metrics = {
            "wall_s": statistics.median(r.wall for r in reps),
            # No sample means no process imported hopfq; every check failed.
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        }
    calib.append(calibrate())
    lines = src_lines()
    if trace:
        metrics.update(context_metrics(statistics.median(calib), lines))
    attempted, failed = tally([c for r in reps for c in r.checks])
    context.update({
        "workload": session.workload, "seed": session.seed, "trace": trace,
        "host": host_info(), "host.calib_s": calib, "src.lines": lines,
        "reps": [{"wall_s": r.wall, "setup_s": r.setup, "peak_rss_mb": r.rss_mb,
                  "cpu_s": r.cpu_s, **r.extra} for r in reps],
        "setup_samples_s": setups, "failed_checks": failed,
    })
    result = {"correct": not failed and attempted > 0, "attempted": attempted,
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    return context, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hopfq" / "__init__.py").is_file():
        print(f"error: no hopfq package under {SRC}", file=sys.stderr)
        return 2
    # Compile once, so the first repetition reads bytecode like the rest.
    if not (compileall.compile_dir(str(SRC), quiet=1)
            and compileall.compile_dir(str(BENCH), quiet=1)):
        print("error: compiling src/ or bench/ failed", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        context, result = measure(Session(args.workload, args.seed, tmp),
                                  args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
