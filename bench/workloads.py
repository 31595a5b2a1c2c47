"""Workload bodies, the CLI session, and the correctness checks of each.

A check is one benchmark-side verdict, a `(name, passed)` pair.  The bounds
below are those of the acceptance criteria and of `hopfq verify` suites at
values it does not clamp; none depends on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("commute-w10", "kp-w8", "cli-session")

KP_ACTIVE = ((), (0,), (0, 1))
KP_FACTORS = ((0, 0, 1, 0), (0, 0, 0, 1))

# Every command of the CLI session.  `{cache}` is a fresh directory per
# repetition.  Each `verify` runs one suite at bounds the suite does not
# clamp, and also gets `--no-cache --seed <workload seed>`.
CLI_STEPS = {
    "hamiltonian-cold": ["hamiltonian", "--n", "5", "--weight", "12",
                         "--cache-dir", "{cache}"],
    "hamiltonian-warm": ["hamiltonian", "--n", "5", "--weight", "12",
                         "--cache-dir", "{cache}"],
    "verify-commute": ["verify", "commute", "--N", "5", "--weight", "8"],
    "verify-eigen": ["verify", "eigen", "--K", "5", "--weight", "8"],
    "verify-hirota": ["verify", "hirota", "--weight", "8"],
    "verify-disk": ["verify", "disk", "--K", "3", "--weight", "6"],
    "verify-fermion": ["verify", "fermion", "--weight", "6"],
    "verify-p1": ["verify", "p1", "--K", "3", "--weight", "4"],
    "verify-hurwitz": ["verify", "hurwitz", "--n", "5", "--m", "6"],
    "tables-disk": ["tables", "disk", "--weight", "6", "--K", "2"],
    "tables-p1": ["tables", "p1", "--degree", "4", "--K", "2", "--u0", "0",
                  "--hbar", "1", "--format", "json"],
    "tables-hurwitz": ["tables", "hurwitz", "--n", "5", "--m", "6",
                       "--format", "csv"],
}


def cli_argv(step, cache_dir, seed):
    argv = [a.replace("{cache}", str(cache_dir)) for a in CLI_STEPS[step]]
    if argv[0] == "verify":
        argv += ["--no-cache", "--seed", str(seed)]
    return argv


def cli_order(seed):
    """The session's command order: the seed shuffles the steps, and the
    cold `hamiltonian` step always precedes the warm one."""
    order = list(CLI_STEPS)
    random.Random(seed).shuffle(order)
    cold, warm = order.index("hamiltonian-cold"), order.index("hamiltonian-warm")
    if cold > warm:
        order[cold], order[warm] = order[warm], order[cold]
    return order


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# checks


def commute_checks(report, N, W):
    return [("commute.failures", report["failures"] == []),
            ("commute.pairs_checked", report["pairs_checked"] == (N + 2) * (N + 1) // 2),
            ("commute.weight_bound", report["weight_bound"] == W)]


def kp_checks(label, bilinear1, bilinear2, hierarchy, kp_equation):
    return [(f"kp.{label}.bilinear1", bilinear1 is True),
            (f"kp.{label}.bilinear2", bilinear2 is True),
            (f"kp.{label}.hierarchy",
             hierarchy["failures"] == [] and hierarchy["checked"] > 0),
            (f"kp.{label}.factors",
             all(f in hierarchy["factors"] for f in KP_FACTORS)),
            (f"kp.{label}.kp_equation", kp_equation is True)]


def cli_checks(step, returncode, stdout, digests, cold_stdout=None):
    """Verdicts for one CLI command: its exit code, then either its JSON
    report (every suite passed) or its stdout digest."""
    checks = [(f"{step}.exit", returncode == 0)]
    if step.startswith("verify-"):
        try:
            report = json.loads(stdout)
        except ValueError:
            report = None
        ok = (isinstance(report, dict) and step[len("verify-"):] in report
              and all(s.get("passed") is True for s in report.values()
                      if isinstance(s, dict)))
        checks.append((f"{step}.passed", ok))
    else:
        checks.append((f"{step}.digest", sha256(stdout) == digests.get(step)))
    if step == "hamiltonian-warm":
        checks.append((f"{step}.equals_cold", stdout == cold_stdout))
    return checks


def expected_checks(workload):
    """How many checks one repetition makes, so that a process that dies
    before reporting counts all of its checks as failed."""
    if workload == "commute-w10":
        return 3
    if workload == "kp-w8":
        return 5 * len(KP_ACTIVE)
    return 2 * len(CLI_STEPS) + 1


# ---------------------------------------------------------------------------
# in-process bodies (run inside a fresh interpreter by worker.py)


def run_commute(N=5, W=10):
    from hopfq import hamiltonians
    ops = hamiltonians.hamiltonian_generating_coefficients(N, W)
    report = hamiltonians.verify_commutativity(N, W, ops)
    return commute_checks(report, N, W)


def run_kp(W=8, K=1, y_order=2, y_vars=4):
    from hopfq import disk, kp
    pot = disk.disk_potential(W, K)
    checks = []
    for active in KP_ACTIVE:
        label = "t" + "t".join(map(str, active)) if active else "none"
        tau = kp.tau_from_disk(pot, set(active), 0, Fraction(1))
        checks += kp_checks(
            label, kp.kp_bilinear_check(1, tau), kp.kp_bilinear_check(2, tau),
            kp.kp_hierarchy_check(tau, y_order=y_order, y_vars=y_vars),
            kp.kp_equation_check(tau))
    return checks
