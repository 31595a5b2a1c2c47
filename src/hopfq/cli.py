"""Command-line interface: operator rendering, verification sweeps, tables.

Subcommands:
  hamiltonian  render a quantum (or naively ordered) Hamiltonian
  verify       run a verification suite, exit 0 on pass / 1 on failure
  tables       emit amplitude / degree-slice / factorization-count tables

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 SIGPIPE.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import sys
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import __version__
from .disk import (disk_potential, hurwitz_distributions,
                   hurwitz_match_report, integer_hbar_check,
                   p1_partition_function, schroedinger_check,
                   verify_printed_expansion)
from .fock import naive_hamiltonian
from .hamiltonians import (hamiltonian, verify_commutativity,
                           verify_eigenvectors)
from .kp import (kp_bilinear_check, kp_equation_check, kp_hierarchy_check,
                 tau_from_disk)
from .partitions import partitions_of, render as render_partition


def _parse_rational(text):
    """A rational option value, or None for 'symbolic'.  A value refused
    here is a usage error: argparse prints the reason and exits 2."""
    if text is None or text == "symbolic":
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError:
        reason = "zero denominator"
    except ValueError:
        reason = "not an integer, fraction or decimal"
    raise argparse.ArgumentTypeError(
        f"invalid rational value {text!r}: {reason}")


def _eps_value(args):
    """Nonzero rational eps from --eps, or the exact square root of a
    positive --hbar."""
    if args.eps is not None:
        if not args.eps:
            raise ValueError("--eps must be nonzero")
        return args.eps
    if args.hbar is not None:
        if args.hbar <= 0:
            raise ValueError("--hbar must be positive")
        num, den = args.hbar.numerator, args.hbar.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise ValueError("--hbar must be the square of a rational: "
                             "eps = sqrt(hbar) must be rational")
        return Fraction(rn, rd)
    return None


def default_cache_dir():
    env = os.environ.get("HOPFQ_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hopfq"


# ---------------------------------------------------------------------------
# stdout cache


def hamiltonian_stdout(n, W, fmt, naive=False):
    """What `hamiltonian` prints for (n, W) in format `text` or `json`."""
    op = (naive_hamiltonian if naive else hamiltonian)(n, W)
    if fmt == "json":
        return json.dumps({"n": n, "W": W, "naive": naive,
                           "terms": op.to_json()}, indent=2) + "\n"
    return op.render() + "\n"


def _sha256():
    """CPython's built-in sha256 (`_sha2` from 3.12, `_sha256` before), so
    that one digest does not map OpenSSL, about 3.5 MB resident."""
    for name in ("_sha2", "_sha256", "hashlib"):
        try:
            return importlib.import_module(name).sha256()
        except ImportError:
            pass


@lru_cache(maxsize=None)
def _source_digest():
    """sha256 over the package's own source files: any edit to the code that
    renders a Hamiltonian changes it, so it keys the cache."""
    digest = _sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _current_payload(path):
    """The cache file's contents if the current sources wrote it, else None."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (isinstance(payload, dict)
            and payload.get("source_sha256") == _source_digest()):
        return payload
    return None


def _well_formed(payload):
    """Whether a payload holds what `cached_stdout` writes: n an int >= -1,
    W an int >= 0, a `hamiltonian` format and a str stdout."""
    n, W = payload.get("n"), payload.get("W")
    return (type(n) is int and type(W) is int and n >= -1 and W >= 0
            and payload.get("format") in ("text", "json")
            and type(payload.get("stdout")) is str)


def cached_stdout(n, W, fmt, cache_dir):
    """`hamiltonian_stdout(n, W, fmt)`, read back unless cache_dir is None
    from an entry that the current sources wrote for the same (n, W, fmt)
    and that is well formed.  Any other file is regenerated and replaced
    atomically.  An unwritable --cache-dir is a usage error."""
    if cache_dir is None:
        return hamiltonian_stdout(n, W, fmt)
    path = Path(cache_dir) / f"hamiltonian_{n}_{W}_{fmt}.json"
    payload = _current_payload(path)
    if (payload and _well_formed(payload)
            and (payload["n"], payload["W"], payload["format"]) == (n, W, fmt)):
        return payload["stdout"]
    stdout = hamiltonian_stdout(n, W, fmt)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps({"n": n, "W": W, "format": fmt,
                                   "source_sha256": _source_digest(),
                                   "stdout": stdout}))
        os.replace(tmp, path)
    except OSError as ex:
        raise ValueError(f"--cache-dir {cache_dir} cannot hold the cache "
                         f"({ex.strerror or ex})") from None
    finally:
        with suppress(OSError):
            tmp.unlink()  # a failed write leaves no partial file behind
    return stdout


def _verify_cache_sample(cache_dir, rng):
    """Compare one random cache entry written by the current sources with a
    fresh render, byte for byte.  Returns (passed, detail); passed is None,
    and the detail gives the reason, when no such entry exists to check,
    and False with a reason when the entry is malformed."""
    files = sorted(Path(cache_dir).glob("hamiltonian_*.json"))
    current = [(path, p) for path in files if (p := _current_payload(path))]
    if not current:
        return None, "no cached operator written by the current sources"
    path, payload = rng.choice(current)
    if not _well_formed(payload):
        return False, {"reason": f"malformed cache entry {path.name}"}
    fresh = hamiltonian_stdout(payload["n"], payload["W"], payload["format"])
    return payload["stdout"] == fresh, {}


# ---------------------------------------------------------------------------
# subcommands


def cmd_hamiltonian(args):
    if args.naive:
        stdout = hamiltonian_stdout(args.n, args.weight, args.format, True)
    else:
        stdout = cached_stdout(args.n, args.weight, args.format,
                               None if args.no_cache else args.cache_dir)
    sys.stdout.write(stdout)
    return 0


def _suite_tasks(args):
    """(name, callable) pairs for the requested verification suite."""
    N, K, W = (getattr(args, name, None) for name in ("N", "K", "weight"))

    def commute():
        rep = verify_commutativity(N, W)
        return not rep["failures"], rep

    def eigen():
        rep = verify_eigenvectors(K, W)
        return not rep["failures"], rep

    def disk():
        issues = []
        pot = disk_potential(W, K)
        ok = verify_printed_expansion(issues)
        ok = ok and integer_hbar_check(pot)
        ok = ok and schroedinger_check(pot)
        return ok, {"printed_expansion_issues": [str(i) for i in issues],
                    "effective_bounds": {"weight": W, "K": K}}

    def hirota():
        # a check returns None when the tau is too short for it to test
        # anything; it is reported as "skipped"
        pot = disk_potential(W, 1)  # only t0 and t1 are ever active
        report = {"effective_bounds": {"weight": W},
                  "hierarchy_y1_counts": {}}
        verdicts = []
        for label, active in [("none", set()), ("t0", {0}), ("t0t1", {0, 1})]:
            tau = tau_from_disk(pot, active, 0, Fraction(1))
            hier = kp_hierarchy_check(tau, y_order=1)
            report["hierarchy_y1_counts"][label] = {
                key: hier[key] for key in ("checked", "skipped")}
            hier_ok = not hier["failures"]
            if hier_ok and not hier["checked"]:
                hier_ok = None
            # the y3 and y4 residuals decide the printed pair; without the
            # proportionality, the printed equations are applied directly
            printed = hier["printed"]
            checks = {f"bilinear{which}": printed[which] if which in printed
                      else kp_bilinear_check(which, tau) for which in (1, 2)}
            checks["kp_equation"] = kp_equation_check(tau)
            checks["hierarchy_y1"] = hier_ok
            verdicts += checks.values()
            report[label] = {name: "skipped" if ok is None else ok
                             for name, ok in checks.items()}
        if all(ok is None for ok in verdicts):
            return None, ("no Hirota check is complete to any weight at "
                          f"W = {W}")
        return all(ok is not False for ok in verdicts), report

    def fermion():
        from .fermion import (FermionVector, dressed_fermion_check,
                              power_sum_states, state_for_partition_label)
        from .partitions import partitions_upto
        from .schur import character
        # the boson-fermion map sends |lambda> to s_lambda exactly when
        # alpha_{-mu} |0> = sum_lambda chi^lambda(mu) |lambda> for every mu
        labels = {lam: state_for_partition_label(lam)
                  for lam in partitions_upto(W)}
        ok = all(vector == FermionVector({
                     labels[lam]: chi for lam in partitions_of(sum(mu))
                     if (chi := character(lam, mu))})
                 for mu, vector in power_sum_states(W).items())
        # the dressed-fermion identities run at fixed bounds, whatever W is
        energy, modes = 3, [Fraction(j, 2) for j in (-3, -1, 1, 3)]
        ok = ok and dressed_fermion_check(modes, energy)
        return ok, {"effective_bounds": {"weight": W},
                    "dressed_fermion_bounds": {"energy": energy, "k": modes}}

    def hurwitz():
        n, m = args.n if args.n is not None else 5, args.m
        rep = hurwitz_match_report(n, m)
        return not rep["mismatches"], {**rep,
                                       "effective_bounds": {"n": n, "m": m}}

    def p1():
        bounds = {"effective_bounds": {"weight": W, "K": K}}
        try:
            p1_partition_function(W, K)
            return True, bounds
        except AssertionError as ex:
            return False, {"error": str(ex), **bounds}

    table = {"commute": commute, "eigen": eigen, "disk": disk,
             "hirota": hirota, "fermion": fermion, "hurwitz": hurwitz,
             "p1": p1}
    if args.suite == "all":
        return sorted(table.items())
    return [(args.suite, table[args.suite])]


def cmd_verify(args):
    if not args.no_cache and args.cache_dir.exists() \
            and not args.cache_dir.is_dir():
        raise ValueError(f"--cache-dir {args.cache_dir} is not a directory")
    rng = random.Random(args.seed)
    tasks = _suite_tasks(args)
    results = {name: fn() for name, fn in tasks}
    if not args.no_cache:
        results["cache_sample"] = _verify_cache_sample(args.cache_dir, rng)
    report = {name: {"skipped": True, "reason": detail} if ok is None
              else {"passed": ok, "detail": detail}
              for name, (ok, detail) in results.items()}
    print(json.dumps(report, indent=2, sort_keys=True, default=str))
    return 0 if all(ok is not False for ok, _ in results.values()) else 1


# ---------------------------------------------------------------------------
# tables


# LaTeX's special characters, escaped for text mode
_LATEX = str.maketrans({"\\": r"\textbackslash{}", "^": r"\^{}", "~": r"\~{}",
                        **{c: "\\" + c for c in "#$%&_{}"}})


def _emit_rows(header, rows, fmt):
    if fmt == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows], indent=2))
    elif fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
    elif fmt == "latex":
        # a braced cell cannot open with the [ that \\ reads as a length
        lines = [" & ".join("{" + str(x).translate(_LATEX) + "}" for x in row)
                 for row in [header] + rows]
        print("\\begin{tabular}{" + "l" * len(header) + "}")
        print(lines[0] + " \\\\ \\hline")
        for line in lines[1:]:
            print(line + " \\\\")
        print("\\end{tabular}")
    else:
        widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows])
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))


def cmd_tables(args):
    fmt = args.format
    if args.what == "disk":
        pot = disk_potential(args.weight, args.K)
        rows = []
        for n in range(args.weight + 1):
            for lam in partitions_of(n):
                amp = pot.amplitudes[lam]
                rows.append([render_partition(lam), amp.prefactor.render()]
                            + [e.render() for e in amp.exponents])
        _emit_rows(["partition", "prefactor"]
                   + [f"t{k}_exponent" for k in range(args.K + 1)], rows, fmt)
    elif args.what == "p1":
        eps_val = _eps_value(args)
        slices = p1_partition_function(args.degree, args.K)
        rows = []
        for d in sorted(slices):
            for lam, coeff, exponents in slices[d]:
                c = coeff.substitute(eps=eps_val)
                rows.append([d, render_partition(lam), c.render()]
                            + [e.substitute(eps=eps_val, u0=args.u0).render()
                               for e in exponents])
        _emit_rows(["degree", "partition", "coefficient"]
                   + [f"t{k}_exponent" for k in range(args.K + 1)], rows, fmt)
    elif args.what == "hurwitz":
        n = args.n if args.n is not None else 3
        rows = []
        for m, counts in enumerate(hurwitz_distributions(n, args.m)):
            for mu in partitions_of(n):
                rows.append([n, m, render_partition(mu),
                             str(counts.get(mu, 0))])
        _emit_rows(["n", "m", "cycle_type", "count_over_nfact"], rows, fmt)
    return 0


# ---------------------------------------------------------------------------


# the bounds each verify suite and each table reads; any other option is
# refused with exit 2
SUITE_BOUNDS = {"commute": ("N", "weight"), "eigen": ("K", "weight"),
                "disk": ("K", "weight"), "hirota": ("weight",),
                "fermion": ("weight",), "hurwitz": ("n", "m"),
                "p1": ("K", "weight"), "all": ("N", "K", "weight", "n", "m")}
TABLE_BOUNDS = {"disk": ("weight", "K"), "p1": ("degree", "K", "u0"),
                "hurwitz": ("n", "m")}

# the least value of every integer bound; `hamiltonian --n` may also be -1
LEAST = {"N": 0, "K": 0, "weight": 0, "degree": 0, "n": 1, "m": 0}


def _check_bounds(args):
    least = {**LEAST, "n": -1} if args.command == "hamiltonian" else LEAST
    for name, k in least.items():
        value = getattr(args, name, None)
        if value is not None and value < k:
            raise ValueError(f"--{name} must be >= {k}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfq",
        description="Exact quantized-Hopf-hierarchy engine: operators, "
                    "verification sweeps, and tables.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags and add_argument keywords of every option a command may read
    options = {
        "weight": (["--weight"], dict(type=int, default=8,
                                      help="truncation weight W (default 8)")),
        "N": (["--N"], dict(type=int, default=5,
                            help="largest Hamiltonian index for sweeps")),
        "K": (["--K"], dict(type=int, default=3,
                            help="number of t-slots / eigenvalue index bound")),
        "n": (["--n"], dict(type=int, default=None,
                            help="symmetric-group degree")),
        "m": (["--m"], dict(type=int, default=6,
                            help="transposition-count bound")),
        "degree": (["--degree", "--weight"],
                   dict(dest="degree", type=int, default=8,
                        help="maximal stable-map degree (default 8)")),
        "u0": (["--u0"], dict(type=_parse_rational, default=None,
                              help="rational value for u0 ('symbolic' to "
                                   "keep)")),
        "format": (["--format"], dict(choices=["text", "json", "csv", "latex"],
                                      default="text")),
        "cache-dir": (["--cache-dir"], dict(type=Path,
                                            default=default_cache_dir())),
        "no-cache": (["--no-cache"], dict(action="store_true")),
        "seed": (["--seed"], dict(type=int, default=0,
                                  help="seed of the cache spot-check")),
    }

    def add(p, names, **changes):
        for name in names:
            flags, kwargs = options[name]
            p.add_argument(*flags, **{**kwargs, **changes.get(name, {})})

    ph = sub.add_parser("hamiltonian", help="render a Hamiltonian operator")
    ph.add_argument("--n", type=int, required=True)
    ph.add_argument("--naive", action="store_true",
                    help="naive symbol ordering (no corrections)")
    add(ph, ["weight", "format", "cache-dir", "no-cache"],
        format={"choices": ["text", "json"]})
    ph.set_defaults(func=cmd_hamiltonian, subparser=ph)

    pv = sub.add_parser("verify", help="run a verification suite")
    suites = pv.add_subparsers(dest="suite", required=True)
    for suite, bounds in SUITE_BOUNDS.items():
        ps = suites.add_parser(suite)
        add(ps, bounds + ("cache-dir", "seed", "no-cache"))
        ps.set_defaults(func=cmd_verify, subparser=ps)

    pt = sub.add_parser("tables", help="emit a table")
    kinds = pt.add_subparsers(dest="what", required=True)
    for what, bounds in TABLE_BOUNDS.items():
        pk = kinds.add_parser(what)
        add(pk, bounds + ("format",), m={"default": 4})
        if what == "p1":
            group = pk.add_mutually_exclusive_group()
            group.add_argument("--hbar", type=_parse_rational, default=None,
                               help="rational value for hbar")
            group.add_argument("--eps", type=_parse_rational, default=None,
                               help="rational value for eps")
        pk.set_defaults(func=cmd_tables, subparser=pk)
    return parser


def main(argv=None):
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        # refused through the chosen command, so its usage shows its options
        args.subparser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        _check_bounds(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone; on devnull the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
