"""Every function in `src/hopfq` is run by the `hopfq` CLI, or is named
below with the reason it stays: an oracle an acceptance criterion imports,
a failure report that a passing run never renders, a dunder, or a name
the benchmark harness in `bench/` reads.

The commands run in a fresh interpreter: the package memoises with
`lru_cache`, and a cache hit never enters the function, so in this process
the result would depend on which tests ran first.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hopfq

PACKAGE = Path(hopfq.__file__).parent

CRITERION = "acceptance-criterion oracle, or a part of one"
FAILURE = "failure report, rendered only when a check fails"
DUNDER = "dunder"
BENCH = "named by bench/"

ALLOWED = {
    "scalars.ExactScalar.__rsub__": DUNDER,
    "scalars.ExactScalar.__repr__": DUNDER,
    "partitions.frobenius": CRITERION,
    "partitions.b_sign_exponent": CRITERION,
    "partitions.syt_count": CRITERION,
    "fock.FockPolynomial.is_homogeneous": CRITERION,
    "fock.FockPolynomial.coefficient": CRITERION,
    "fock.FockPolynomial.sorted_terms": FAILURE,
    "fock.FockPolynomial.render": FAILURE,
    "fock.FockPolynomial.__repr__": DUNDER,
    "fock.NormalOrderedOperator.identity": CRITERION,
    "fock.NormalOrderedOperator.term": CRITERION,
    "fock.NormalOrderedOperator.coefficient": CRITERION,
    "fock.NormalOrderedOperator.restrict_weight": CRITERION,
    "fock.NormalOrderedOperator.apply": BENCH,
    "fock.NormalOrderedOperator.compose": CRITERION,
    "fock.NormalOrderedOperator.commutator": CRITERION,
    "fock.NormalOrderedOperator.__repr__": DUNDER,
    "schur.verify_transpose_sign": CRITERION,
    "schur.expand_in_schur_basis": CRITERION,
    "schur.power_of_q1_expansion": CRITERION,
    "hamiltonians.vacuum_constant": CRITERION,
    "hamiltonians._frobenius_shifts": CRITERION,
    "hamiltonians._eigenvalue": CRITERION,
    "hamiltonians.eigenvalue_closed_form": CRITERION,
    "hamiltonians.eigenvalue_frobenius_form": CRITERION,
    "hamiltonians.exponential_frobenius_form": CRITERION,
    "hamiltonians._matrix_failures": FAILURE,
    "kp.kp_bilinear_check": CRITERION,
    "kp.Laurent.render": FAILURE,
    "kp.TruncatedTau.max_residual_term": FAILURE,
    "kp.TruncatedTau.__eq__": DUNDER,
    "fermion.WedgeState.energy": CRITERION,
    "fermion.state_of_partition": CRITERION,
    "fermion.boson_fermion_map": CRITERION,
    "fermion.diagonal_operator_eigenvalue": CRITERION,
    "fermion.fermionic_hamiltonian_eigenvalue_series": CRITERION,
}

# Every subcommand, suite, table and format, at small bounds.  The two
# cached `hamiltonian` runs write one entry per format, and `verify all`
# samples one of them.
COMMANDS = [
    ["hamiltonian", "--n", "2", "--weight", "4", "--cache-dir", "{cache}"],
    ["hamiltonian", "--n", "2", "--weight", "4", "--cache-dir", "{cache}",
     "--format", "json"],
    ["hamiltonian", "--n", "1", "--weight", "3", "--naive", "--no-cache"],
    ["verify", "all", "--N", "2", "--K", "2", "--weight", "4", "--n", "3",
     "--m", "2", "--cache-dir", "{cache}"],
    ["tables", "disk", "--weight", "3", "--K", "1", "--format", "latex"],
    ["tables", "p1", "--degree", "2", "--K", "1", "--u0", "0", "--hbar",
     "4", "--format", "csv"],
    ["tables", "p1", "--degree", "2", "--K", "1", "--u0", "symbolic",
     "--eps", "2", "--format", "json"],
    ["tables", "hurwitz", "--n", "3", "--m", "2"],
]

DRIVER = r"""
import contextlib, inspect, io, json, sys, tempfile
from pathlib import Path
import hopfq.cli
package = str(Path(hopfq.cli.__file__).parent)
reached = set()

def hook(frame, event, arg):
    code = frame.f_code
    # functions only: no class or module body, lambda or comprehension
    if (event == "call" and code.co_filename.startswith(package)
            and code.co_flags & inspect.CO_OPTIMIZED
            and not code.co_name.startswith("<")):
        reached.add((Path(code.co_filename).stem, code.co_firstlineno))

codes = []
with tempfile.TemporaryDirectory() as cache:
    sys.setprofile(hook)
    for argv in json.loads(sys.argv[1]):
        argv = [a.replace("{cache}", cache) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(hopfq.cli.main(argv))
    sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def defined_functions():
    """{(module, first line of the code object): qualified name} over every
    function and method in the package, nested ones included; the first
    line of a decorated function's code object is its first decorator's."""
    names = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                name = f"{prefix}{child.name}"
                names[(module, first)] = name
                walk(child, module, f"{name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, f"{path.stem}.")
    return names


def test_every_function_is_reached_or_allowed():
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(COMMANDS)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(COMMANDS)
    reached = {tuple(pair) for pair in result["reached"]}
    defined = defined_functions()
    assert reached <= set(defined)  # the hook keys match the parsed ones
    unreached = {name for key, name in defined.items() if key not in reached}
    # a function nested in an allowed one is allowed with it
    stray = sorted(name for name in unreached
                   if not any(name == a or name.startswith(a + ".")
                              for a in ALLOWED))
    assert not stray, f"not run by the CLI and not allowed: {stray}"
    needless = sorted(set(ALLOWED) - unreached)
    stale = sorted(set(ALLOWED) - set(defined.values()))
    assert not stale, f"allowed names no longer defined: {stale}"
    assert not needless, f"allowed names the CLI runs: {needless}"
