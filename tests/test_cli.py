"""Command-line surface: subcommands, exit codes, cache, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from hopfq import __version__, cli
from hopfq.cli import _source_digest, cached_stdout, main
from hopfq.fock import NormalOrderedOperator
from hopfq.hamiltonians import hamiltonian
from hopfq.partitions import partitions_of

# sha256 of the stdout of fixed commands; any change to the rendered
# operators or tables shows here byte for byte.
PINNED_STDOUT = {
    ("hamiltonian", "--n", "3", "--weight", "6", "--format", "json",
     "--no-cache"):
        "3a3d9dd012dacc294348eddab4bfd06973c7d8397d8cb2b5ef7b79af219f2f01",
    ("tables", "disk", "--weight", "4", "--K", "2"):
        "6c8ef5aa2c06f6472700e28dbb74d389ab57ca9cfbd3fc637c426e0bab4250e4",
    ("hamiltonian", "--n", "5", "--weight", "12", "--no-cache"):
        "02cc225862b8c102095c75824040f7e4f2d36a678717ebacbd25ca0071a397b1",
    ("verify", "commute", "--N", "5", "--weight", "8", "--no-cache"):
        "99692a31ee8a1a441726ba5c9e627bb64e6f4539cf2608dcbd423eca219b5dcd",
    ("verify", "eigen", "--K", "5", "--weight", "8", "--no-cache"):
        "2d253d43b6babab20f76e3c9756cd716336d7b27eb4fa14ca67cb1939d8623af",
    ("verify", "disk", "--K", "3", "--weight", "6", "--no-cache"):
        "ac2a47be0cd7176ed9029bdbdfea25677e4d1943dc22c2484c214c69a7c1cfee",
    ("verify", "hirota", "--weight", "8", "--no-cache", "--seed", "1"):
        "6fc9663a582f04f0d6576b96b815edfad5a3b28ae006e527d28f67f03c5c342e",
    # kp_equation is skipped at W = 5 and checked from W = 6
    ("verify", "hirota", "--weight", "5", "--no-cache", "--seed", "1"):
        "99ec63b884593aefc95c47bcd6308470333a57c0a8eed7fc65bdef7594e19573",
    ("verify", "hirota", "--weight", "6", "--no-cache", "--seed", "1"):
        "5c038ce66902758e40510f9979a1f7442c1a51caa6c58887eb6620b6f2072c7d",
    ("verify", "hirota", "--weight", "10", "--no-cache", "--seed", "1"):
        "d4ac502bdb37f6185f0308d5192dc2d0f9ab00fe5d74b7761dfcb6f224b3541e",
    ("verify", "fermion", "--weight", "6", "--no-cache"):
        "2d840075755ca06c84f865c034542708ca9ca9d9d2076ad36fbddd977cc703b9",
    ("verify", "p1", "--K", "3", "--weight", "6", "--no-cache"):
        "78af08d3f8dd1a564fde4de34185a4b96af19c6c1248baca1534b24879a31a72",
    ("tables", "p1", "--degree", "4", "--K", "2", "--u0", "0", "--hbar", "1",
     "--format", "json"):
        "6ff149705c85a258f3df1a7336d7d61bd47091e60032c00895aec859aae9be47",
}


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_hamiltonian_minus_one(capsys):
    code, out = run(["hamiltonian", "--n", "-1", "--weight", "0",
                     "--no-cache"], capsys)
    assert code == 0
    assert out.strip() == "(1 * u0^1) Id"


def test_hamiltonian_constant_correction(capsys):
    code, out = run(["hamiltonian", "--n", "0", "--weight", "4",
                     "--no-cache"], capsys)
    assert code == 0
    assert "-1/24 * eps^2" in out


def test_naive_has_no_corrections(capsys):
    code, out = run(["hamiltonian", "--n", "2", "--naive", "--weight", "4",
                     "--no-cache"], capsys)
    assert code == 0
    assert "eps" not in out


def test_invalid_index_is_usage_error(capsys):
    code, _ = run(["hamiltonian", "--n", "-2", "--weight", "2",
                   "--no-cache"], capsys)
    assert code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_disk(capsys):
    code, out = run(["verify", "disk", "--K", "2", "--no-cache"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["disk"]["passed"] is True


def test_verify_hurwitz(capsys):
    code, out = run(["verify", "hurwitz", "--n", "4", "--m", "4",
                     "--no-cache"], capsys)
    assert code == 0


def test_verify_commute_small(capsys):
    code, out = run(["verify", "commute", "--N", "2", "--weight", "5",
                     "--no-cache"], capsys)
    assert code == 0
    assert json.loads(out)["commute"]["passed"] is True


def test_verify_all_parallel_is_deterministic(capsys):
    args = ["verify", "all", "--N", "2", "--K", "2", "--weight", "5",
            "--no-cache"]
    code1, out1 = run(args, capsys)
    code2, out2 = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_reports_the_bounds_it_ran(capsys):
    code, out = run(["verify", "eigen", "--K", "1", "--weight", "9",
                     "--no-cache"], capsys)
    assert code == 0
    eigen = json.loads(out)["eigen"]
    assert eigen["passed"] is True
    assert eigen["detail"]["weight_bound"] == 9
    assert eigen["detail"]["basis_dims"][9] == 30
    code, out = run(["verify", "fermion", "--weight", "8", "--no-cache"],
                    capsys)
    assert code == 0
    fermion = json.loads(out)["fermion"]
    assert fermion["passed"] is True
    assert fermion["detail"]["effective_bounds"] == {"weight": 8}


def test_verify_disk_honours_weight(capsys):
    code, out = run(["verify", "disk", "--K", "1", "--weight", "8",
                     "--no-cache"], capsys)
    assert code == 0
    disk = json.loads(out)["disk"]
    assert disk["passed"] is True
    assert disk["detail"]["effective_bounds"] == {"weight": 8, "K": 1}


@pytest.mark.parametrize("argv, suite, bounds", [
    (["verify", "p1", "--K", "2", "--weight", "6"], "p1",
     {"weight": 6, "K": 2}),
    (["verify", "hurwitz", "--n", "7", "--m", "7"], "hurwitz",
     {"n": 7, "m": 7}),
    (["verify", "hirota", "--weight", "9"], "hirota", {"weight": 9}),
], ids=["p1", "hurwitz", "hirota"])
def test_verify_runs_at_the_bounds_it_is_given(argv, suite, bounds, capsys):
    code, out = run(argv + ["--no-cache"], capsys)
    assert code == 0
    report = json.loads(out)[suite]
    assert report["passed"] is True
    assert report["detail"]["effective_bounds"] == bounds


def test_tables_p1_defaults_to_the_weight(capsys):
    code, out = run(["tables", "p1", "--weight", "5", "--K", "0",
                     "--format", "csv"], capsys)
    assert code == 0
    degrees = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
    assert degrees == [str(d) for d in range(6) for _ in partitions_of(d)]


@pytest.mark.parametrize("argv", [
    ["hamiltonian", "--n", "1", "--weight", "2", "--eps", "1"],
    ["hamiltonian", "--n", "1", "--weight", "2", "--u0", "0"],
    ["verify", "commute", "--N", "1", "--weight", "2", "--hbar", "1"],
    ["verify", "eigen", "--K", "1", "--weight", "2", "--u0", "1/2"],
], ids=" ".join)
def test_specialisation_flags_only_on_tables(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--no-cache"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["hamiltonian", "--n", "1", "--weight", "2", "--K", "2"],
    ["hamiltonian", "--n", "1", "--weight", "2", "--format", "csv"],
    ["verify", "hirota", "--weight", "2", "--N", "9"],
    ["verify", "hurwitz", "--n", "2", "--m", "1", "--weight", "4"],
    ["verify", "commute", "--N", "1", "--weight", "2", "--format", "json"],
    ["tables", "hurwitz", "--n", "2", "--m", "1", "--u0", "1"],
    ["tables", "disk", "--weight", "1", "--K", "1", "--no-cache"],
], ids=" ".join)
def test_options_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, refused", [
    ("verify hurwitz", "--weight 3"),
    ("tables disk", "--no-cache"),
    ("hamiltonian --n 1", "--K 2"),
])
def test_a_refused_option_prints_its_command_usage(command, refused, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command.split() + refused.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage = "usage: hopfq " + command.split(" --")[0] + " ["
    assert captured.err.startswith(usage)
    assert f"error: unrecognized arguments: {refused}" in captured.err


def test_verify_fermion_reports_the_dressed_bounds(capsys):
    code, out = run(["verify", "fermion", "--weight", "2", "--no-cache"],
                    capsys)
    assert code == 0
    detail = json.loads(out)["fermion"]["detail"]
    assert detail["effective_bounds"] == {"weight": 2}
    assert detail["dressed_fermion_bounds"] == {
        "energy": 3, "k": ["-3/2", "-1/2", "1/2", "3/2"]}


def test_verify_hirota_reports_vacuous_checks_as_skipped(capsys):
    code, out = run(["verify", "hirota", "--weight", "4", "--no-cache"],
                    capsys)
    assert code == 0
    hirota = json.loads(out)["hirota"]
    assert hirota["passed"] is True
    for label in ("none", "t0", "t0t1"):
        assert hirota["detail"][label] == {
            "bilinear1": True, "bilinear2": "skipped",
            "hierarchy_y1": True, "kp_equation": "skipped"}
    code, out = run(["verify", "hirota", "--weight", "0", "--no-cache"],
                    capsys)
    assert code == 0
    hirota = json.loads(out)["hirota"]
    assert hirota["skipped"] is True and "passed" not in hirota


def test_verify_hirota_counts_hierarchy_coefficients(capsys):
    code, out = run(["verify", "hirota", "--weight", "4", "--no-cache"],
                    capsys)
    assert code == 0
    counts = json.loads(out)["hirota"]["detail"]["hierarchy_y1_counts"]
    assert counts == {label: {"checked": 4, "skipped": 1}
                      for label in ("none", "t0", "t0t1")}


def test_printed_pair_without_the_proportionality_is_applied_directly(
        monkeypatch, capsys):
    # the y3 and y4 residuals decide the printed pair; with the y3
    # coefficient off by a factor, the hierarchy fails and bilinear 1 comes
    # from `kp_bilinear_check`
    from hopfq import kp
    coefficients = kp.generating_identity_coefficients
    calls = []

    def bilinear(which, tau):
        calls.append(which)
        return kp.kp_bilinear_check(which, tau)

    monkeypatch.setattr(cli, "kp_bilinear_check", bilinear)
    argv = ["verify", "hirota", "--weight", "6", "--no-cache"]
    code, _ = run(argv, capsys)
    assert code == 0 and calls == []

    def doubled_y3(*args):
        coeffs = dict(coefficients(*args))  # a copy: the memo is shared
        coeffs[(0, 0, 1, 0)] = coeffs[(0, 0, 1, 0)].scaled(2)
        return coeffs

    monkeypatch.setattr(kp, "generating_identity_coefficients", doubled_y3)
    code, out = run(argv, capsys)
    assert code == 1 and calls == [1, 1, 1]
    detail = json.loads(out)["hirota"]["detail"]
    for label in ("none", "t0", "t0t1"):
        assert detail[label] == {"bilinear1": True, "bilinear2": True,
                                 "hierarchy_y1": False, "kp_equation": True}


def test_hirota_builds_the_generating_identity_once(capsys):
    # the three taus share one eps, so they share one y-expansion
    from hopfq import kp
    kp.generating_identity_coefficients.cache_clear()
    code, _ = run(["verify", "hirota", "--weight", "8", "--no-cache"], capsys)
    assert code == 0
    assert kp.generating_identity_coefficients.cache_info().misses == 1


def test_tables_disk_text(capsys):
    code, out = run(["tables", "disk", "--weight", "1", "--K", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("partition")
    assert len(lines) == 3  # header + [] + [1]


def test_tables_hurwitz_csv(capsys):
    code, out = run(["tables", "hurwitz", "--n", "3", "--m", "2",
                     "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,cycle_type,count_over_nfact"
    assert "3,2,[3],1" in lines


def test_tables_p1_json(capsys):
    code, out = run(["tables", "p1", "--degree", "2", "--K", "1", "--u0", "0",
                     "--hbar", "1", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    degree2 = [r for r in rows if r["degree"] == 2]
    assert len(degree2) == 2  # partitions (2) and (1,1)


# a LaTeX escape of `cli._emit_rows`: \textbackslash{}, \^{}, \~{} or \X
LATEX_ESCAPE = re.compile(r"\\textbackslash\{\}|\\[\^~]\{\}|\\[#$%&_{}]")


def _latex_cells(line):
    """The cells of one tabular row, read back to plain text.  Each must be
    a braced group with no LaTeX special character left unescaped."""
    cells = []
    for cell in line.split(" & "):
        assert cell[0] + cell[-1] == "{}"
        text = cell[1:-1]
        assert not set(LATEX_ESCAPE.sub("", text)) & set("\\#$%&_{}^~")
        cells.append(LATEX_ESCAPE.sub(
            lambda m: "\\" if m[0][1] == "t" else m[0][1], text))
    return cells


@pytest.mark.parametrize("argv", [
    ["tables", "disk", "--weight", "3", "--K", "1"],
    ["tables", "p1", "--degree", "2", "--K", "1", "--u0", "symbolic"],
    ["tables", "hurwitz", "--n", "3", "--m", "2"]])
def test_tables_latex_escapes_and_braces_every_cell(argv, capsys):
    # headers hold _ and cells ^; a row opening with [ right after \\
    # would be read as \\[<length>]
    rows = json.loads(run(argv + ["--format", "json"], capsys)[1])
    code, out = run(argv + ["--format", "latex"], capsys)
    assert code == 0
    first, header, *body, last = out.splitlines()
    assert first == r"\begin{tabular}{" + "l" * len(rows[0]) + "}"
    assert last == r"\end{tabular}"
    assert header.endswith(r" \\ \hline")
    assert _latex_cells(header.removesuffix(r" \\ \hline")) == list(rows[0])
    assert [_latex_cells(line.removesuffix(r" \\")) for line in body] == [
        [str(v) for v in row.values()] for row in rows]


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader is gone before the first write, as under `| head -c1`;
    # 1 would claim a failed verification
    read, write = os.pipe()
    os.close(read)
    proc = subprocess.run(
        [sys.executable, "-m", "hopfq.cli", "verify", "commute", "--N", "1",
         "--weight", "2", "--no-cache"],
        stdout=write, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


# bounds under which a check would run nothing (or spurious failures)
DEGENERATE_BOUNDS = [
    ["verify", "commute", "--weight", "-1"],
    ["verify", "commute", "--N", "-1"],
    ["verify", "eigen", "--weight", "-1"],
    ["verify", "eigen", "--K", "-1"],
    ["verify", "fermion", "--weight", "-3"],
    ["verify", "hurwitz", "--n", "0"],
    ["verify", "hurwitz", "--m", "-1"],
    ["hamiltonian", "--n", "2", "--weight", "-1"],
    ["hamiltonian", "--n", "2", "--naive", "--weight", "-1"],
    ["verify", "disk", "--K", "-1"],
    ["tables", "hurwitz", "--n", "3", "--m", "-1"],
    ["tables", "p1", "--eps", "0"],
    ["tables", "p1", "--hbar", "0"],
    ["tables", "p1", "--hbar", "-1"],
]


@pytest.mark.parametrize("argv", DEGENERATE_BOUNDS, ids=" ".join)
def test_degenerate_bounds_are_refused(argv, capsys):
    # tables never reads the operator cache, so it refuses --no-cache
    code = main(argv + ([] if argv[0] == "tables" else ["--no-cache"]))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("flag, value", [
    ("--u0", "1/0"), ("--hbar", "1/0"), ("--eps", "0/0"),
])
def test_zero_denominator_is_a_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "p1", "--degree", "1", "--K", "1", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hopfq tables p1 [")
    assert f"argument {flag}: invalid" in captured.err
    assert (f"argument {flag}: invalid rational value {value!r}: "
            "zero denominator") in captured.err
    assert "_parse_rational" not in captured.err


@pytest.mark.parametrize("flag", ["--u0", "--hbar", "--eps"])
def test_a_value_that_is_not_rational_is_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "p1", "--degree", "1", "--K", "1", flag, "abc"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hopfq tables p1 [")
    assert (f"argument {flag}: invalid rational value 'abc': "
            "not an integer, fraction or decimal") in captured.err
    assert "_parse_rational" not in captured.err


def test_hbar_square_root_refusal(capsys):
    # no --eps value gives a non-square hbar, so the refusal names the reason
    code = main(["tables", "p1", "--degree", "1", "--K", "1", "--hbar", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "eps = sqrt(hbar) must be rational" in err
    assert "--eps" not in err


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
def test_stdout_is_pinned(argv, capsys):
    code, out = run(list(argv), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


# ---------------------------------------------------------------------------
# the stdout cache of `hamiltonian`

ENTRY_KEYS = {"n", "W", "format", "source_sha256", "stdout"}


def _cache_args(n, W, tmp_path, *extra):
    return ["hamiltonian", "--n", str(n), "--weight", str(W),
            "--cache-dir", str(tmp_path), *extra]


def test_operator_cache_roundtrip(tmp_path, capsys):
    args = _cache_args(1, 4, tmp_path)
    code1, out1 = run(args, capsys)
    assert code1 == 0
    # one entry per (n, W, format), written through a renamed temp file
    assert [p.name for p in tmp_path.iterdir()] == ["hamiltonian_1_4_text.json"]
    payload = json.loads((tmp_path / "hamiltonian_1_4_text.json").read_text())
    assert payload.keys() == ENTRY_KEYS
    assert payload["stdout"] == out1
    code2, out2 = run(args, capsys)
    assert code2 == 0 and out1 == out2


@pytest.mark.parametrize("n, W", [(3, 6), (-1, 0)])
def test_cache_file_is_json_dumps_of_the_payload(tmp_path, capsys, n, W):
    for fmt in ("text", "json"):
        code, out = run(_cache_args(n, W, tmp_path, "--format", fmt), capsys)
        assert code == 0
        assert out == cli.hamiltonian_stdout(n, W, fmt)
        expected = json.dumps({"n": n, "W": W, "format": fmt,
                               "source_sha256": _source_digest(),
                               "stdout": out})
        path = tmp_path / f"hamiltonian_{n}_{W}_{fmt}.json"
        assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_warm_run_builds_no_operator(tmp_path, capsys, monkeypatch, fmt):
    args = _cache_args(2, 5, tmp_path, "--format", fmt)
    code, cold = run(args, capsys)
    assert code == 0

    def refuse(*args):
        raise AssertionError("a warm run built an operator")
    monkeypatch.setattr(cli, "hamiltonian", refuse)
    monkeypatch.setattr(NormalOrderedOperator, "__init__", refuse)
    code, warm = run(args, capsys)
    assert code == 0 and warm == cold


def test_an_entry_is_served_only_for_its_own_n_w_and_format(tmp_path,
                                                           capsys):
    # current, well-formed entries copied under the name of another
    # (n, W, format) are regenerated, never printed in its place
    code, text = run(_cache_args(1, 4, tmp_path), capsys)
    code, json_out = run(_cache_args(1, 4, tmp_path, "--format", "json"),
                         capsys)
    other = run(_cache_args(2, 4, tmp_path), capsys)[1]
    text_path = tmp_path / "hamiltonian_1_4_text.json"
    json_path = tmp_path / "hamiltonian_1_4_json.json"
    json_entry = json_path.read_bytes()
    json_path.write_bytes(text_path.read_bytes())
    code, out = run(_cache_args(1, 4, tmp_path, "--format", "json"), capsys)
    assert code == 0 and out == json_out != text
    assert json_path.read_bytes() == json_entry
    text_path.write_bytes((tmp_path / "hamiltonian_2_4_text.json")
                          .read_bytes())
    code, out = run(_cache_args(1, 4, tmp_path), capsys)
    assert code == 0 and out == text != other


def test_cache_entry_from_other_sources_is_regenerated(tmp_path, capsys):
    args = _cache_args(1, 4, tmp_path)
    code, fresh = run(args, capsys)
    assert code == 0
    path = tmp_path / "hamiltonian_1_4_text.json"
    payload = json.loads(path.read_text())
    # well formed, but written by other sources, with a wrong stdout
    payload["source_sha256"] = "0" * 64
    payload["stdout"] = "(1) Id\n"
    path.write_text(json.dumps(payload))
    code, out = run(args, capsys)
    assert code == 0 and out == fresh
    assert json.loads(path.read_text())["source_sha256"] == _source_digest()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_entry_in_the_operator_format_is_ignored(tmp_path, capsys):
    # the format that held the operator's terms, from other sources
    old = tmp_path / "hamiltonian_1_4.json"
    old.write_text(json.dumps({
        "n": 1, "W": 4, "code_version": __version__,
        "source_sha256": "0" * 64,
        "terms": [{"alpha": [], "beta": [], "coeff": [[0, 0, 1, 1]]}]}))
    written = old.read_text()
    code, out = run(["verify", "hurwitz", "--n", "2", "--m", "1",
                     "--cache-dir", str(tmp_path)], capsys)
    assert code == 0 and json.loads(out)["cache_sample"]["skipped"] is True
    code, out = run(_cache_args(1, 4, tmp_path), capsys)
    assert code == 0 and out == cli.hamiltonian_stdout(1, 4, "text")
    assert old.read_text() == written
    assert (tmp_path / "hamiltonian_1_4_text.json").exists()


@pytest.mark.parametrize("argv", [argv for argv in sorted(PINNED_STDOUT)
                                  if argv[0] == "hamiltonian"])
def test_pinned_hamiltonian_stdout_through_the_cache(argv, tmp_path, capsys):
    cached = [a for a in argv if a != "--no-cache"]
    cached += ["--cache-dir", str(tmp_path)]
    for _ in ("cold", "warm"):
        code, out = run(cached, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


def test_warm_cache_read_takes_less_memory_than_the_operator(tmp_path):
    cold = cached_stdout(5, 10, "text", tmp_path)
    tracemalloc.start()
    try:
        op = hamiltonian(5, 10)
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        warm = cached_stdout(5, 10, "text", tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - size  # the read's own
    finally:
        tracemalloc.stop()
    assert warm == cold == op.render() + "\n"
    assert peak < size


def test_unusable_cache_dir_is_a_usage_error(tmp_path, capsys):
    # a file where the cache directory should be: refused, not bypassed
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["hamiltonian", "--n", "2", "--weight", "3",
                 "--cache-dir", str(blocker)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --cache-dir ")
    assert blocker.read_text() == ""


def test_verify_refuses_a_cache_dir_that_is_a_file(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    verify = ["verify", "hurwitz", "--n", "2", "--m", "1",
              "--cache-dir", str(blocker)]
    code = main(verify)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --cache-dir {blocker} is not a directory\n"
    # without the spot-check the cache is never read
    code, out = run(verify + ["--no-cache"], capsys)
    assert code == 0 and "cache_sample" not in json.loads(out)


@pytest.mark.parametrize("naive", [[], ["--naive"]], ids=["cached", "naive"])
def test_negative_weight_names_the_flag(tmp_path, capsys, naive):
    cache = tmp_path / "cache"
    code = main(_cache_args(1, -1, cache, *naive))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --weight must be >= 0\n"
    assert not cache.exists()


@pytest.mark.parametrize("command, message", [
    ("hamiltonian --n -2", "--n must be >= -1"),
    ("verify commute --N -1", "--N must be >= 0"),
    ("verify eigen --K -1", "--K must be >= 0"),
    ("verify p1 --K -1", "--K must be >= 0"),
    ("verify hurwitz --n 0", "--n must be >= 1"),
    ("verify hurwitz --m -1", "--m must be >= 0"),
    ("verify all --n 0", "--n must be >= 1"),
    ("tables disk --K -1", "--K must be >= 0"),
    ("tables disk --weight -1", "--weight must be >= 0"),
    ("tables p1 --degree -1", "--degree must be >= 0"),
    ("tables p1 --K -1", "--K must be >= 0"),
    ("tables hurwitz --n 0", "--n must be >= 1"),
])
def test_refused_bound_names_the_flag(command, message, capsys):
    argv = command.split()
    if argv[0] != "tables":
        argv.append("--no-cache")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_failed_cache_write_leaves_no_temp_file(tmp_path, capsys):
    # a directory where the cache file should be: the rename fails
    (tmp_path / "hamiltonian_1_4_text.json").mkdir()
    code = main(_cache_args(1, 4, tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --cache-dir ")
    assert not list(tmp_path.glob("*.tmp"))


def test_cache_sample_without_current_entry_is_skipped(tmp_path, capsys):
    verify = ["verify", "hurwitz", "--n", "2", "--m", "1",
              "--cache-dir", str(tmp_path)]
    code, out = run(verify, capsys)
    assert code == 0
    sample = json.loads(out)["cache_sample"]
    assert sample["skipped"] is True and sample["reason"]
    assert "passed" not in sample
    # an entry written by other sources is not checked either
    code, _ = run(_cache_args(0, 2, tmp_path), capsys)
    path = tmp_path / "hamiltonian_0_2_text.json"
    payload = json.loads(path.read_text())
    payload["source_sha256"] = "0" * 64
    path.write_text(json.dumps(payload))
    code, out = run(verify, capsys)
    assert code == 0 and json.loads(out)["cache_sample"]["skipped"] is True
    # a current entry is compared with a fresh render
    run(_cache_args(0, 2, tmp_path), capsys)
    code, out = run(verify, capsys)
    assert code == 0
    assert json.loads(out)["cache_sample"] == {"passed": True, "detail": {}}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_tampered_cache_entry_fails_the_sample(tmp_path, capsys, fmt):
    # well formed and current, but its stdout is not what the sources print
    run(_cache_args(1, 2, tmp_path, "--format", fmt), capsys)
    path = tmp_path / f"hamiltonian_1_2_{fmt}.json"
    payload = json.loads(path.read_text())
    payload["stdout"] = payload["stdout"].replace("1", "2", 1)
    assert payload["stdout"] != cli.hamiltonian_stdout(1, 2, fmt)
    path.write_text(json.dumps(payload))
    code, out = run(["verify", "hurwitz", "--n", "2", "--m", "1",
                     "--cache-dir", str(tmp_path)], capsys)
    assert code == 1
    assert json.loads(out)["cache_sample"] == {"passed": False, "detail": {}}


MISSING = object()
MALFORMED = {"str-n": ("n", "1"), "float-n": ("n", 1.0),
             "bool-n": ("n", True), "negative-n": ("n", -2),
             "str-W": ("W", "2"), "float-W": ("W", 2.0),
             "bool-W": ("W", True), "negative-W": ("W", -3),
             "unknown-format": ("format", "csv"),
             "null-stdout": ("stdout", None),
             "list-stdout": ("stdout", ["(1) Id\n"]),
             "missing-format": ("format", MISSING),
             "missing-stdout": ("stdout", MISSING)}


def _malform(path, field, value):
    """Rewrite the cache file with one field replaced (or removed, for
    MISSING), keeping its digest."""
    payload = json.loads(path.read_text())
    payload[field] = value
    if value is MISSING:
        del payload[field]
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("field, value", MALFORMED.values(), ids=MALFORMED)
def test_malformed_current_cache_entry_is_regenerated(tmp_path, capsys,
                                                       field, value):
    args = _cache_args(1, 2, tmp_path)
    code, fresh = run(args, capsys)
    path = tmp_path / "hamiltonian_1_2_text.json"
    written = path.read_text()
    _malform(path, field, value)
    code, out = run(args, capsys)
    assert code == 0 and out == fresh
    assert path.read_text() == written


@pytest.mark.parametrize("field, value", MALFORMED.values(), ids=MALFORMED)
def test_malformed_current_cache_entry_fails_the_sample(tmp_path, capsys,
                                                        field, value):
    code, _ = run(_cache_args(1, 2, tmp_path), capsys)
    _malform(tmp_path / "hamiltonian_1_2_text.json", field, value)
    code, out = run(["verify", "hurwitz", "--n", "2", "--m", "1",
                     "--cache-dir", str(tmp_path)], capsys)
    assert code == 1
    assert json.loads(out)["cache_sample"] == {
        "passed": False,
        "detail": {"reason": "malformed cache entry hamiltonian_1_2_text.json"}}
