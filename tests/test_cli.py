"""Command-line surface: subcommands, exit codes, cache, determinism."""

import hashlib
import json

import pytest

from hopfq import __version__
from hopfq.cli import main
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


def test_operator_cache_roundtrip(tmp_path, capsys):
    args = ["hamiltonian", "--n", "1", "--weight", "4",
            "--cache-dir", str(tmp_path)]
    code1, out1 = run(args, capsys)
    assert code1 == 0
    assert list(tmp_path.glob("hamiltonian_1_4.json"))
    code2, out2 = run(args, capsys)
    assert code2 == 0 and out1 == out2
    # stale version header is ignored, not an error
    path = tmp_path / "hamiltonian_1_4.json"
    payload = json.loads(path.read_text())
    payload["code_version"] = "0.0.0"
    path.write_text(json.dumps(payload))
    code3, out3 = run(args, capsys)
    assert code3 == 0 and out3 == out1


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


def test_hbar_square_root_refusal(capsys):
    code, _ = run(["tables", "p1", "--degree", "1", "--K", "1",
                   "--hbar", "2"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
def test_stdout_is_pinned(argv, capsys):
    code, out = run(list(argv), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


def test_cache_entry_from_other_sources_is_regenerated(tmp_path, capsys):
    args = ["hamiltonian", "--n", "1", "--weight", "4",
            "--cache-dir", str(tmp_path)]
    code, fresh = run(args, capsys)
    assert code == 0
    path = tmp_path / "hamiltonian_1_4.json"
    payload = json.loads(path.read_text())
    # current version header, but written by other sources, with wrong terms
    assert payload["code_version"] == __version__
    payload["source_sha256"] = "0" * 64
    payload["terms"] = payload["terms"][:1]
    path.write_text(json.dumps(payload))
    code, out = run(args, capsys)
    assert code == 0 and out == fresh
    assert json.loads(path.read_text())["source_sha256"] != "0" * 64
    # written through a temp file that is renamed into place
    assert [p.name for p in tmp_path.iterdir()] == ["hamiltonian_1_4.json"]


def test_cache_sample_without_current_entry_is_skipped(tmp_path, capsys):
    verify = ["verify", "hurwitz", "--n", "2", "--m", "1",
              "--cache-dir", str(tmp_path)]
    code, out = run(verify, capsys)
    assert code == 0
    sample = json.loads(out)["cache_sample"]
    assert sample["skipped"] is True and sample["reason"]
    assert "passed" not in sample
    # an entry written by other sources is not checked either
    code, _ = run(["hamiltonian", "--n", "0", "--weight", "2",
                   "--cache-dir", str(tmp_path)], capsys)
    path = tmp_path / "hamiltonian_0_2.json"
    payload = json.loads(path.read_text())
    payload["source_sha256"] = "0" * 64
    path.write_text(json.dumps(payload))
    code, out = run(verify, capsys)
    assert code == 0 and json.loads(out)["cache_sample"]["skipped"] is True
    # a current entry is reloaded and checked
    run(["hamiltonian", "--n", "0", "--weight", "2",
         "--cache-dir", str(tmp_path)], capsys)
    code, out = run(verify, capsys)
    assert code == 0
    assert json.loads(out)["cache_sample"] == {"passed": True, "detail": {}}
