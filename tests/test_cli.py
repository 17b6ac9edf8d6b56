import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from seaweedcoh import casimir, cli, seaweed
from seaweedcoh.chevalley import load_fixture
from seaweedcoh.cli import main
from seaweedcoh.exactlin import InvariantError

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def run_cli(args, check=True):
    proc = subprocess.run([sys.executable, "-m", "seaweedcoh"] + args,
                          capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}\n{proc.stdout}")
    return proc


def test_info_g2_example():
    proc = run_cli(["info", "--type", "G", "--rank", "2",
                    "--pi1", "1", "--pi2", ""])
    rec = json.loads(proc.stdout)
    assert rec["dims"]["s"] == 3
    assert rec["dims"]["center"] == 1
    assert rec["indecomposable"] is False
    assert [(c["type"], c["rank"]) for c in rec["components"]] == [("A", 1)]


def test_info_a2_example():
    proc = run_cli(["info", "--type", "A", "--rank", "2",
                    "--pi1", "", "--pi2", "2,1"])
    rec = json.loads(proc.stdout)
    assert rec["dims"]["s"] == 5
    assert rec["dims"]["center"] == 0
    assert rec["indecomposable"] is True


def test_info_whole_algebra_a1():
    proc = run_cli(["info", "--type", "A", "--rank", "1",
                    "--pi1", "1", "--pi2", "1"])
    rec = json.loads(proc.stdout)
    assert rec["dims"]["s"] == 3


def test_invalid_flags_exit_nonzero():
    proc = run_cli(["info", "--type", "Z", "--rank", "2"], check=False)
    assert proc.returncode != 0
    assert "usage" in proc.stderr.lower()
    proc = run_cli(["info", "--type", "A", "--rank", "0"], check=False)
    assert proc.returncode != 0
    proc = run_cli(["info"], check=False)
    assert proc.returncode != 0


def test_cohomology_a2_full_range():
    proc = run_cli(["cohomology", "--type", "A", "--rank", "2",
                    "--pi1", "", "--pi2", "1,2", "--max-degree", "5"])
    rec = json.loads(proc.stdout)
    rows = {r["q"]: r["cohomology"] for r in rec["cohomology"]}
    assert rows == {q: 0 for q in range(6)}


def test_cohomology_fixture_standalone():
    proc = run_cli(["cohomology", "--fixture", str(FIXTURES / "g2_seaweed")])
    rec = json.loads(proc.stdout)
    rows = {r["q"]: r["cohomology"] for r in rec["cohomology"]}
    assert rows[0] == 1 and rows[2] == 1 and rows[3] == 0
    assert rec["spec"]["fixture"].endswith("g2_seaweed")
    cg = {r["n"]: r["match"] for r in rec["cg"]}
    assert cg[2] and cg[3]


def test_cohomology_fixture_as_ambient():
    proc = run_cli(["cohomology", "--fixture", str(FIXTURES / "a2_table1"),
                    "--type", "A", "--rank", "2", "--pi1", "", "--pi2", "1,2",
                    "--max-degree", "5"])
    rec = json.loads(proc.stdout)
    assert all(r["cohomology"] == 0 for r in rec["cohomology"])


def test_cohomology_and_verify_share_the_degree_cap():
    # s = h of A1 has dim 1: both commands stop the cohomology and the cg
    # rows at degree 1, past a larger --max-degree
    args = ["--type", "A", "--rank", "1", "--max-degree", "3"]
    coh = json.loads(run_cli(["cohomology"] + args).stdout)
    ver = json.loads(run_cli(["verify"] + args).stdout)
    assert [r["q"] for r in coh["cohomology"]] == [0, 1]
    assert [r["n"] for r in coh["cg"]] == [0, 1]
    assert coh["cohomology"] == ver["cohomology"]
    assert coh["cg"] == ver["cg"]


def test_fixture_type_without_rank_rejected():
    proc = run_cli(["verify", "--fixture", str(FIXTURES / "a2_table1"),
                    "--type", "A", "--pi1", "1"], check=False)
    assert proc.returncode != 0
    assert "--rank" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_fixture_spec_flags_without_type_rejected():
    # without --type the fixture is the whole algebra: a spec flag would be
    # ignored, so it is refused instead
    fixture = str(FIXTURES / "a2_table1")
    for flags in (["--pi1", "1", "--rank", "2"], ["--pi2", "1,2"],
                  ["--rank", "2"]):
        for cmd in ("info", "cohomology", "verify"):
            proc = run_cli([cmd, "--fixture", fixture] + flags, check=False)
            assert proc.returncode == 1, (cmd, flags)
            assert "--type" in proc.stderr and proc.stdout == ""
            assert "Traceback" not in proc.stderr
    proc = run_cli(["info", "--fixture", fixture, "--pi1", "", "--pi2", ""])
    assert json.loads(proc.stdout)["dims"]["s"] == 8


def test_spec_of_other_root_data_exits_2():
    # a spec that does not fit the fixture's root data is an error (exit 2),
    # whether the fixture declares its type or only its root coefficients
    for cmd, fixture, flags in [
            ("info", "g2_seaweed", ["--type", "A", "--rank", "3", "--pi1", "1"]),
            ("verify", "a2_table1", ["--type", "B", "--rank", "2"])]:
        proc = run_cli([cmd, "--fixture", str(FIXTURES / fixture)] + flags,
                       check=False)
        assert proc.returncode == 2, (fixture, proc.stderr)
        assert proc.stdout == "" and proc.stderr.startswith("error: spec of")
        assert "Traceback" not in proc.stderr


def test_verify_exit_codes():
    proc = run_cli(["verify", "--type", "A", "--rank", "2",
                    "--pi1", "", "--pi2", "1,2"])
    rec = json.loads(proc.stdout)
    assert rec["ok"] is True and rec["discrepancies"] == []

    proc = run_cli(["verify", "--type", "G", "--rank", "2",
                    "--pi1", "1", "--pi2", ""])
    rec = json.loads(proc.stdout)
    assert rec["ok"] is True
    codes = {d["code"]: d["severity"] for d in rec["discrepancies"]}
    assert codes.get("quotient_cohomology_nonzero") == "informational"


def test_verify_strict_paper_escalates():
    proc = run_cli(["verify", "--type", "G", "--rank", "2",
                    "--pi1", "1", "--pi2", "", "--strict-paper"], check=False)
    assert proc.returncode == 1
    rec = json.loads(proc.stdout)
    codes = {d["code"]: d["severity"] for d in rec["discrepancies"]}
    assert codes.get("quotient_cohomology_nonzero") == "error"


def test_verify_fixture_certificate():
    proc = run_cli(["verify", "--fixture", str(FIXTURES / "a2_table1"),
                    "--type", "A", "--rank", "2", "--pi1", "", "--pi2", "1,2"])
    rec = json.loads(proc.stdout)
    assert rec["ok"]
    cert = next(c for c in rec["certificates"] if c["degree"] == 2)
    assert cert["witnesses"][0]["eigenvalue"] == "4/3"


def test_broken_fixture_load_error(tmp_path):
    bad = tmp_path / "broken"
    bad.write_text("dim 3\nbracket 1 2 : 3 1\nbracket 1 3 : 1 1\n")
    proc = run_cli(["verify", "--fixture", str(bad)], check=False)
    assert proc.returncode != 0


def test_out_of_range_cartan_index_exits_2(tmp_path):
    # a Cartan index past dim is refused on load, by every command; info
    # printed a report and verify died with an IndexError before
    bad = tmp_path / "a2_cartan_9"
    bad.write_text((FIXTURES / "a2_table1").read_text()
                   .replace("cartan 7 8", "cartan 7 9"))
    for cmd in ("info", "verify"):
        proc = run_cli([cmd, "--fixture", str(bad), "--type", "A", "--rank",
                        "2", "--pi1", "1", "--pi2", ""], check=False)
        assert proc.returncode == 2, (cmd, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr == "error: cartan or root index out of range\n"


def test_reports_deterministic():
    args = ["verify", "--type", "B", "--rank", "2", "--pi1", "1", "--pi2", "2"]
    out1 = run_cli(args).stdout
    out2 = run_cli(args).stdout
    assert out1 == out2


def test_enumerate_counts_and_roundtrip(tmp_path):
    out = tmp_path / "a2.jsonl"
    proc = run_cli(["enumerate", "--type", "A", "--max-rank", "2",
                    "--out", str(out)])
    summary = json.loads(proc.stdout)
    # brute-force union count: 3^rank of 4^rank pairs are indecomposable
    assert summary["total"] == 4 + 16
    assert summary["indecomposable"] == 3 + 9
    assert summary["rigid_verified"] == 3 + 9
    assert summary["failures"] == 0

    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 20
    rank2 = [l for l in lines if l["spec"]["rank"] == 2]
    assert sum(1 for l in rank2 if l["indecomposable"]) == 9

    # round-trip: re-verifying a record reproduces identical dims
    from seaweedcoh.cli import _ambient, verify_report
    from seaweedcoh.seaweed import SeaweedSpec, build_seaweed
    rec = rank2[5]
    spec = SeaweedSpec.make("A", 2, rec["spec"]["pi1"], rec["spec"]["pi2"])
    sw = build_seaweed(_ambient("A", 2), spec)
    again = verify_report(sw, spec, max_degree=3)
    assert again["cohomology"] == rec["cohomology"]
    assert again["dims"] == rec["dims"]


def test_enumerate_g2_decomposable_count(tmp_path):
    out = tmp_path / "g2.jsonl"
    proc = run_cli(["enumerate", "--type", "G", "--max-rank", "2",
                    "--out", str(out), "--jobs", "2"])
    summary = json.loads(proc.stdout)
    assert summary["total"] == 16
    assert summary["decomposable"] == 7
    assert summary["cg_verified"] == 7
    assert summary["failures"] == 0


def test_enumerate_max_rank_zero(tmp_path):
    # no spec to check: a summary with 0 failures would report a pass after
    # checking nothing, so the run is refused before any output is written
    out = tmp_path / "empty.jsonl"
    proc = run_cli(["enumerate", "--type", "A", "--max-rank", "0",
                    "--out", str(out)], check=False)
    assert proc.returncode != 0
    assert "no A seaweeds up to rank 0" in proc.stderr
    assert proc.stdout == "" and not out.exists()


def test_enumerate_without_specs_rejected(capsys):
    # ranks below the least valid one of the type (G2, D4, B2, C3)
    for type_label, rank in (("G", 1), ("D", 3), ("B", 1), ("C", 2)):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--type", type_label, "--max-rank", str(rank)])
        assert exc.value.code == f"no {type_label} seaweeds up to rank {rank}"
    assert capsys.readouterr().out == ""


def test_main_entrypoint_in_process(capsys):
    rc = main(["info", "--type", "A", "--rank", "1", "--pi1", "1", "--pi2", ""])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["dims"]["s"] == 2


def test_negative_max_degree_rejected(capsys):
    # a negative cap would check no degree at all and still report ok
    for argv in (["cohomology", "--type", "A", "--rank", "2"],
                 ["verify", "--type", "A", "--rank", "2"],
                 ["enumerate", "--type", "A", "--max-rank", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-degree", "-1"])
        assert exc.value.code == 2, argv
        assert "negative degree" in capsys.readouterr().err, argv


def test_enumerate_jobs_below_one_rejected(capsys, monkeypatch):
    # --jobs 0 or below used to run serially without a word; it is refused
    # while parsing, before any worker pool could start
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--type", "A", "--max-rank", "1",
                  "--jobs", jobs])
        assert exc.value.code == 2, jobs
        err = capsys.readouterr()
        assert "--jobs must be at least 1" in err.err, jobs
        assert err.out == "", jobs


def test_enumerate_keeps_going_past_a_raising_spec(tmp_path, monkeypatch,
                                                   capsys):
    # a spec that raises becomes an error record and a failure (exit 1);
    # the run goes on, and every other record is the one a clean run
    # writes, with --jobs 2 too
    from types import SimpleNamespace
    from seaweedcoh import cli
    clean = tmp_path / "clean.jsonl"
    assert main(["enumerate", "--type", "A", "--max-rank", "2",
                 "--out", str(clean)]) == 0
    clean_summary = json.loads(capsys.readouterr().out)
    specs = cli._all_specs("A", 2)
    bad = SimpleNamespace(type_label="A", rank=1, pi1=frozenset({5}),
                          pi2=frozenset())
    monkeypatch.setattr(cli, "_all_specs",
                        lambda t, r: specs[:3] + [bad] + specs[3:])
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.jsonl"
        assert main(["enumerate", "--type", "A", "--max-rank", "2",
                     "--out", str(out), "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == dict(clean_summary, total=21,
                                                failures=1)
        lines = out.read_text().splitlines()
        assert lines[:3] + lines[4:] == clean.read_text().splitlines()
        assert json.loads(lines[3]) == {
            "spec": {"type": "A", "rank": 1, "pi1": [5], "pi2": []},
            "error": "ValueError: simple-root index out of range: [5]",
            "ok": False}
        assert "simple-root index out of range" in captured.err


def test_verify_report_propagates_invariant_error(monkeypatch, capsys):
    # only a degenerate Killing form (no dual basis) leaves a report without
    # certificates; an internal invariant failing while the operators are
    # set up is an error: verify exits 2 and enumerate writes an error
    # record.  A fresh ambient, so no C(g, g) is cached on it
    def broken(g):
        raise InvariantError("forged C(g, g) failure")
    monkeypatch.setattr(casimir, "full_context", broken)
    spec = seaweed.SeaweedSpec.make("A", 2, [], [1, 2])
    sw = seaweed.build_seaweed(cli._ambient.__wrapped__("A", 2), spec)
    with pytest.raises(InvariantError, match="forged"):
        cli.verify_report(sw, spec)
    assert main(["verify", "--type", "A", "--rank", "2", "--pi1", "",
                 "--pi2", "1,2"]) == 2
    assert "forged C(g, g) failure" in capsys.readouterr().err
    assert cli._enumerate_one(("A", 2, (), (1, 2), 3, False)) == {
        "spec": {"type": "A", "rank": 2, "pi1": [], "pi2": [1, 2]},
        "error": "InvariantError: forged C(g, g) failure", "ok": False}
    g2 = seaweed.seaweed_from_algebra(load_fixture(FIXTURES / "g2_seaweed"))
    report = cli.verify_report(g2, None)
    assert report["ok"] and report["certificates"] == []


def test_one_root_system_per_type():
    # the ambient algebra is built on the root system that
    # quotient_components and render_split_dynkin read
    for t, r in [("A", 2), ("B", 3), ("G", 2), ("D", 4)]:
        assert cli._ambient(t, r).root_system is seaweed._cached_build(t, r)


def _public_definitions(tree):
    """(name, node) of each module-level public function, class and
    assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def _names_used(tree):
    """Each identifier a tree reads, imports or spells as a dotted part of
    a string (perfbench names the functions it traces in strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def test_public_names_have_callers_outside_the_tests():
    # every module-level public name of the package is used in src/, demos/
    # or perfbench/ outside its own definition; a helper only the tests
    # call belongs in tests/
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "demos", "perfbench")
             for path in (ROOT / folder).rglob("*.py")}
    used = Counter(name for tree in trees.values()
                   for name in _names_used(tree))
    package = sorted((ROOT / "src" / "seaweedcoh").glob("*.py"))
    assert len(package) > 8
    unused = [f"{path.stem}.{name}" for path in package
              for name, node in _public_definitions(trees[path])
              if used[name] == Counter(_names_used(node))[name]]
    assert unused == []
