import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import library_env
from mayerpath.cli import main
from mayerpath.fixtures import ALL_FIXTURES, fixture_kind, fixture_text


@pytest.fixture
def fixture_file(tmp_path):
    def write(name):
        suffix = ".simplices" if fixture_kind(name) == "simplicial" else ".edges"
        path = tmp_path / f"{name}{suffix}"
        path.write_text(fixture_text(name))
        return str(path)
    return write


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_betti_csv(capsys, fixture_file):
    code, out, _ = run_main(capsys, [
        "betti", "--input", fixture_file("diamond"), "--N", "2", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "n,q,betti"
    assert "0,1,1" in out


def test_betti_json_schema(capsys, fixture_file):
    code, out, _ = run_main(capsys, [
        "betti", "--input", fixture_file("diamond"), "--N", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["N"] == 3
    assert {"n": 0, "q": 1, "dim": 1} in data["betti"]
    assert data["omega_dims"]["2"] == 3
    assert isinstance(data["input"], str) and len(data["input"]) == 16


def test_betti_specific_level(capsys, fixture_file):
    code, out, _ = run_main(capsys, [
        "betti", "--input", fixture_file("diamond"), "--N", "3", "--q", "2",
        "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert all(r.split(",")[1] == "2" for r in rows)


def test_omega_specific_level(capsys, fixture_file):
    code, out, _ = run_main(capsys, [
        "omega", "--input", fixture_file("diamond"), "--N", "3", "--q", "2"])
    assert code == 0
    assert "omega n=2 q=2 dim=4" in out


def test_classify_markdown(capsys, fixture_file):
    code, out, _ = run_main(capsys, [
        "classify", "--input", fixture_file("diamond"), "--N", "3"])
    assert code == 0
    assert "family=T6" in out and "triangle" in out


def test_cycles_markdown(capsys, fixture_file):
    code, out, _ = run_main(capsys, [
        "cycles", "--input", fixture_file("loop4"), "--N", "3"])
    assert code == 0
    assert "kernel dim 0" in out
    assert "n=4 u1=1 u2=3 admissible=False" in out


def test_invalid_order_exits_one(capsys, fixture_file):
    code, _, err = run_main(capsys, [
        "betti", "--input", fixture_file("diamond"), "--N", "1"])
    assert code == 1
    assert "N must be >= 2" in err


def test_order_above_bound_exits_one_before_field_arithmetic(capsys, fixture_file):
    from mayerpath.cli import MAX_ORDER
    from mayerpath.cyclotomic import _power_table, _power_terms, _units, integer_powers

    caches = (integer_powers, _power_table, _power_terms, _units)
    tables = [cache.cache_info().currsize for cache in caches]
    code, out, err = run_main(capsys, [
        "betti", "--input", fixture_file("diamond"), "--N", "1000000000"])
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: N must be <= {MAX_ORDER}"]
    assert [cache.cache_info().currsize for cache in caches] == tables


def test_bad_input_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("1 1\n")
    code, _, err = run_main(capsys, ["betti", "--input", str(path), "--N", "2"])
    assert code == 1
    assert "self-loop" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run_main(capsys, ["betti", "--input", "no-such-file", "--N", "2"])
    assert code == 1


def test_invalid_q_exits_one(capsys, fixture_file):
    code, _, err = run_main(capsys, [
        "betti", "--input", fixture_file("diamond"), "--N", "3", "--q", "7"])
    assert code == 1


def test_non_integer_q_exits_one(capsys, fixture_file):
    code, _, err = run_main(capsys, [
        "betti", "--input", fixture_file("diamond"), "--N", "3", "--q", "abc"])
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_usage_errors_exit_one(capsys, fixture_file):
    # argparse's own exit code 2 is the one the CLI keeps for invariant violations
    for argv, message in (
        (["betti", "--input", fixture_file("diamond"), "--N", "abc"], "invalid int value: 'abc'"),
        (["betti", "--N", "3"], "required: --input"),
    ):
        code, out, err = run_main(capsys, argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error:") and message in err, err


def test_negative_max_dim_exits_one(capsys, fixture_file):
    code, out, err = run_main(capsys, [
        "betti", "--input", fixture_file("diamond"), "--N", "3", "--max-dim", "-1"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "max-dim" in err


@pytest.mark.parametrize("text,message", [
    ('{"edges": [[1, 2]', "malformed JSON"),
    ("5", "JSON input must be an object"),
    ('{"edges": [[1]]}', "edge 1"),
    ('{"simplices": [[1, 1]]}', "simplex ['1', '1'] repeats a vertex"),
    ('{"simplices": [[1, 2], [1, "1"]]}', "simplex ['1', '1'] repeats a vertex"),
    ('{"edges": [[1, [2]]]}', "edge 1: vertex label [2] is not"),
    ('{"edges": [[1, 2], [2, {"x": 1}]]}', 'edge 2: vertex label {"x": 1} is not'),
    ('{"edges": [["a", "b"], ["c", "c"]]}', "edge 2: self-loop at vertex 'c'"),
    ('{"edges": [["a", "b"], ["b", "c"], ["a", "b"]]}', "edge 3: duplicate edge 'a' -> 'b'"),
    ('{"edges": [[true, 2]]}', "edge 1: vertex label true is not"),
    ('{"vertices": [1, null], "edges": []}', "vertex 2: vertex label null is not"),
    ('{"edges": [[1, 2.5]]}', "edge 1: vertex label 2.5 is not"),
    ('{"simplices": [[1, 2], [2, {"x": 1}]]}', 'simplex 2: vertex label {"x": 1} is not'),
    ('{"simplices": [[false, 2]]}', "simplex 1: vertex label false is not"),
    ('{"simplices": [[1, 2], [[3], 4]]}', "simplex 2: vertex label [3] is not"),
])
def test_bad_json_input_exits_one(capsys, tmp_path, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, _, err = run_main(capsys, ["betti", "--input", str(path), "--N", "2"])
    assert code == 1
    assert err.startswith("error:") and message in err


def test_simplicial_kind_on_an_edges_file_names_the_missing_key(tmp_path):
    path = tmp_path / "e.json"
    path.write_text('{"edges": [["a", "b"]]}')
    proc = subprocess.run(
        [sys.executable, "-m", "mayerpath.cli", "betti", "--kind", "simplicial",
         "--input", str(path), "--N", "2"],
        capture_output=True, text=True, env=library_env())
    assert proc.returncode == 1
    assert proc.stderr == f"error: {path}: --kind simplicial needs a 'simplices' key\n"
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("command", ["betti", "report"])
def test_unwritable_out_exits_one_without_traceback(fixture_file, tmp_path, command):
    target = tmp_path / "missing" / "x.md"
    argv = [sys.executable, "-m", "mayerpath.cli", command, "--out", str(target)]
    if command == "betti":
        argv += ["--input", fixture_file("diamond"), "--N", "3"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=library_env())
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: cannot write {target}:")
    assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""
    assert not target.parent.exists()


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_circuit_bound_below_one_exits_one(capsys, fixture_file, bound):
    code, out, err = run_main(capsys, [
        "classify", "--input", fixture_file("braid"), "--N", "3", "--circuit-bound", bound])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "circuit-bound must be >= 1" in err


def test_invariant_violation_exits_two_under_optimize(fixture_file):
    # a rank-nullity failure forced inside nullspace must still be caught
    # when asserts are compiled away
    script = (
        "import sys\n"
        "import mayerpath.linalg as linalg\n"
        "from mayerpath.cli import main\n"
        "assert False, 'asserts must be off'\n"
        "real = linalg._forward\n"
        "def extra_pivot(rows, full=None):\n"
        "    pivots = real(rows, full)\n"
        "    pivots[-1] = {}\n"
        "    return pivots\n"
        "linalg._forward = extra_pivot\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "betti", "--input", fixture_file("diamond"),
         "--N", "3"],
        capture_output=True, text=True, env=library_env())
    assert proc.returncode == 2, proc.stderr
    assert "invariant violation: rank-nullity violated" in proc.stderr


def test_double_edge_invariant_violation_exits_two(capsys, tmp_path):
    path = tmp_path / "double.edges"
    path.write_text("1 2\n2 1\n")
    code, _, err = run_main(capsys, ["betti", "--input", str(path), "--N", "3"])
    assert code == 2
    assert "invariant violation" in err


def test_check_double_edge_exits_two_with_report(capsys, tmp_path):
    path = tmp_path / "double.edges"
    path.write_text("1 2\n2 1\n")
    code, out, err = run_main(capsys, ["check", "--input", str(path), "--N", "3"])
    assert code == 2
    assert out.splitlines() == [
        "nilpotent_on_invariant_complex: False", "nilpotent_on_regular_span: False",
        "chain_closure: True", "boundaries_inside_cycles: False"]
    assert "invariant violation" in err


ANTIPARALLEL_PAIR = Path(__file__).resolve().parents[1] / "perfbench" / "data" / \
    "antiparallel_pair.edges"


@pytest.mark.parametrize("N, failed", [
    (3, {"nilpotent_on_invariant_complex", "boundaries_inside_cycles"}),
    (5, {"boundaries_inside_cycles"}),
])
@pytest.mark.parametrize("fmt", ["md", "json"])
def test_check_reports_failed_invariants_and_exits_two(N, failed, fmt):
    # N = 3: d^3 does not vanish on Omega_3; N = 5: it vanishes up to
    # max_dim = 3 but not on Omega_7, which the Betti table's containment
    # check reads, so the table and the Poincare scan are skipped
    proc = subprocess.run(
        [sys.executable, "-m", "mayerpath.cli", "check", "--input", str(ANTIPARALLEL_PAIR),
         "--N", str(N), "--format", fmt],
        capture_output=True, text=True, env=library_env())
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("invariant violation:")
    if fmt == "json":
        data = json.loads(proc.stdout)
        assert set(data) == {"N", "input", "checks"}
        checks = data["checks"]
    else:
        checks = dict(line.split(": ") for line in proc.stdout.splitlines())
        checks = {k: v == "True" for k, v in checks.items()}
    assert len(checks) == 4
    assert {k for k, v in checks.items() if not v} - {"nilpotent_on_regular_span"} == failed


def test_omega_with_basis(capsys, fixture_file):
    code, out, _ = run_main(capsys, [
        "omega", "--input", fixture_file("diamond"), "--N", "3", "--show-basis"])
    assert code == 0
    assert "omega n=2 q=all dim=3" in out
    assert "e_{1,2,3}" in out


def test_check_simplicial(capsys, fixture_file):
    code, out, _ = run_main(capsys, [
        "check", "--input", fixture_file("torus_minimal"), "--kind", "simplicial",
        "--N", "3"])
    assert code == 0
    assert "nilpotent_on_invariant_complex: True" in out
    assert "equal=True" in out


def test_classify_braid(capsys, fixture_file):
    code, out, _ = run_main(capsys, [
        "classify", "--input", fixture_file("braid"), "--N", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["clusters"][0]["chain"] == "g2-(g7)^1-g5"
    assert data["clusters"][0]["family"] == "T2"


def test_cycles_output(capsys, fixture_file):
    code, out, _ = run_main(capsys, [
        "cycles", "--input", fixture_file("theta"), "--N", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["kernel_dim"] == 1 and data["shortfall"] == 0
    assert data["generators"][0]["kind"] == "merge"


def test_report_runs_clean(capsys):
    code, out, _ = run_main(capsys, ["report", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["tier_a_failures"] == 0
    statuses = {c["status"] for c in data["cells"]}
    assert statuses == {"match", "reference-inconsistent"}


def test_out_file(tmp_path, capsys, fixture_file):
    target = tmp_path / "out.json"
    code, out, _ = run_main(capsys, [
        "betti", "--input", fixture_file("diamond"), "--N", "2",
        "--format", "json", "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["N"] == 2


def test_repeated_runs_are_byte_identical(capsys, fixture_file):
    for name in ALL_FIXTURES:
        kind = fixture_kind(name)
        argv = ["betti", "--input", fixture_file(name), "--kind", kind,
                "--N", "3", "--format", "json"]
        _, first, _ = run_main(capsys, argv)
        _, second, _ = run_main(capsys, argv)
        assert first == second, name


def test_console_script_determinism_subprocess(fixture_file):
    argv = [sys.executable, "-m", "mayerpath.cli", "betti",
            "--input", fixture_file("diamond"), "--N", "3", "--format", "md"]
    first = subprocess.run(argv, capture_output=True, text=True, env=library_env())
    second = subprocess.run(argv, capture_output=True, text=True, env=library_env())
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_main_in_one_process_matches_fresh_interpreters(capsys, fixture_file, tmp_path):
    # main builds its parser once per process; no call may leave state
    # behind that changes a later call's output or exit code
    from mayerpath.cli import build_parser

    assert build_parser() is build_parser()
    diamond, braid = fixture_file("diamond"), fixture_file("braid")
    out = "<out>"
    calls = [
        (["betti", "--input", diamond, "--N", "3", "--format", "json"], 0),
        (["betti", "--input", diamond, "--N", "abc"], 1),
        (["omega", "--input", braid, "--N", "4", "--q", "3", "--show-basis"], 0),
        (["betti", "--N", "3"], 1),
        (["classify", "--input", braid, "--N", "3", "--format", "json"], 0),
        (["check", "--input", str(ANTIPARALLEL_PAIR), "--N", "3"], 2),
        (["cycles", "--input", fixture_file("theta"), "--N", "5"], 0),
        (["check", "--input", fixture_file("torus_minimal"), "--kind", "simplicial",
          "--N", "4", "--format", "json"], 0),
        (["betti", "--input", braid, "--N", "5", "--q", "2", "--format", "csv",
          "--out", out], 0),
        (["report"], 0),
        (["betti", "--input", diamond, "--N", "3", "--format", "json"], 0),
    ]
    for k, (argv, expected) in enumerate(calls):
        here, fresh = tmp_path / f"here{k}.txt", tmp_path / f"fresh{k}.txt"
        code, stdout, _ = run_main(capsys, [str(here) if a == out else a for a in argv])
        proc = subprocess.run(
            [sys.executable, "-m", "mayerpath.cli"]
            + [str(fresh) if a == out else a for a in argv],
            capture_output=True, text=True, env=library_env())
        assert code == proc.returncode == expected, (argv, proc.stderr)
        assert stdout == proc.stdout, argv
        if out in argv:
            assert stdout == "" and here.read_text() == fresh.read_text() != "", argv
