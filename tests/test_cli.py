import json
import subprocess
import sys

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
    from mayerpath.cyclotomic import _power_table

    tables = _power_table.cache_info().currsize
    code, out, err = run_main(capsys, [
        "betti", "--input", fixture_file("diamond"), "--N", "1000000000"])
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: N must be <= {MAX_ORDER}"]
    assert _power_table.cache_info().currsize == tables


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
])
def test_bad_json_input_exits_one(capsys, tmp_path, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, _, err = run_main(capsys, ["betti", "--input", str(path), "--N", "2"])
    assert code == 1
    assert err.startswith("error:") and message in err


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


def test_check_double_edge_exits_two_without_output(capsys, tmp_path):
    path = tmp_path / "double.edges"
    path.write_text("1 2\n2 1\n")
    code, out, err = run_main(capsys, ["check", "--input", str(path), "--N", "3"])
    assert code == 2 and out == ""
    assert "invariant violation" in err


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
