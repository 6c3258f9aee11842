import json

import pytest

from satura.cli import main

pytestmark = pytest.mark.usefixtures("capsys")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_problems_list(capsys):
    code, out, _ = run(capsys, "problems", "list")
    names = [row["name"] for row in json.loads(out)["problems"]]
    assert code == 0
    assert names == ["alt", "conics-affine", "monomial-example", "conics-pstar"]
    code, out, _ = run(capsys, "problems", "list", "--format", "csv")
    assert code == 0 and "alt: r=15 polynomials" in out


def test_problems_export_and_gb(capsys, tmp_path):
    path = tmp_path / "monomial.json"
    code, out, _ = run(capsys, "problems", "export", "--name", "monomial",
                       "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "gb", "--file", str(path))
    assert code == 0
    payload = json.loads(out)
    # the four monomial generators collapse to <x1, x2>
    assert payload["polys"] == [[["1", [0, 1]]], [["1", [1, 0]]]]
    assert payload["unit"] is False and payload["degree"] == 1


def test_export_requires_name(capsys):
    code, _, err = run(capsys, "problems", "export")
    assert code == 2 and "error" in err


def test_gi_single(capsys):
    code, out, _ = run(capsys, "gi", "--problem", "monomial", "--i", "1",
                       "--prime", "32003")
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == 5
    assert payload["degenerate"] is False


def test_gi_single_timeout(capsys):
    code, out, _ = run(capsys, "gi", "--problem", "alt", "--i", "6",
                       "--prime", "32771", "--timeout-s", "0.02")
    payload = json.loads(out)
    assert code == 3
    assert payload["value"] is None and payload["timeout"] is True


def test_gi_table_and_exit_code(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    code, out, _ = run(capsys, "gi", "--problem", "monomial", "--i", "1,0",
                       "--prime", "32003,32771", "--checkpoint", str(ck))
    assert code == 0
    cells = json.loads(out)["cells"]
    assert [c["value"] for c in cells] == [5, 5, 6, 6]
    assert ck.exists()
    # alt i=6 under an absurd cap: the "-" cell drives exit code 3
    code, out, _ = run(capsys, "gi", "--problem", "alt", "--i", "6,7",
                       "--prime", "32771", "--timeout-s", "0.02")
    assert code == 3
    assert json.loads(out)["cells"][0]["value"] == "-"


def test_gi_checkpoint_from_another_run_exits_2(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    code, _, _ = run(capsys, "gi", "--problem", "monomial", "--i", "1,0",
                     "--prime", "32003", "--seed", "1", "--checkpoint", str(ck))
    assert code == 0
    code, out, err = run(capsys, "gi", "--problem", "conics", "--i", "1,0",
                         "--prime", "32003", "--seed", "99",
                         "--checkpoint", str(ck))
    assert code == 2 and "checkpoint" in err and out == ""


def test_trial_failures_exit_3(capsys):
    for argv in (("trials", "--i", "6"), ("gi", "--i", "6")):
        code, out, _ = run(capsys, *argv, "--problem", "alt", "--prime", "32771",
                           "--trials", "2", "--timeout-s", "0.02",
                           "--threads", "1")
        assert code == 3
        assert json.loads(out)["histogram"] == {"timeout": 2}


def test_order_flag_applies(capsys):
    # the affine Hilbert function needs a degree order: lex must be refused
    code, out, err = run(capsys, "hilbert", "--problem", "monomial", "--i", "1",
                         "--prime", "32003", "--order", "lex")
    assert code == 2 and "does not refine total degree" in err
    # g_i is the same count under either order
    code, out, _ = run(capsys, "gi", "--problem", "monomial", "--i", "1",
                       "--prime", "32003", "--order", "lex")
    assert code == 0 and json.loads(out)["value"] == 5


def test_gi_trials_mode(capsys):
    code, out, _ = run(capsys, "gi", "--problem", "monomial", "--i", "1",
                       "--prime", "32003", "--trials", "6", "--threads", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "trials" and payload["trials"] == 6
    assert payload["histogram"] == {"5": 6}


def test_trials_csv(capsys):
    code, out, _ = run(capsys, "trials", "--problem", "monomial", "--i", "0",
                       "--prime", "32003", "--trials", "4", "--threads", "1",
                       "--format", "csv")
    assert code == 0
    assert "histogram:6,4" in out.replace("\r", "")


def test_hilbert_rows(capsys):
    code, out, _ = run(capsys, "hilbert", "--problem", "monomial", "--i", "1",
                       "--prime", "32003", "--dmax", "5")
    assert code == 0
    cell = json.loads(out)["cells"][0]
    assert cell["stable_value"] == 5


def test_jde_problem_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "jde", "--problem", "conics-pstar",
                       "--d", "2", "--e", "0")
    assert code == 0
    assert json.loads(out) == {"d": 2, "e": 0, "dim": 0, "bound": 28}
    path = tmp_path / "sys.json"
    run(capsys, "problems", "export", "--name", "monomial", "--out", str(path))
    code, out, _ = run(capsys, "jde", "--file", str(path), "--d", "1", "--e", "0")
    assert code == 0 and json.loads(out)["bound"] == 1


def test_jde_needs_exactly_one_source(capsys):
    for extra in ((), ("--file", "sys.json", "--problem", "monomial")):
        with pytest.raises(SystemExit) as exc:
            main(["jde", "--d", "1", "--e", "1", *extra])
        assert exc.value.code == 2


def test_gi_bad_index_lists_exit_2(capsys):
    code, out, err = run(capsys, "gi", "--problem", "monomial", "--i", "",
                         "--prime", "32003")
    assert code == 2 and "error" in err and out == ""
    # a trial batch runs one (i, p) cell: a list would drop all but the first
    code, out, err = run(capsys, "gi", "--problem", "monomial", "--i", "1,0",
                         "--prime", "32003", "--trials", "3")
    assert code == 2 and "--trials" in err and out == ""


def test_bad_threads_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("SATURA_THREADS", "abc")
    code, _, _ = run(capsys, "bounds", "--degrees", "2,3", "--g-upper", "6")
    assert code == 0
    code, out, err = run(capsys, "trials", "--problem", "monomial", "--i", "1",
                         "--prime", "32003", "--trials", "2")
    assert code == 2 and "error" in err and out == ""
    assert "SATURA_THREADS" in err and "'abc'" in err


def test_bounds_degrees_shortcut(capsys):
    code, out, _ = run(capsys, "bounds", "--degrees",
                       "2,3,3,4,4,5,5,4,5,5,6,6,6,7,7", "--n", "8",
                       "--g-upper", "47", "--prime-exp", "55",
                       "--target", "0.99")
    payload = json.loads(out)
    assert code == 0
    assert payload["discriminant_degree_bound"] == 317_987_389_440_000
    assert payload["nu_upper_bound"] == 7_575_968_400
    assert payload["min_prime_exponent"] == 55
    # explicit scalars instead of --degrees
    code, out, _ = run(capsys, "bounds", "--n", "8", "--r", "15", "--dmin", "2",
                       "--dmax", "7", "--deg-v", "7620480000", "--g-upper", "47")
    assert code == 0
    assert json.loads(out)["discriminant_degree_bound"] == 317_987_389_440_000


def test_bounds_missing_inputs(capsys):
    code, _, err = run(capsys, "bounds", "--n", "8", "--g-upper", "47")
    assert code == 2 and "error" in err


def test_unknown_problem_exits_2(capsys):
    code, _, err = run(capsys, "gi", "--problem", "missing", "--i", "0",
                       "--prime", "32003")
    assert code == 2 and "unknown problem" in err


def test_emit_cert_round_trip(capsys, tmp_path):
    system = {"vars": ["x", "y"], "field": "Q",
              "polys": [[["1", [2, 0]], ["-1", [0, 0]]],
                        [["1", [0, 2]], ["-1", [0, 0]]]]}
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(system))
    pts_path = tmp_path / "pts.json"
    pts_path.write_text(json.dumps([[1, 1], [1, -1]]))
    cols_path = tmp_path / "cols.json"
    cols_path.write_text(json.dumps([[0, 1], [0, 0]]))
    out_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "emit-cert", "--file", str(sys_path),
                     "--points", str(pts_path), "--columns", str(cols_path),
                     "--d", "1", "--out", str(out_path))
    assert code == 0
    cert = json.loads(out_path.read_text())
    assert len(cert["polys"]) == 2 * 2 + 2 * 2
    assert cert["vars"][0] == "y1_x"
    # singular column choice surfaces as a CLI error, not a traceback
    cols_path.write_text(json.dumps([[1, 0], [0, 0]]))
    code, _, err = run(capsys, "emit-cert", "--file", str(sys_path),
                       "--points", str(pts_path), "--columns", str(cols_path),
                       "--d", "1")
    assert code == 2 and "error" in err
