import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import satura
from satura import cli, harness
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


def test_problems_list_csv_is_a_table(capsys):
    code, out, _ = run(capsys, "problems", "list", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0
    assert [r["name"] for r in rows] == ["alt", "conics-affine",
                                         "monomial-example", "conics-pstar"]
    assert rows[0] == {"name": "alt", "n": "8", "r": "15",
                       "degrees": "[2, 3, 3, 4, 4, 5, 5, 4, 5, 5, 6, 6, 6, 7, 7]",
                       "base_locus_spaces": "7"}


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
    table = json.loads(out)
    assert code == 0
    assert table["kind"] == "gi_table" and len(table["cells"]) == 1
    cell = table["cells"][0]
    assert cell["value"] == 5
    assert "outcome" not in cell


def test_gi_single_timeout(capsys):
    code, out, _ = run(capsys, "gi", "--problem", "alt", "--i", "5",
                       "--prime", "32771", "--timeout-s", "0.02")
    cell, = json.loads(out)["cells"]
    assert code == 3
    assert cell["value"] == "-" and cell["outcome"] == "timeout"


def test_gi_single_is_the_same_cell_as_in_a_table(capsys):
    query = ("gi", "--problem", "alt", "--i", "6", "--seed", "2024")
    code, out, _ = run(capsys, *query, "--prime", "32771")
    assert code == 0
    single, = json.loads(out)["cells"]
    code, out, _ = run(capsys, *query, "--prime", "32771,32003")
    assert code == 0
    shared = json.loads(out)["cells"][0]
    assert shared["prime"] == single["prime"] == 32771
    assert shared["seed"] == single["seed"] != 2024
    assert shared["value"] == single["value"] == 43


def test_gi_single_csv_is_one_row(capsys):
    code, out, _ = run(capsys, "gi", "--problem", "monomial", "--i", "1",
                       "--prime", "32003", "--format", "csv")
    row, = csv.DictReader(io.StringIO(out))
    assert code == 0
    assert (row["i"], row["prime"], row["value"]) == ("1", "32003", "5")


def test_csv_on_stdout_equals_out_file(capsys, tmp_path, monkeypatch):
    # the two runs' "elapsed" columns agree only on a stopped clock
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    query = ("gi", "--problem", "monomial", "--i", "1", "--prime", "32003",
             "--format", "csv")
    _, out, _ = run(capsys, *query)
    path = tmp_path / "cell.csv"
    run(capsys, *query, "--out", str(path))
    assert out.endswith("\r\n") and out == path.read_bytes().decode()


def test_gi_single_checkpoint_resumes(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    query = ("gi", "--problem", "monomial", "--i", "1", "--prime", "32003",
             "--checkpoint", str(ck))
    code, out, _ = run(capsys, *query)
    assert code == 0
    cell, = json.loads(out)["cells"]
    assert json.loads(ck.read_text())["cells"] == {"1|32003": cell}
    code, out, _ = run(capsys, *query)
    assert code == 0 and json.loads(out)["cells"] == [cell]


def test_gi_table_and_exit_code(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    code, out, _ = run(capsys, "gi", "--problem", "monomial", "--i", "1,0",
                       "--prime", "32003,32771", "--checkpoint", str(ck))
    assert code == 0
    cells = json.loads(out)["cells"]
    assert [c["value"] for c in cells] == [5, 5, 6, 6]
    assert ck.exists()
    # alt i=5 under an absurd cap: the "-" cell drives exit code 3
    code, out, _ = run(capsys, "gi", "--problem", "alt", "--i", "5,7",
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
    code, out, _ = run(capsys, "trials", "--problem", "alt", "--i", "5",
                       "--prime", "32771", "--trials", "2", "--timeout-s", "0.02",
                       "--threads", "1")
    assert code == 3
    assert json.loads(out)["histogram"] == {"timeout": 2}


def test_order_flag_applies(capsys, tmp_path):
    # gb writes its basis in the order asked for: x - y^2 leads with x
    # under lex and with y^2 under grevlex
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "field": "Q",
                                "polys": [[["1", [1, 0]], ["-1", [0, 2]]]]}))
    leads = {}
    for order in ("lex", "grevlex"):
        code, out, _ = run(capsys, "gb", "--file", str(path), "--order", order)
        assert code == 0
        (lead, *_), = json.loads(out)["polys"]
        leads[order] = lead
    assert leads == {"lex": ["1", [1, 0]], "grevlex": ["1", [0, 2]]}


def test_gi_trials_mode(capsys):
    code, out, _ = run(capsys, "trials", "--problem", "monomial", "--i", "1",
                       "--prime", "32003", "--trials", "6", "--threads", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "trials" and payload["trials"] == 6
    assert payload["histogram"] == {"5": 6}


def test_gi_trials_zero_and_one_are_trial_reports(capsys):
    for n in (0, 1):
        code, out, _ = run(capsys, "trials", "--problem", "monomial", "--i", "1",
                           "--prime", "32003", "--trials", str(n), "--threads", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["kind"] == "trials" and payload["trials"] == n
        assert payload["histogram"] == ({"5": 1} if n else {})


def test_trials_csv(capsys):
    code, out, _ = run(capsys, "trials", "--problem", "monomial", "--i", "0",
                       "--prime", "32003", "--trials", "4", "--threads", "1",
                       "--format", "csv")
    assert code == 0
    assert "histogram:6,4" in out.replace("\r", "")
    assert "trace:learned,1" in out.replace("\r", "")


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
    code, out, _ = run(capsys, "jde", "--problem", f"file:{path}", "--d", "1",
                       "--e", "0")
    assert code == 0 and json.loads(out)["bound"] == 1


def test_jde_needs_exactly_one_source(capsys):
    # --problem is the one source: without it, or with --file, jde exits 2
    for extra in ((), ("--file", "sys.json", "--problem", "monomial")):
        with pytest.raises(SystemExit) as exc:
            main(["jde", "--d", "1", "--e", "1", *extra])
        assert exc.value.code == 2


def test_gi_bad_index_lists_exit_2(capsys):
    code, out, err = run(capsys, "gi", "--problem", "monomial", "--i", "",
                         "--prime", "32003")
    assert code == 2 and "error" in err and out == ""


def test_bad_threads_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("SATURA_THREADS", "abc")
    code, _, _ = run(capsys, "bounds", "--degrees", "2,3", "--g-upper", "6")
    assert code == 0
    code, out, err = run(capsys, "trials", "--problem", "monomial", "--i", "1",
                         "--prime", "32003", "--trials", "2")
    assert code == 2 and "error" in err and out == ""
    assert "SATURA_THREADS" in err and "'abc'" in err


def test_timeout_zero_runs_uncapped(capsys, monkeypatch):
    # a missing --timeout-s and 0 both run uncapped
    seen = []

    def fake_run_trials(*args, timeout_s, **kwargs):
        seen.append(timeout_s)
        raise ValueError("stop")

    monkeypatch.setattr(cli, "run_trials", fake_run_trials)
    for extra in (("--timeout-s", "0"), ("--timeout-s", "5"), ()):
        code, _, _ = run(capsys, "trials", "--problem", "alt", "--i", "6",
                         "--prime", "32771", "--trials", "2", *extra)
        assert code == 2
    assert seen == [0.0, 5.0, None]


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


def write_system(tmp_path, field, coeff, exps=(1, 0)):
    """The system {coeff*x^a*y^b, y} as JSON, (a, b) = exps."""
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "field": field,
                                "polys": [[[coeff, exps]], [["1", [0, 1]]]]}))
    return str(path)


def test_gb_reads_int_coefficients_in_both_fields(capsys, tmp_path):
    for field in ("Fp:7", "Q"):
        code, out, _ = run(capsys, "gb", "--file", write_system(tmp_path, field, 3))
        assert code == 0
        assert json.loads(out)["polys"] == [[["1", [0, 1]]], [["1", [1, 0]]]]


@pytest.mark.parametrize("field, coeff, exps", [
    ("Q", 0.1, (1, 0)), ("Fp:7", 0.1, (1, 0)), ("Q", True, (1, 0)),
    ("Fp:7", None, (1, 0)), ("Q", [1], (1, 0)), ("Fp:7", "1/7", (1, 0)),
    ("Fp:7", "1", (-1, 0)), ("Q", "1", (1.5, 0)), ("Fp:7", "1", 1)],
    ids=lambda v: repr(v))
def test_gb_refuses_malformed_terms_exit_2(capsys, tmp_path, field, coeff, exps):
    path = write_system(tmp_path, field, coeff, exps)
    code, out, err = run(capsys, "gb", "--file", path)
    assert code == 2 and err.startswith("error:") and out == ""


def test_gb_refuses_polynomials_and_terms_that_are_not_lists_exit_2(capsys, tmp_path):
    path = tmp_path / "sys.json"
    for polys in ([5], [[5]]):
        path.write_text(json.dumps({"vars": ["x"], "field": "Q", "polys": polys}))
        code, out, err = run(capsys, "gb", "--file", str(path))
        assert code == 2 and err.startswith("error:") and out == ""


def test_jde_and_emit_cert_refuse_malformed_input_exit_2(capsys, tmp_path):
    path = write_system(tmp_path, "Fp:7", "1/7")
    code, out, err = run(capsys, "jde", "--problem", f"file:{path}", "--d", "1",
                         "--e", "0")
    assert code == 2 and "'1/7'" in err and out == ""
    pts_path = tmp_path / "pts.json"
    pts_path.write_text(json.dumps([[1, 1]]))
    cols_path = tmp_path / "cols.json"
    cols_path.write_text(json.dumps([[0, 0]]))
    code, out, err = run(capsys, "emit-cert", "--file", path, "--points",
                         str(pts_path), "--columns", str(cols_path), "--d", "1")
    assert code == 2 and "'1/7'" in err and out == ""
    # a point coordinate is read like a coefficient: floats are refused
    pts_path.write_text(json.dumps([[0.5, 1]]))
    code, out, err = run(capsys, "emit-cert", "--file",
                         write_system(tmp_path, "Q", "1"), "--points",
                         str(pts_path), "--columns", str(cols_path), "--d", "1")
    assert code == 2 and "0.5" in err and out == ""
    # so is a column exponent: it must be a non-negative int
    pts_path.write_text(json.dumps([[1, 1]]))
    cols_path.write_text(json.dumps([[0, "1"]]))
    code, out, err = run(capsys, "emit-cert", "--file",
                         write_system(tmp_path, "Q", "1"), "--points",
                         str(pts_path), "--columns", str(cols_path), "--d", "1")
    assert code == 2 and "exponent" in err and out == ""


def test_negative_trials_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trials", "--problem", "monomial", "--i", "1",
              "--prime", "32003", "--trials", "-3"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and "--trials" in out.err and out.out == ""


def test_negative_timeout_exit_2(capsys):
    for command, extra in (("gi", ()), ("trials", ("--trials", "2", "--threads", "1"))):
        with pytest.raises(SystemExit) as exc:
            main([command, "--problem", "monomial", "--i", "1", "--prime", "32003",
                  "--timeout-s", "-1", *extra])
        out = capsys.readouterr()
        assert exc.value.code == 2 and "--timeout-s" in out.err and out.out == ""


@pytest.mark.parametrize("argv, flag", [
    (("trials", "--i", "1", "--trials", "2", "--threads", "0"), "--threads"),
    (("trials", "--i", "1", "--trials", "2", "--threads", "-1"), "--threads"),
    (("hilbert", "--i", "1", "--dmax", "-1"), "--dmax"),
    # a trial batch runs one (i, p) cell: a list would drop all but the first
    (("trials", "--i", "1,0", "--trials", "2"), "--i")],
    ids=["threads 0", "threads -1", "dmax -1", "trials i list"])
def test_out_of_range_flags_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--problem", "monomial", "--prime", "32003"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and f"argument {flag}:" in out.err and out.out == ""


def test_flags_a_mode_cannot_honour_exit_2(capsys):
    code, out, err = run(capsys, "problems", "export", "--name", "monomial",
                         "--format", "csv")
    assert code == 2 and "--format csv" in err and out == ""


@pytest.mark.parametrize("command, extra, prime", [
    ("gi", (), "9,32003"),
    ("gi", (), "32003,1"),
    ("gi", (), "32003,-7"),
    ("gi", (), f"32003,{2**63 - 25}"),
    ("hilbert", (), "9"),
    ("trials", ("--trials", "2", "--threads", "1"), "9")],
    ids=["gi composite", "gi one", "gi negative", "gi 63-bit prime",
         "hilbert composite", "trials composite"])
def test_bad_prime_exits_2_before_any_cell(capsys, tmp_path, command, extra, prime):
    ck = ("--checkpoint", str(tmp_path / "ck.json")) if command == "gi" else ()
    code, out, err = run(capsys, command, "--problem", "monomial", "--i", "1",
                         "--prime", prime, *extra, *ck)
    assert code == 2 and "--prime" in err and out == ""
    assert not (tmp_path / "ck.json").exists()


@pytest.mark.parametrize("command, extra, i", [
    ("gi", ("--prime", "32771"), "7,9"),
    ("gi", ("--prime", "32771"), "-1"),
    ("hilbert", ("--prime", "32771"), "8"),
    ("trials", ("--prime", "32771", "--trials", "3", "--threads", "1"), "9")],
    ids=["gi list", "gi negative", "hilbert", "trials"])
def test_bad_index_exits_2_before_any_cell(capsys, tmp_path, command, extra, i):
    # alt has n = 8, so i runs over 0..7
    ck = ("--checkpoint", str(tmp_path / "ck.json")) if command == "gi" else ()
    code, out, err = run(capsys, command, "--problem", "alt", "--i", i,
                         *extra, *ck)
    assert code == 2 and out == ""
    assert err.startswith("error: --i: i must lie in [0, 7]")
    assert not (tmp_path / "ck.json").exists()


def test_conics_pstar_is_a_problem():
    inst = satura.get_problem("conics-pstar")
    assert inst is satura.get_problem("conics-pstar")
    assert (inst.name, inst.n, inst.r, inst.base_locus) == ("conics-pstar", 6, 6, ())
    assert list(inst.polys) == satura.conics_pstar_system()
    with pytest.raises(ValueError, match="conics-pstar"):
        satura.get_problem("missing")


def test_prime_too_small_for_the_system_is_an_error_cell(capsys):
    # 3 is prime, so it passes --prime; the monomial system needs p >= 5,
    # and alt's coefficient 4 is 1 mod 3: gi and hilbert both refuse the
    # cell rather than count another system
    for command, problem, i in (("gi", "monomial", "1"), ("gi", "alt", "7"),
                                ("hilbert", "alt", "7")):
        code, out, _ = run(capsys, command, "--problem", problem, "--i", i,
                           "--prime", "3")
        cell, = json.loads(out)["cells"]
        assert code == 3
        assert cell["value"] == "-" and cell["outcome"] == "error"
        assert "must be at least 5" in cell["message"]
    assert cell["message"] == ("p = 3 must be at least 5 and exceed the "
                               "largest coefficient magnitude 4")


# what each subcommand needs to get past argparse's required arguments
REQUIRED = {
    "gb": ("--file", "sys.json"),
    "gi": ("--problem", "monomial", "--i", "1", "--prime", "32003"),
    "hilbert": ("--problem", "monomial", "--i", "1", "--prime", "32003"),
    "jde": ("--problem", "monomial", "--d", "1", "--e", "0"),
    "trials": ("--problem", "monomial", "--i", "1", "--prime", "32003",
               "--trials", "1"),
    "bounds": ("--degrees", "2,3", "--g-upper", "6"),
    "problems": ("list",),
    "emit-cert": ("--file", "sys.json", "--points", "pts.json",
                  "--columns", "cols.json", "--d", "1"),
}
FLAG_VALUE = {"--seed": "1", "--threads": "1", "--timeout-s": "1",
              "--format": "csv", "--order": "lex"}
UNREAD = [(command, flag) for command, flags in (
    ("gb", "--seed --threads --timeout-s --format"),
    ("gi", "--threads --order"),
    ("hilbert", "--threads --order"),
    ("jde", "--seed --threads --timeout-s --format --order"),
    ("trials", "--order"),
    ("bounds", "--seed --threads --timeout-s --format --order"),
    ("problems", "--seed --threads --timeout-s --order"),
    ("emit-cert", "--seed --threads --timeout-s --format"),
) for flag in flags.split()]


@pytest.mark.parametrize("command, flag", UNREAD,
                         ids=[f"{c} {f}" for c, f in UNREAD])
def test_flags_a_subcommand_does_not_read_exit_2(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], flag, FLAG_VALUE[flag]])
    out = capsys.readouterr()
    assert exc.value.code == 2 and "unrecognized arguments" in out.err
    assert flag in out.err and out.out == ""


def test_module_entry_exit_codes():
    # the shell-visible exit codes, through a fresh interpreter
    src = str(Path(satura.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    for argv, code in ((("problems", "list"), 0),
                       (("bounds", *REQUIRED["bounds"], "--seed", "1"), 2),
                       (("gi", "--problem", "alt", "--i", "5", "--prime", "32771",
                         "--timeout-s", "0.02"), 3)):
        proc = subprocess.run([sys.executable, "-m", "satura.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
