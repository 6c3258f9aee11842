import csv
import io
import json
import os

import pytest

from satura.harness import (REFERENCE_VALUES, CellTable, TrialReport,
                            _resolve_timeout, default_threads, gi_table,
                            hilbert_table, run_trials)
from satura.problems import (ProblemInstance, alt_system,
                             conics_affine_system, example_monomial_system,
                             get_problem)


def strip_timing(report):
    d = report.to_dict()
    d.pop("wall_time")
    d.pop("time_stats")
    return d


def strip_elapsed(table):
    return [{k: v for k, v in c.items() if k != "elapsed"} for c in table.cells]


def test_trials_reproducible():
    inst = example_monomial_system()
    a = run_trials(inst, 1, 32003, 25, seed=9, threads=1)
    b = run_trials(inst, 1, 32003, 25, seed=9, threads=1)
    assert strip_timing(a) == strip_timing(b)
    assert a.histogram == {"5": 25}
    assert a.successes == 25 and a.success_fraction == 1.0
    assert a.reference == 5 and a.reference_source == "table"
    c = run_trials(inst, 1, 32003, 25, seed=10, threads=1)
    assert c.seed != a.seed


def test_threads_do_not_change_results():
    inst = example_monomial_system()
    serial = run_trials(inst, 0, 32003, 12, seed=4, threads=1)
    parallel = run_trials(inst, 0, 32003, 12, seed=4, threads=2)
    assert strip_timing(serial) == strip_timing(parallel)


def test_conservation_law():
    inst = example_monomial_system()
    rep = run_trials(inst, 0, 32003, 40, seed=77, threads=1)
    assert sum(rep.histogram.values()) == 40
    assert all(count > 0 for count in rep.histogram.values())


def test_zero_trials():
    rep = run_trials(example_monomial_system(), 1, 32003, 0, seed=1, threads=1)
    assert rep.trials == 0 and rep.success_fraction == 0.0
    assert rep.histogram == {}
    with pytest.raises(ValueError):
        run_trials(example_monomial_system(), 1, 32003, -1, seed=1)


def test_reference_resolution():
    inst = example_monomial_system()
    explicit = run_trials(inst, 1, 32003, 5, seed=3, threads=1, reference=99)
    assert explicit.reference_source == "explicit"
    assert explicit.successes == 0

    assert REFERENCE_VALUES["alt"][6] == 43
    renamed = ProblemInstance("off-book", inst.ring, inst.polys,
                              inst.base_locus)
    modal = run_trials(renamed, 1, 32003, 5, seed=3, threads=1)
    assert modal.reference_source == "modal"
    assert modal.reference == 5
    assert modal.successes == modal.histogram["5"]


def test_timeout_bucket():
    rep = run_trials(alt_system(), 6, 32771, 2, seed=1, threads=1,
                     timeout_s=0.05)
    assert rep.histogram == {"timeout": 2}
    assert rep.successes == 0
    assert rep.failures == 2


def test_auto_cap_starts_at_g6():
    # g5 takes 31-65 s on a 2-core box; a 60 s cap made its cell flip
    # between 234 and "-", so it stays uncapped like the smaller i
    assert [_resolve_timeout("auto", i) for i in (0, 4, 5, 6, 7)] \
        == [None, None, None, 60.0, 60.0]
    assert _resolve_timeout(2.5, 5) == 2.5
    assert _resolve_timeout(None, 7) is None


def test_report_serializations_agree():
    rep = run_trials(example_monomial_system(), 1, 32003, 8, seed=5, threads=1)
    d = rep.to_dict()
    assert json.loads(rep.to_json()) == d
    rows = {r[0]: r[1] for r in csv.reader(io.StringIO(rep.to_csv()))
            if r[0] != "field"}
    assert rows["successes"] == str(d["successes"])
    assert rows["histogram:5"] == str(d["histogram"]["5"])
    assert rows["reference"] == str(d["reference"])


def test_gi_table_values_and_checkpoint(tmp_path):
    inst = example_monomial_system()
    ck = str(tmp_path / "cells.json")
    part = gi_table(inst, [1], [32003, 32771], seed=2024, checkpoint=ck)
    assert part.value(i=1, prime=32003) == 5
    assert part.value(i=1, prime=32771) == 5
    # second sweep reuses the finished cells bit-for-bit and adds i=0
    full = gi_table(inst, [1, 0], [32003, 32771], seed=2024, checkpoint=ck)
    assert full.cells[:2] == part.cells
    assert full.value(i=0, prime=32003) == 6
    assert full.failures == 0
    fresh = gi_table(inst, [1, 0], [32003, 32771], seed=2024)
    assert strip_elapsed(fresh) == strip_elapsed(full)
    assert json.loads(full.to_json())["kind"] == "gi_table"


def test_gi_table_checkpoint_identity(tmp_path):
    ck = tmp_path / "cells.json"
    gi_table(example_monomial_system(), [1], [32003], seed=1,
             checkpoint=str(ck))
    # another problem, or the same problem at another seed, must not
    # pick up the stored (i, prime) cell
    with pytest.raises(ValueError, match="checkpoint"):
        gi_table(conics_affine_system(), [1], [32003], seed=99,
                 checkpoint=str(ck))
    with pytest.raises(ValueError, match="checkpoint"):
        gi_table(example_monomial_system(), [1], [32003], seed=2,
                 checkpoint=str(ck))
    # a file without a header cannot vouch for its cells either
    ck.write_text(json.dumps({"1|32003": {"i": 1, "prime": 32003, "value": 5}}))
    with pytest.raises(ValueError, match="checkpoint"):
        gi_table(example_monomial_system(), [1], [32003], seed=1,
                 checkpoint=str(ck))


def test_gi_table_keeps_error_message():
    table = gi_table(get_problem("monomial"), [1], [9], seed=1)
    cell = table.cells[0]
    assert cell["value"] == "-" and cell["outcome"] == "error"
    assert "modulus 9 is not prime" in cell["message"]
    assert table.failures == 1


def test_trial_report_keeps_error_messages():
    rep = run_trials(get_problem("monomial"), 1, 9, 2, seed=1, threads=1)
    assert rep.histogram == {"error": 2}
    assert rep.failures == 2
    (message, count), = rep.errors.items()
    assert "modulus 9 is not prime" in message and count == 2
    assert rep.to_dict()["errors"] == {message: 2}
    rows = {r[0]: r[1] for r in csv.reader(io.StringIO(rep.to_csv()))}
    assert rows[f"errors:{message}"] == "2"


def test_gi_table_timeout_cell():
    table = gi_table(alt_system(), [6], [32771], seed=1, timeout_s=0.02)
    cell = table.cells[0]
    assert cell["value"] == "-" and cell["outcome"] == "timeout"
    assert table.failures == 1
    # the "-" cell still serializes
    assert "timeout" in table.to_csv()


def test_hilbert_table_rows():
    inst = example_monomial_system()
    table = hilbert_table(inst, [1, 0], 32003, 6, seed=2024)
    for cell, stable in zip(table.cells, (5, 6)):
        row = cell["value"]
        assert row[0] == 1
        assert all(a <= b for a, b in zip(row, row[1:]))
        assert cell["stable_value"] == stable
        assert cell["stabilized_at"] is not None


def test_hilbert_table_timeout():
    table = hilbert_table(alt_system(), [6], 32771, 8, seed=1, timeout_s=0.02)
    assert table.cells[0]["value"] == "-"
    assert table.cells[0]["outcome"] == "timeout"


def test_default_threads_env(monkeypatch):
    monkeypatch.setenv("SATURA_THREADS", "3")
    assert default_threads() == 3
    for clamped in ("0", "-2"):
        monkeypatch.setenv("SATURA_THREADS", clamped)
        assert default_threads() == 1
    monkeypatch.setenv("SATURA_THREADS", "abc")
    with pytest.raises(ValueError, match="SATURA_THREADS.*'abc'"):
        default_threads()
    monkeypatch.delenv("SATURA_THREADS")
    assert default_threads() >= 1


def test_default_threads_follow_cpu_affinity(monkeypatch):
    # one usable CPU on a many-CPU machine means one worker
    monkeypatch.delenv("SATURA_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert default_threads() == 1
    monkeypatch.setenv("SATURA_THREADS", "3")
    assert default_threads() == 3
