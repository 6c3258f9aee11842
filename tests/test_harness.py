import csv
import io
import json
import os
import threading
import time

import pytest

from satura.arith import QQ, prime_field
from satura.groebner import F4Trace
from satura.harness import (ENGINE_COUNTERS, REFERENCE_VALUES, CellTable,
                            TrialReport, default_threads, gi_table,
                            hilbert_table, run_capped, run_trials)
from satura.problems import (ProblemInstance, alt_system,
                             conics_affine_system, example_monomial_system,
                             get_problem)
from satura.saturate import compute_gi, split_seed


def strip_timing(report):
    d = report.to_dict()
    d.pop("wall_time")
    d.pop("time_stats")
    d.pop("trace")  # one F4 trace per worker: its counts follow the workers
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
    # an alt g5 trial takes about 2 s on a 2-core box: a 5 ms cap must
    # stop every one
    rep = run_trials(alt_system(), 5, 32771, 2, seed=1, threads=1,
                     timeout_s=0.005)
    assert rep.histogram == {"timeout": 2}
    assert rep.successes == 0
    assert rep.failures == 2


def test_interrupted_learning_keeps_the_old_record():
    # alt g5 takes about 2 s and reaches its main loop within about 11 ms:
    # a 0.2 s cap stops it while it learns, and the g7 record stays
    alt, field, trace = alt_system(), prime_field(32771), F4Trace()
    compute_gi(alt, 7, field, 2024, trace)
    old = trace.record
    out = run_capped(lambda: compute_gi(alt, 5, field, 2024, trace), 0.2)
    assert out.kind == "timeout" and trace.last == "fallback"
    assert trace.record is old
    assert compute_gi(alt, 7, field, split_seed(2024, 1), trace).value == 7
    assert trace.last == "replayed"


def test_caps_work_off_the_main_thread():
    # the engine checks its own deadline, so a capped run in a thread
    # gives the main thread's buckets and cells
    alt = alt_system()

    def run():
        return (strip_timing(run_trials(alt, 7, 32771, 2, 1, threads=1,
                                        timeout_s=60)),
                strip_elapsed(gi_table(alt, [7], [32771], 1, timeout_s=60)),
                strip_elapsed(hilbert_table(alt, [7], 32771, 4, 1,
                                            timeout_s=60)))
    got = []
    worker = threading.Thread(target=lambda: got.append(run()))
    worker.start()
    worker.join(120)
    assert not worker.is_alive()
    main = run()
    assert main[0]["histogram"] == {"7": 2} and main[1][0]["value"] == 7
    assert got == [main]


@pytest.mark.parametrize("problem, i, field, value", [
    (alt_system, 7, prime_field(32771), 7),
    (conics_affine_system, 4, QQ, 9),  # the one-pair rational branch
], ids=("alt-g7", "conics-g4-Q"))
def test_a_passed_cap_times_out_and_ends_with_its_call(problem, i, field,
                                                       value):
    # a cap that passes before the engine starts is a timeout however
    # fast the engine is; neither it nor a cap that a call finished
    # under outlives the call
    inst = problem()

    def cell():
        return compute_gi(inst, i, field, 2024).value
    assert run_capped(cell, 1e-9).kind == "timeout"
    assert cell() == value
    start = time.perf_counter()
    out = run_capped(cell, 1.0)
    assert out.kind == "ok" and out.result == value
    time.sleep(max(0.0, start + 1.05 - time.perf_counter()))
    assert cell() == value


def test_report_serializations_agree():
    rep = run_trials(example_monomial_system(), 1, 32003, 8, seed=5, threads=1)
    d = rep.to_dict()
    assert json.loads(rep.to_json()) == d
    rows = {r[0]: r[1] for r in csv.reader(io.StringIO(rep.to_csv()))
            if r[0] != "field"}
    assert rows["successes"] == str(d["successes"])
    assert rows["histogram:5"] == str(d["histogram"]["5"])
    assert rows["reference"] == str(d["reference"])


def test_trial_report_counts_trace_use():
    # a serial batch keeps one F4 trace: the first basis learns it, the
    # others replay it or, where a draw leaves it (at p = 251), fall back;
    # one unusual draw does not evict the record, so the next one replays
    for p, n, trace in ((32771, 6, {"fallback": 0, "learned": 1, "replayed": 5}),
                        (251, 4, {"fallback": 1, "learned": 1, "replayed": 2})):
        rep = run_trials(alt_system(), 6, p, n, seed=2024, threads=1)
        assert rep.histogram == {"43": n}
        assert rep.trace == trace and rep.to_dict()["trace"] == trace
        rows = dict(csv.reader(io.StringIO(rep.to_csv())))
        assert {k: int(rows[f"trace:{k}"]) for k in trace} == trace



def test_trial_report_sums_engine_counters():
    # a serial batch sums the counters of compute_gi at the trial seeds;
    # its replays count the record's matrix rows and columns, which a
    # full run may not share, so those match a run through one trace
    alt, F = alt_system(), prime_field(32771)
    rep = run_trials(alt, 6, 32771, 3, seed=2024, threads=1)
    assert rep.histogram == {"43": 3} and rep.trace["replayed"] == 2
    seeds = [split_seed(2024, t) for t in range(3)]
    trace = F4Trace()

    def summed(runs, skip=()):
        return {c: sum(getattr(r.stats, c) for r in runs)
                for c in ENGINE_COUNTERS if c not in skip}
    assert summed([compute_gi(alt, 6, F, s, trace) for s in seeds]) == rep.engine
    skip = ("matrix_rows", "matrix_columns")
    assert summed([compute_gi(alt, 6, F, s) for s in seeds], skip) == {
        c: n for c, n in rep.engine.items() if c not in skip}
    assert rep.engine["matrices"] > 0 and rep.to_dict()["engine"] == rep.engine
    rows = dict(csv.reader(io.StringIO(rep.to_csv())))
    assert {c: int(rows[f"engine:{c}"]) for c in ENGINE_COUNTERS} == rep.engine


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


def test_checkpoint_reruns_unfinished_cells(tmp_path):
    # a cap already past times out however fast the engine is; the
    # checkpoint keeps no such cell, so an uncapped rerun counts it
    alt, ck = alt_system(), str(tmp_path / "cells.json")
    capped = gi_table(alt, [7], [32771], 2024, timeout_s=1e-9, checkpoint=ck)
    assert capped.cells[0]["outcome"] == "timeout"
    assert not os.path.exists(ck)
    rerun = gi_table(alt, [7], [32771], 2024, checkpoint=ck)
    assert rerun.value(i=7, prime=32771) == 7 and rerun.failures == 0
    # the finished cell is saved, and a resume reads it back unchanged
    assert gi_table(alt, [7], [32771], 2024, timeout_s=1e-9,
                    checkpoint=ck).cells == rerun.cells


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
    table = gi_table(alt_system(), [5], [32771], seed=1, timeout_s=0.02)
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


def test_hilbert_table_refuses_a_prime_too_small_for_the_system():
    # reduced mod 3, alt's coefficient 4 becomes 1: another system
    cell, = hilbert_table(alt_system(), [7], 3, 8, seed=2024).cells
    assert cell["value"] == "-" and cell["outcome"] == "error"
    assert cell["message"] == ("p = 3 must be at least 5 and exceed the "
                               "largest coefficient magnitude 4")


def test_hilbert_table_timeout():
    table = hilbert_table(alt_system(), [5], 32771, 8, seed=1, timeout_s=0.02)
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
