"""Trial batches and result tables over the randomized counter.

Every trial draws its own seed via split_seed, so a batch is bit-exact
reproducible from (problem, i, prime, N, master seed) no matter how
many workers run it.  Failures never abort a batch: degenerate draws,
unit ideals, timeouts and crashes each land in their own histogram
bucket and the conservation law sum(buckets) == N holds.
"""

import csv
import io
import json
import os
import signal
import statistics
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field as dfield
from typing import Optional

from .arith import prime_field
from .groebner import NotZeroDimensional, buchberger
from .hilbert import affine_hilbert_function, require_degree_compatible
from .poly import polys_to_json
from .saturate import build_saturated_system, compute_gi, draw_parameters, split_seed

SCHEMA_VERSION = 1

# known counts per (problem, i); trials measure agreement with these
REFERENCE_VALUES = {
    "alt": {7: 7, 6: 43, 5: 234, 4: 1108, 3: 3832, 2: 8716, 1: 10858, 0: 8652},
    "monomial-example": {1: 5, 0: 6},
    "conics-affine": {0: 18},
}


def default_threads() -> int:
    """SATURA_THREADS when set, else the CPUs this process may run on."""
    env = os.environ.get("SATURA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"SATURA_THREADS must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


class _TrialTimeout(Exception):
    pass


@contextmanager
def _alarm(seconds):
    """SIGALRM-based per-trial wall clock cap; no-op when seconds is falsy."""
    if not seconds:
        yield
        return

    def handler(signum, frame):
        raise _TrialTimeout

    old = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@dataclass(frozen=True)
class Outcome:
    kind: str          # "ok" | "timeout" | "degenerate" | "error"
    result: object     # fn's return value when kind is "ok", else None
    elapsed: float
    message: str = ""  # the exception text of an "error"


def run_capped(fn, timeout_s) -> Outcome:
    """Call fn() under a wall-clock cap and classify how it ended.

    A NotZeroDimensional is a degenerate draw; any other exception is an
    error whose message is kept, so a batch or sweep survives it.  The
    cap uses SIGALRM, which exists on POSIX only and works only in the
    main thread; a falsy timeout_s runs uncapped.
    """
    start = time.perf_counter()
    try:
        with _alarm(timeout_s):
            result = fn()
        return Outcome("ok", result, time.perf_counter() - start)
    except _TrialTimeout:
        kind, message = "timeout", ""
    except NotZeroDimensional:
        kind, message = "degenerate", ""
    except Exception as exc:  # crash bucket; batch must survive
        kind, message = "error", str(exc)
    return Outcome(kind, None, time.perf_counter() - start, message)


def _run_one(payload):
    """One trial, exception-proof; runs in a worker process or inline."""
    inst, i, p, seed, timeout_s = payload
    out = run_capped(lambda: compute_gi(inst, i, prime_field(p), seed),
                     timeout_s)
    kind, value = out.kind, None
    if kind == "ok":
        kind = "unit" if out.result.unit else "value"
        value = out.result.value
    return {"kind": kind, "value": value, "elapsed": out.elapsed,
            "message": out.message}


@dataclass(frozen=True)
class TrialReport:
    problem: str
    i: int
    prime: int
    trials: int
    seed: int
    reference: Optional[int]
    reference_source: str      # "table" | "modal" | "explicit"
    successes: int
    histogram: dict            # bucket -> count
    errors: dict               # message of an "error" trial -> count
    wall_time: float
    time_stats: dict           # min/max/mean/median over per-trial seconds

    @property
    def success_fraction(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def failures(self) -> int:
        """Trials that did not finish: the error and timeout buckets."""
        return self.histogram.get("error", 0) + self.histogram.get("timeout", 0)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "trials",
            "problem": self.problem, "i": self.i, "prime": self.prime,
            "trials": self.trials, "seed": self.seed,
            "reference": self.reference,
            "reference_source": self.reference_source,
            "successes": self.successes,
            "success_fraction": self.success_fraction,
            "histogram": dict(sorted(self.histogram.items())),
            "errors": dict(sorted(self.errors.items())),
            "wall_time": self.wall_time,
            "time_stats": self.time_stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["field", "value"])
        d = self.to_dict()
        for key in ("schema_version", "kind", "problem", "i", "prime", "trials",
                    "seed", "reference", "reference_source", "successes",
                    "success_fraction", "wall_time"):
            w.writerow([key, d[key]])
        for bucket, count in d["histogram"].items():
            w.writerow([f"histogram:{bucket}", count])
        for message, count in d["errors"].items():
            w.writerow([f"errors:{message}", count])
        for key, v in d["time_stats"].items():
            w.writerow([f"time_stats:{key}", v])
        return buf.getvalue()


def _summary(times) -> dict:
    if not times:
        return {}
    return {
        "min": min(times), "max": max(times),
        "mean": statistics.fmean(times), "median": statistics.median(times),
    }


def _resolve_timeout(timeout_s, i: int) -> Optional[float]:
    """timeout_s, or for "auto" 60 s when i >= 6 and none below: g5
    (31-65 s on a 2-core box) and smaller i cells are long-running
    extended targets, so they stay uncapped."""
    if timeout_s == "auto":
        return 60.0 if i >= 6 else None
    return timeout_s


def run_trials(problem, i: int, p: int, trials: int, seed: int,
               threads: Optional[int] = None, reference: Optional[int] = None,
               timeout_s="auto") -> TrialReport:
    """N independent compute_gi draws; success = agreeing with the
    reference value (built-in table, else the batch's modal value)."""
    if trials < 0:
        raise ValueError("trials must be non-negative")
    timeout_s = _resolve_timeout(timeout_s, i)
    threads = threads or default_threads()
    payloads = [(problem, i, p, split_seed(seed, t), timeout_s)
                for t in range(trials)]
    start = time.perf_counter()
    if threads == 1 or trials <= 1:
        outcomes = [_run_one(pl) for pl in payloads]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_run_one, payloads, chunksize=1))
    wall = time.perf_counter() - start

    histogram, errors = {}, {}
    times = []
    for out in outcomes:
        bucket = str(out["value"]) if out["kind"] == "value" else out["kind"]
        histogram[bucket] = histogram.get(bucket, 0) + 1
        if out["kind"] == "error":
            errors[out["message"]] = errors.get(out["message"], 0) + 1
        times.append(out["elapsed"])

    source = "explicit"
    if reference is None:
        reference = REFERENCE_VALUES.get(problem.name, {}).get(i)
        source = "table"
    if reference is None:
        source = "modal"
        value_buckets = {int(k): v for k, v in histogram.items() if k.isdigit()}
        if value_buckets:
            reference = max(sorted(value_buckets), key=lambda k: value_buckets[k])
    successes = histogram.get(str(reference), 0) if reference is not None else 0
    return TrialReport(problem.name, i, p, trials, seed, reference, source,
                       successes, histogram, errors, wall, _summary(times))


@dataclass(frozen=True)
class CellTable:
    """gi_table / hilbert_table share this shape: one record per cell."""

    kind: str
    problem: str
    seed: Optional[int]
    cells: tuple

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "problem": self.problem,
            "seed": self.seed,
            "cells": list(self.cells),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        keys = sorted({k for c in self.cells for k in c})
        w.writerow(keys)
        for c in self.cells:
            w.writerow([c.get(k, "") for k in keys])
        return buf.getvalue()

    @property
    def failures(self) -> int:
        return sum(1 for c in self.cells if c.get("value") == "-")

    def value(self, **match):
        for c in self.cells:
            if all(c.get(k) == v for k, v in match.items()):
                return c.get("value")
        return None


def _checkpoint_header(problem, seed: int) -> dict:
    """What a checkpoint's cells depend on besides (i, prime).

    The system is identified by CRC-32, which is enough to catch a file
    from another run; hashlib would load OpenSSL, about 3.5 MB more
    resident memory in every process that imports satura.
    """
    system = json.dumps(polys_to_json(list(problem.polys)), sort_keys=True)
    return {"schema_version": SCHEMA_VERSION,
            "problem": problem.name,
            "system_crc32": zlib.crc32(system.encode()),
            "seed": seed}


def _load_checkpoint(path, header: dict) -> dict:
    """Finished cells from path; refuses a file written for another run."""
    if not (path and os.path.exists(path)):
        return {}
    with open(path) as fh:
        stored = json.load(fh)
    if stored.get("header") != header:
        raise ValueError(
            f"checkpoint {path} was not written for this problem, system "
            f"and seed ({stored.get('header')} != {header})")
    return {tuple(k.split("|")): v for k, v in stored["cells"].items()}


def _save_checkpoint(path, header: dict, done: dict) -> None:
    if not path:
        return
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump({"header": header,
                   "cells": {"|".join(k): v for k, v in done.items()}}, fh)
    os.replace(tmp, path)


def _table_cell(key: dict, out: Outcome) -> dict:
    """One table record: the cell key, then the fields the run returned,
    or value "-" with the outcome and any error message."""
    cell = dict(key)
    if out.kind == "ok":
        cell.update(out.result)
    else:
        cell.update(value="-", outcome=out.kind)
        if out.message:
            cell["message"] = out.message
    cell["elapsed"] = round(out.elapsed, 3)
    return cell


def gi_table(problem, i_list, prime_list, seed: int, timeout_s="auto",
             checkpoint: Optional[str] = None) -> CellTable:
    """One randomized g_i per (i, p) cell; long sweeps are resumable.

    A cell that did not finish records value "-", matching the usual
    convention for runs that failed to finish, with its outcome.
    """
    header = _checkpoint_header(problem, seed)
    done = _load_checkpoint(checkpoint, header)
    cells = []
    for i in i_list:
        cap = _resolve_timeout(timeout_s, i)
        for p in prime_list:
            key = (str(i), str(p))
            if key in done:
                cells.append(done[key])
                continue
            cell_seed = split_seed(split_seed(seed, i), p)

            def count():
                r = compute_gi(problem, i, prime_field(p), cell_seed)
                return {"value": r.value, **({"unit": True} if r.unit else {})}

            cell = _table_cell({"i": i, "prime": p, "seed": cell_seed},
                               run_capped(count, cap))
            done[key] = cell
            _save_checkpoint(checkpoint, header, done)
            cells.append(cell)
    return CellTable("gi_table", problem.name, seed, tuple(cells))


def hilbert_table(problem, i_list, p: int, d_max: int, seed: int,
                  timeout_s="auto") -> CellTable:
    """Affine Hilbert function rows, one per i, at a single prime."""
    require_degree_compatible(problem.ring)
    cells = []
    for i in i_list:
        cell_seed = split_seed(split_seed(seed, i), p)

        def row():
            params = draw_parameters(i, problem.n, problem.r, prime_field(p),
                                     cell_seed)
            basis = buchberger(build_saturated_system(problem, params).generators)
            prof = affine_hilbert_function(basis, d_max)
            return {"value": list(prof.row()), "stabilized_at": prof.stabilized_at,
                    "stable_value": prof.stable_value}

        cells.append(_table_cell({"i": i, "prime": p, "seed": cell_seed},
                                 run_capped(row, _resolve_timeout(timeout_s, i))))
    return CellTable("hilbert_table", problem.name, seed, tuple(cells))
