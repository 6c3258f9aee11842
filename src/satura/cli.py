"""Command line front end.

Exit codes: 0 success, 2 validation problems, 3 when a run finished
but a cell or trial failed (timeout or error), mirroring unfinished-cell
dashes in printed tables.  A single g_i query is a one-cell table.
"""

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from .arith import QQ, prime_field
from .bounds import BoundsInput, bounds_report
from .groebner import buchberger, ideal_degree, is_zero_dimensional
from .harness import gi_table, hilbert_table, run_trials
from .hilbert import emit_certification_system, jde_dimension
from .poly import GREVLEX, order_from_name, polys_from_json, polys_to_json
from .problems import PROBLEMS, ProblemInstance, get_problem
from .saturate import draw_parameters


def _load_system(path, order):
    with open(path) as fh:
        return polys_from_json(json.load(fh), order)


def _resolve_problem(spec: str) -> ProblemInstance:
    """A built-in problem, or a file: system in grevlex."""
    if spec.startswith("file:"):
        path = spec[5:]
        ring, polys = _load_system(path, GREVLEX)
        return ProblemInstance(path, ring, tuple(polys))
    return get_problem(spec)


def _emit(text: str, out_path: str = None) -> None:
    """Write text, ending in one newline, to out_path or stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_list(text: str):
    out = [int(x) for x in text.split(",") if x.strip() != ""]
    if not out:
        raise ValueError(f"expected a comma list of integers, got {text!r}")
    return out


def _checked(flag, values, check):
    """values, each refused with exit 2 unless check takes it, so a bad
    --prime or --i stops a run before any cell or trial starts."""
    for x in values:
        try:
            check(x)
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None
    return values


def _check_indices(problem, indices):
    """indices, each refused unless draw_parameters takes it for problem."""
    return _checked("--i", indices, lambda i: draw_parameters(
        i, problem.n, problem.r, QQ, 0))


def _at_least(kind, low):
    """An argparse type: kind(text), refused unless finite and >= low."""
    def convert(text: str):
        x = kind(text)
        if not low <= x < math.inf:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__} >= {low}, got {text!r}")
        return x
    convert.__name__ = kind.__name__  # argparse says "invalid int value: ..."
    return convert


# flags several subcommands share; each subcommand takes only those it reads
_SHARED = {
    "--seed": dict(type=int, default=2024, help="64-bit master seed"),
    "--threads": dict(type=_at_least(int, 1), default=None,
                      help="worker processes (default: SATURA_THREADS, else "
                           "the CPUs this process may run on)"),
    "--timeout-s": dict(type=_at_least(float, 0), default=None,
                        help="per-trial/cell wall clock cap in seconds"),
    "--out": dict(default=None, help="write output to this path"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--order": dict(choices=("grevlex", "lex"), default="grevlex"),
}


def _emit_run(run, args) -> int:
    """Write a trial report or cell table as JSON or CSV; exit code 3
    when a table cell or a trial failed, else 0."""
    _emit(run.to_csv() if args.format == "csv" else run.to_json(), args.out)
    return 3 if run.failures else 0


def _cmd_gb(args) -> int:
    ring, polys = _load_system(args.file, order_from_name(args.order))
    basis = buchberger(polys)
    payload = polys_to_json(list(basis.generators), basis.ring)
    payload["unit"] = basis.is_unit
    payload["degree"] = ideal_degree(basis) if is_zero_dimensional(basis) else None
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_gi(args) -> int:
    problem = _resolve_problem(args.problem)
    i_list = _check_indices(problem, _int_list(args.i))
    primes = _checked("--prime", _int_list(args.prime), prime_field)
    return _emit_run(gi_table(problem, i_list, primes, args.seed,
                              timeout_s=args.timeout_s,
                              checkpoint=args.checkpoint), args)


def _cmd_hilbert(args) -> int:
    problem = _resolve_problem(args.problem)
    _checked("--prime", [args.prime], prime_field)
    i_list = _check_indices(problem, _int_list(args.i))
    return _emit_run(hilbert_table(problem, i_list, args.prime, args.dmax,
                                   args.seed, timeout_s=args.timeout_s), args)


def _cmd_jde(args) -> int:
    polys = list(_resolve_problem(args.problem).polys)
    dim, bound = jde_dimension(polys, args.d, args.e)
    _emit(json.dumps({"d": args.d, "e": args.e, "dim": dim, "bound": bound},
                     indent=2), args.out)
    return 0


def _cmd_trials(args) -> int:
    problem = _resolve_problem(args.problem)
    _checked("--prime", [args.prime], prime_field)
    _check_indices(problem, [args.i])
    return _emit_run(run_trials(problem, args.i, args.prime, args.trials,
                                args.seed, threads=args.threads,
                                reference=args.reference,
                                timeout_s=args.timeout_s), args)


def _cmd_bounds(args) -> int:
    p = (1 << args.prime_exp) + 1 if args.prime_exp else None
    if args.degrees:
        degrees = _int_list(args.degrees)
        n = args.n or len(degrees)
        inp = BoundsInput.from_system(degrees, n, args.g_upper, p=p, nu=args.nu)
    else:
        for name in ("n", "r", "dmin", "dmax", "deg_v"):
            if getattr(args, name) is None:
                raise ValueError(f"--{name.replace('_', '-')} is required without --degrees")
        inp = BoundsInput(args.n, args.r, args.dmin, args.dmax, args.deg_v,
                          args.g_upper, p=p, nu=args.nu)
    target = Fraction(args.target) if args.target else None
    _emit(json.dumps(bounds_report(inp, target).to_dict(), indent=2), args.out)
    return 0


def _cmd_problems(args) -> int:
    if args.action == "list":
        rows = []
        for name in PROBLEMS:
            inst = _resolve_problem(name)
            rows.append({"name": name, "n": inst.n, "r": inst.r,
                         "degrees": list(inst.degrees()),
                         "base_locus_spaces": len(inst.base_locus)})
        if args.format == "json":
            _emit(json.dumps({"problems": rows}, indent=2), args.out)
        else:
            buf = io.StringIO()
            w = csv.DictWriter(buf, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
            _emit(buf.getvalue(), args.out)
        return 0
    if not args.name:
        raise ValueError("export needs --name")
    if args.format == "csv":
        raise ValueError("--format csv applies to list; export writes a JSON system")
    inst = _resolve_problem(args.name)
    _emit(json.dumps(polys_to_json(list(inst.polys), inst.ring), indent=2),
          args.out)
    return 0


def _cmd_emit_cert(args) -> int:
    _, polys = _load_system(args.file, order_from_name(args.order))
    with open(args.points) as fh:
        raw_pts = json.load(fh)
    field = polys[0].ring.field
    points = [tuple(field.from_str(x) for x in pt) for pt in raw_pts]
    with open(args.columns) as fh:
        columns = [tuple(m) for m in json.load(fh)]
    cert = emit_certification_system(polys, points, args.d, columns)
    _emit(cert.to_json(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="satura",
        description="Exact counting of polynomial-system solutions outside "
                    "a base locus, with luckiness bounds and Hilbert tooling.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, shared):
        g = sub.add_parser(name, help=help)
        for flag in shared.split():
            g.add_argument(flag, **_SHARED[flag])
        g.set_defaults(fn=fn)
        return g

    g = command("gb", _cmd_gb, "reduced Groebner basis of a JSON system", "--order --out")
    g.add_argument("--file", required=True)

    g = command("gi", _cmd_gi, "randomized g_i count(s)",
                "--seed --timeout-s --out --format")
    g.add_argument("--problem", required=True,
                   help="monomial-example | conics-affine | alt | conics-pstar | file:<path>")
    g.add_argument("--i", required=True, help="index or comma list")
    g.add_argument("--prime", required=True, help="prime or comma list")
    g.add_argument("--checkpoint", default=None, help="resumable cell store (JSON path)")

    g = command("hilbert", _cmd_hilbert, "affine Hilbert function rows",
                "--seed --timeout-s --out --format")
    g.add_argument("--problem", required=True)
    g.add_argument("--i", required=True, help="index or comma list")
    g.add_argument("--prime", type=int, required=True)
    g.add_argument("--dmax", type=_at_least(int, 0), default=8)

    g = command("jde", _cmd_jde, "dimension of the degree-(d+e) reduction space J_d^e",
                "--out")
    g.add_argument("--problem", required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--e", type=int, required=True)

    g = command("trials", _cmd_trials, "batched trials with histogram",
                "--seed --threads --timeout-s --out --format")
    g.add_argument("--problem", required=True)
    g.add_argument("--i", type=int, required=True)
    g.add_argument("--prime", type=int, required=True)
    g.add_argument("--trials", type=_at_least(int, 0), required=True)
    g.add_argument("--reference", type=int, default=None,
                   help="success value (default: built-in table, else modal)")

    g = command("bounds", _cmd_bounds, "probability and degree bounds", "--out")
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--r", type=int, default=None)
    g.add_argument("--dmin", type=int, default=None)
    g.add_argument("--dmax", type=int, default=None)
    g.add_argument("--deg-v", type=int, default=None, dest="deg_v")
    g.add_argument("--degrees", default=None, help="comma list; implies r, dmin, dmax, deg_v")
    g.add_argument("--g-upper", type=int, required=True, dest="g_upper")
    g.add_argument("--prime-exp", type=int, default=None, dest="prime_exp",
                   help="evaluate at p = 2^k + 1")
    g.add_argument("--nu", type=int, default=None)
    g.add_argument("--target", default=None, help="success target, e.g. 0.99")

    g = command("problems", _cmd_problems, "list or export built-in systems", "--out --format")
    g.add_argument("action", choices=("list", "export"))
    g.add_argument("--name", default=None)

    g = command("emit-cert", _cmd_emit_cert,
                "write the well-constrained certification system", "--order --out")
    g.add_argument("--file", required=True, help="specialized square system (JSON)")
    g.add_argument("--points", required=True, help="JSON list of points")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--columns", required=True, help="JSON list of exponent vectors")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
