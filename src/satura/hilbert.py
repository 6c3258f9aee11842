"""Affine Hilbert functions, symbolic-reduction bounds and Veronese ranks.

HF_I(d) is read off a degree-compatible Groebner basis as the number of
standard monomials of total degree at most d.  Two independent bounds
bracket it without a basis: jde_dimension gives an upper bound from the
degree-(d+e) truncated span of the generators, and the rank of a
Veronese matrix at known solutions gives a lower bound.  The module
also emits the well-constrained certification system that pins k
solutions to a rank statement; it never solves or certifies anything
itself.
"""

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd
from typing import Optional

from .arith import PackedEchelon, primitive_scale
from .groebner import standard_monomials
from .poly import (PolyRing, evaluate_monomials, exact_degree_monomials,
                   mono_mul, monomials_up_to_degree, polys_to_json)


class OrderNotDegreeCompatible(ValueError):
    """The affine Hilbert function needs a degree-compatible order."""


class BudgetExceeded(ValueError):
    """p^n points is past the brute-force enumeration budget."""


class SingularSubmatrix(ValueError):
    """The selected Veronese columns are not invertible at the points."""


class DuplicatePoints(UserWarning):
    pass


@dataclass(frozen=True)
class HilbertProfile:
    values: dict                 # d -> HF(d), for d in [0, d_max]
    stabilized_at: Optional[int]
    stable_value: Optional[int]

    def row(self) -> tuple:
        return tuple(self.values[d] for d in sorted(self.values))


def affine_hilbert_function(basis, d_max: int) -> HilbertProfile:
    """HF(d) for d in [0, d_max], with plateau detection, from a
    `GroebnerBasis` or a `LeadingIdeal`.

    A plateau is definitive: a standard monomial of degree d+1 has a
    standard divisor of degree d, so one flat step means flat forever.
    """
    order = basis.ring.order
    if not order.degree_compatible:
        raise OrderNotDegreeCompatible(
            f"{order.name} does not refine total degree")
    if d_max < 0:
        raise ValueError("d_max must be non-negative")
    degrees = [sum(m) for m in standard_monomials(basis, d_max)]
    per = [0] * (d_max + 2)
    for t in degrees:
        per[t] += 1
    values, total = {}, 0
    for d in range(d_max + 1):
        total += per[d]
        values[d] = total
    # the first empty degree ends the staircase; no standard monomial at
    # all (the unit ideal) is flat from 0
    stabilized_at = next((d for d in range(d_max) if per[d + 1] == 0),
                         None if degrees else 0)
    stable = values[stabilized_at] if stabilized_at is not None else None
    return HilbertProfile(values, stabilized_at, stable)


@lru_cache(maxsize=None)
def monomial_columns(n: int, d: int) -> tuple:
    """Canonical enumeration: ascending degree, descending lex inside
    a degree block.  Length C(n+d, d)."""
    out = []
    for deg in range(d + 1):
        block = sorted(exact_degree_monomials(n, deg), reverse=True)
        out.extend(block)
    return tuple(out)


def _strip_content(row: dict) -> None:
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _echelon_insert(pivots: dict, row: dict) -> Optional[int]:
    """Reduce one sparse integer row {column: int} against the pivot
    rows over Q; register and return its pivot column, or None when it
    vanishes.

    Fraction-free: pivot rows are integers of content 1 with a positive
    lead, a pending entry c against a pivot lead a scales the row by a/g
    and subtracts (c/g) * pivot, g = gcd(a, c), and stripping the
    content after each step keeps entries small.  The leading column is
    the highest, as in `PackedEchelon`, and the rank is len(pivots).
    """
    while row:
        col = max(row)
        c = row[col]
        piv = pivots.get(col)
        if piv is None:
            _strip_content(row)
            if c < 0:
                for k in row:
                    row[k] = -row[k]
            pivots[col] = row
            return col
        a = piv[col]
        g = gcd(a, c)
        if g != a:
            a //= g
            for k in row:
                row[k] *= a
        c //= g
        for k, v in piv.items():
            nv = row.get(k, 0) - c * v
            if nv:
                row[k] = nv
            else:
                row.pop(k, None)
        _strip_content(row)
    return None


def _pivot_columns(rows, ncols: int, mod) -> set:
    """Pivot columns of an echelon form of sparse rows {column: entry},
    the highest column leading: fraction-free over Q (mod None), where
    entries are integers, and on `PackedEchelon` over F_p."""
    if mod is None:
        pivots = {}
        for row in rows:
            _echelon_insert(pivots, row)
        return set(pivots)
    ech = PackedEchelon(mod, ncols)
    for row in rows:
        ech.insert(ech.pack(row.items()))
    return set(ech.pivots)


def _rank(rows, field) -> int:
    """Exact rank of dense rows of field elements; over Q each row is
    made integer with content 1 before the elimination."""
    mod = field.p
    sparse, ncols = [], 0
    for row in rows:
        ncols = max(ncols, len(row))
        row = {j: v for j, v in enumerate(row) if v}
        if mod is None and row:
            s = primitive_scale(row.values())
            row = {j: int(v * s) for j, v in row.items()}
        sparse.append(row)
    return len(_pivot_columns(sparse, ncols, mod))


def jde_dimension(h, d: int, e: int):
    """dim of the degree-<=d slice of the span of all m*h_i with
    deg(m*h_i) <= d+e, and the Hilbert upper bound C(n+d,d) - dim.

    Columns are numbered from low degree up and the highest column
    leads, so pivots among the first C(n+d, d) columns count exactly the
    vectors of the span that live in degree <= d.

    All Macaulay rows are built first and inserted in ascending order of
    leading monomial (the sort is stable, so ties keep generation
    order), as in F4's linear algebra: this keeps the reduction chains
    short.  The set of pivot columns of an
    echelon form depends only on the row space, so the count does not
    depend on the order.
    """
    if d < 0 or e < 0:
        raise ValueError("d and e must be non-negative")
    h = [f for f in h if not f.is_zero()]
    if not h:
        raise ValueError("empty system")
    ring = h[0].ring
    n, mod = ring.nvars, ring.field.p
    D = d + e
    cols = monomials_up_to_degree(n, D)
    index = {m: j for j, m in enumerate(reversed(cols))}
    low = comb(n + d, d)

    rows = []
    for f in h:
        df = f.degree()
        if df > D:
            continue
        terms = f.terms
        if mod is None:
            s = primitive_scale(c for _, c in terms)
            terms = [(fm, int(c * s)) for fm, c in terms]
        for deg in range(D - df + 1):
            for m in exact_degree_monomials(n, deg):
                rows.append({index[mono_mul(fm, m)]: c for fm, c in terms})
    rows.sort(key=max)
    dim = sum(1 for c in _pivot_columns(rows, len(cols), mod) if c < low)
    return dim, low - dim


@dataclass(frozen=True)
class VeroneseMatrix:
    points: tuple
    degree: int
    columns: tuple   # monomial enumeration, length C(n+d,d)
    entries: tuple   # k rows of field elements

    @property
    def shape(self):
        return len(self.entries), len(self.columns)


def veronese_matrix(points, d: int, field) -> VeroneseMatrix:
    """Row j holds every monomial of degree <= d evaluated at point j."""
    points = [tuple(pt) for pt in points]
    if not points:
        raise ValueError("at least one point is required")
    n = len(points[0])
    if any(len(pt) != n for pt in points):
        raise ValueError("points of mixed dimension")
    cols = monomial_columns(n, d)
    rows = tuple(evaluate_monomials(pt, cols, field) for pt in points)
    return VeroneseMatrix(tuple(points), d, cols, rows)


def veronese_rank_lower_bound(points, d: int, field) -> int:
    """rank M_d(points); a lower bound for HF(d) of any ideal whose
    solution set the (distinct, verified) points belong to."""
    seen, unique = set(), []
    for pt in points:
        key = tuple(pt)
        if key in seen:
            warnings.warn("duplicate points dropped", DuplicatePoints)
            continue
        seen.add(key)
        unique.append(key)
    return _rank(veronese_matrix(unique, d, field).entries, field)


def find_points_bruteforce(system, budget: int = 10 ** 7) -> list:
    """All F_p-rational common zeros, by exhaustive sweep.

    Desk-scale oracle: radical ideals with all solutions rational have
    exactly ideal_degree of them.
    """
    polys = list(system)
    if not polys:
        raise ValueError("empty system")
    ring = polys[0].ring
    field = ring.field
    if field.p is None:
        raise ValueError("brute force needs a prime field")
    p, n = field.p, ring.nvars
    if p ** n > budget:
        raise BudgetExceeded(f"{p}^{n} exceeds the budget {budget}")
    pts = []
    from itertools import product

    for pt in product(range(p), repeat=n):
        if all(f.evaluate(pt) == 0 for f in polys):
            pts.append(pt)
    return pts


@dataclass(frozen=True)
class CertificationSystem:
    polynomials: tuple   # k*n + k*k equations over a fresh y/L ring
    columns: tuple       # the k selected monomials
    points: tuple
    degree: int

    @property
    def ring(self):
        return self.polynomials[0].ring

    def to_json(self) -> str:
        payload = polys_to_json(list(self.polynomials))
        payload["columns"] = [list(m) for m in self.columns]
        payload["degree"] = self.degree
        return json.dumps(payload)


def emit_certification_system(system, points, d: int, columns) -> CertificationSystem:
    """The well-constrained system pinning k solutions: G(y_i) for each
    point slot plus Lambda * S_d(y) - I, in kn + k^2 variables.

    Emission only; the caller hands the file to an external certifier.
    """
    polys = list(system)
    if not polys:
        raise ValueError("empty system")
    ring = polys[0].ring
    field = ring.field
    n = ring.nvars
    k = len(points)
    if len(columns) != k:
        raise ValueError(f"need exactly k = {k} columns, got {len(columns)}")
    if len(polys) != n:
        raise ValueError(
            f"well-constrained emission needs n = {n} generators, got {len(polys)}")
    columns = [ring.monomial(m).lm() for m in columns]  # PolyRing.poly checks m
    for m in columns:
        if sum(m) > d:
            raise ValueError(f"column {m} is not a degree-<={d} monomial")
    # invertibility of S_d at the points, checked exactly
    S = [evaluate_monomials(pt, columns, field) for pt in points]
    if _rank(S, field) != k:
        raise SingularSubmatrix(
            "selected columns are singular at the points; choose others")

    names = [f"y{i + 1}_{v}" for i in range(k) for v in ring.vars]
    names += [f"L{i + 1}_{j + 1}" for i in range(k) for j in range(k)]
    big = PolyRing(names, field, ring.order)
    nv = len(names)

    gens = []
    for i in range(k):
        # G(y_i): source variable v becomes coordinate y{i+1}_v
        offset = i * n
        for f in polys:
            terms = []
            for m, c in f.terms:
                exps = [0] * nv
                for t, e in enumerate(m):
                    exps[offset + t] = e
                terms.append((tuple(exps), c))
            gens.append(big.poly(terms))
    lam_base = k * n
    for i in range(k):
        for j in range(k):
            # row i of Lambda . S_d(y) minus the identity, entry (i, j)
            terms = []
            if i == j:
                terms.append(((0,) * nv, -1))
            for l in range(k):
                exps = [0] * nv
                exps[lam_base + i * k + l] = 1
                for t, e in enumerate(columns[j]):
                    exps[l * n + t] = e
                terms.append((tuple(exps), 1))
            gens.append(big.poly(terms))
    assert len(gens) == k * n + k * k
    return CertificationSystem(tuple(gens), tuple(columns), tuple(tuple(pt) for pt in points), d)
