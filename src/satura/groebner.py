"""Groebner bases over exact fields via Buchberger's algorithm.

Pair handling uses Gebauer-Moeller pruning with the normal selection
strategy (minimal lcm degree first).  Internally monomials are packed
into single integers whose natural comparison realizes the active order,
so heap pops, divisibility tests and monomial products are plain int
arithmetic; exponent tuples only appear at the API boundary.

Over the rationals intermediate generators are rescaled to integer
content 1; final reduced bases are monic and sorted ascending by leading
monomial, which makes them unique for a given ideal and order.
"""

import heapq
from functools import lru_cache

from .arith import RationalField, primitive_scale
from .poly import Polynomial, PolyRing

_WIDTH = 16
_EXP_CAP = (1 << (_WIDTH - 1)) - 1  # guard bit per field must stay clear


class NotZeroDimensional(ValueError):
    """The quotient by the ideal is not a finite-dimensional vector space."""


class _Codec:
    """Packs exponent tuples into ints so that int comparison = the order."""

    __slots__ = ("n", "shifts", "guards", "mask", "complement", "one", "degshift")

    def __init__(self, n: int, order_name: str):
        self.n = n
        w = _WIDTH
        self.mask = (1 << w) - 1
        if order_name == "grevlex":
            # layout [deg | cap-e_n | ... | cap-e_1]; bigger int = bigger monomial
            self.shifts = tuple(j * w for j in range(n))
            self.degshift = n * w
            self.complement = True
        elif order_name == "lex":
            # layout [e_1 | e_2 | ... | e_n]
            self.shifts = tuple((n - 1 - j) * w for j in range(n))
            self.degshift = None
            self.complement = False
        else:
            raise ValueError(f"unsupported order {order_name!r}")
        self.guards = 0
        for s in self.shifts:
            self.guards |= 1 << (s + w - 1)
        self.one = self.pack((0,) * n)

    def pack(self, m) -> int:
        if self.complement:
            p = sum(m) << self.degshift
            for e, s in zip(m, self.shifts):
                if e > _EXP_CAP:
                    raise OverflowError(f"exponent {e} exceeds packing width")
                p |= (_EXP_CAP - e) << s
            return p
        p = 0
        for e, s in zip(m, self.shifts):
            if e > _EXP_CAP:
                raise OverflowError(f"exponent {e} exceeds packing width")
            p |= e << s
        return p

    def unpack(self, p: int) -> tuple:
        if self.complement:
            return tuple(_EXP_CAP - ((p >> s) & self.mask) for s in self.shifts)
        return tuple((p >> s) & self.mask for s in self.shifts)

    def divides(self, a: int, b: int) -> bool:
        """True when monomial a divides monomial b."""
        if self.complement:
            return not ((a - b) & self.guards)
        return not ((b - a) & self.guards)


@lru_cache(maxsize=None)
def _codec(n: int, order_name: str) -> _Codec:
    return _Codec(n, order_name)


def _codec_for(ring: PolyRing) -> _Codec:
    return _codec(ring.nvars, ring.order.name)


def _to_packed(f: Polynomial, codec: _Codec) -> dict:
    return {codec.pack(m): c for m, c in f.terms}


def _from_packed(d: dict, codec: _Codec, ring: PolyRing) -> Polynomial:
    return Polynomial(
        ring, tuple((codec.unpack(p), d[p]) for p in sorted(d, reverse=True)))


def _make_primitive(d: dict) -> None:
    """Rescale rational coefficients in place: integer, content 1, lead > 0."""
    scale = primitive_scale(d.values())
    if d[max(d)] < 0:
        scale = -scale
    for p in d:
        d[p] *= scale


def _normalize(d: dict, rational: bool, field) -> None:
    """Canonical scaling: content 1 over Q, monic over a prime field."""
    if rational:
        _make_primitive(d)
    else:
        c = field.inv(d[max(d)])
        if c != 1:
            p = field.p
            for m in d:
                d[m] = d[m] * c % p


def _prepare(d: dict, field):
    """Reducer record (lm, 1/lc, tail) from a packed term dict."""
    lead = max(d)
    inv = field.inv(d[lead])
    tail = tuple((p, c) for p, c in sorted(d.items(), reverse=True) if p != lead)
    return (lead, inv, tail)


def _nf_packed(f: dict, reducers, field, guards, complement) -> dict:
    """Full normal form of a packed term dict against prepared reducers."""
    coeffs = dict(f)
    heap = [-p for p in coeffs]
    heapq.heapify(heap)
    out = {}
    zero = field.zero
    fmul, fsub, fneg = field.mul, field.sub, field.neg
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        m = -pop(heap)
        c = coeffs.pop(m, None)
        if c is None:
            continue  # stale entry for a cancelled monomial
        hit = None
        if complement:
            for r in reducers:
                if not ((r[0] - m) & guards):
                    hit = r
                    break
        else:
            for r in reducers:
                if not ((m - r[0]) & guards):
                    hit = r
                    break
        if hit is None:
            out[m] = c
            continue
        factor = fmul(c, hit[1])
        shift = m - hit[0]
        for tm, tc in hit[2]:
            mm = tm + shift
            old = coeffs.get(mm)
            if old is None:
                coeffs[mm] = fneg(fmul(factor, tc))
                push(heap, -mm)
            else:
                new = fsub(old, fmul(factor, tc))
                if new == zero:
                    del coeffs[mm]
                else:
                    coeffs[mm] = new
    return out


def _spoly_packed(df: dict, dg: dict, L: int, field) -> dict:
    lf, lg = max(df), max(dg)
    cf, cg = field.inv(df[lf]), field.inv(dg[lg])
    sf, sg = L - lf, L - lg
    out = {}
    zero = field.zero
    for p, c in df.items():
        out[p + sf] = field.mul(c, cf)
    for p, c in dg.items():
        q = p + sg
        s = field.sub(out.get(q, zero), field.mul(c, cg))
        if s == zero:
            out.pop(q, None)
        else:
            out[q] = s
    return out


class GroebnerBasis:
    """A reduced Groebner basis: monic, interreduced, sorted by leading monomial."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: PolyRing, generators: tuple):
        self.ring = ring
        self.generators = generators

    @property
    def leading_monomials(self) -> tuple:
        return tuple(g.lm() for g in self.generators)

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].degree() == 0

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self)

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis) and other.ring == self.ring
                and other.generators == self.generators)

    def __hash__(self):
        return hash((self.ring, self.generators))

    def __repr__(self):
        return f"GroebnerBasis({len(self.generators)} generators, {self.ring!r})"


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the given polynomials (full reduction).

    Deterministic: reducers are tried in list order, monomials largest first.
    """
    polys = list(basis.generators if isinstance(basis, GroebnerBasis) else basis)
    ring = f.ring
    for g in polys:
        if g.ring != ring:
            raise ValueError("normal form across different rings")
    codec = _codec_for(ring)
    reducers = [_prepare(_to_packed(g, codec), ring.field)
                for g in polys if not g.is_zero()]
    if not reducers:
        return f
    out = _nf_packed(_to_packed(f, codec), reducers, ring.field,
                     codec.guards, codec.complement)
    return _from_packed(out, codec, ring)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) = (L/lt f) f - (L/lt g) g with L = lcm of the leading monomials."""
    ring = f.ring
    if g.ring != ring:
        raise ValueError("S-polynomial across different rings")
    codec = _codec_for(ring)
    L = codec.pack(tuple(max(a, b) for a, b in zip(f.lm(), g.lm())))
    out = _spoly_packed(_to_packed(f, codec), _to_packed(g, codec), L, ring.field)
    return _from_packed(out, codec, ring)


def buchberger(gens, autoreduce: bool = True) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Shuffling the input changes only the work performed, never the result.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators from different rings")
    field = ring.field
    rational = isinstance(field, RationalField)
    codec = _codec_for(ring)
    guards, complement, one = codec.guards, codec.complement, codec.one

    work = [_to_packed(g, codec) for g in gens if not g.is_zero()]
    if not work:
        return GroebnerBasis(ring, ())
    for d in work:
        _normalize(d, rational, field)

    if autoreduce:
        work = _autoreduce(work, field, guards, complement, rational)
    if any(max(d) == one for d in work):
        return GroebnerBasis(ring, (ring.one(),))

    polys = []      # packed dicts, addressable by index forever
    prepared = []   # matching reducer records
    lm_tuples = []
    live = []       # indices forming the current minimal working basis
    pairs = {}      # (i, j) -> (lcm degree, packed lcm)

    def add_generator(d: dict):
        t = len(polys)
        polys.append(d)
        rec = _prepare(d, field)
        prepared.append(rec)
        lt_packed = rec[0]
        lt_tuple = codec.unpack(lt_packed)
        lm_tuples.append(lt_tuple)
        deg_t = sum(lt_tuple)

        cand = []
        for i in live:
            lcm_t = tuple(max(a, b) for a, b in zip(lm_tuples[i], lt_tuple))
            cand.append((i, codec.pack(lcm_t), sum(lcm_t)))
        # new-pair pruning: drop strictly dominated lcms, keep one per class,
        # and skip pairs with coprime leading monomials entirely
        for idx, (i, L, dL) in enumerate(cand):
            coprime = dL == sum(lm_tuples[i]) + deg_t
            dominated = False
            for jdx, (_, L2, _) in enumerate(cand):
                if jdx == idx or not codec.divides(L2, L):
                    continue
                if L2 != L or jdx < idx:
                    dominated = True
                    break
            if dominated or coprime:
                continue
            pairs[(i, t)] = (dL, L)
        # old-pair pruning: the chain criterion against the new leading term
        for key in list(pairs):
            i, j = key
            if j == t:
                continue
            _, Lij = pairs[key]
            if codec.divides(lt_packed, Lij):
                lcm_it = codec.pack(
                    tuple(max(a, b) for a, b in zip(lm_tuples[i], lt_tuple)))
                lcm_jt = codec.pack(
                    tuple(max(a, b) for a, b in zip(lm_tuples[j], lt_tuple)))
                if lcm_it != Lij and lcm_jt != Lij:
                    del pairs[key]
        live[:] = [i for i in live if not codec.divides(lt_packed, prepared[i][0])]
        live.append(t)

    for d in work:
        add_generator(d)

    while pairs:
        key = min(pairs, key=lambda ij: (pairs[ij][0], pairs[ij][1], ij))
        i, j = key
        _, L = pairs.pop(key)
        s = _spoly_packed(polys[i], polys[j], L, field)
        if not s:
            continue
        reducers = [prepared[k] for k in live]
        h = _nf_packed(s, reducers, field, guards, complement)
        if not h:
            continue
        if max(h) == one:
            return GroebnerBasis(ring, (ring.one(),))
        _normalize(h, rational, field)
        add_generator(h)

    # single interreduction pass over the minimal basis, then monic scaling
    final = []
    live_sorted = sorted(live, key=lambda k: prepared[k][0])
    for k in live_sorted:
        others = [prepared[m] for m in live_sorted if m != k]
        h = _nf_packed(polys[k], others, field, guards, complement)
        if rational:
            c = h[max(h)]
            for p in h:
                h[p] = h[p] / c
        else:
            _normalize(h, rational, field)
        final.append(h)
    final.sort(key=max)
    return GroebnerBasis(ring, tuple(_from_packed(h, codec, ring) for h in final))


def _autoreduce(work, field, guards, complement, rational):
    """Mutually reduce the inputs until stable; drops redundant generators."""
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            if work[i] is None:
                continue
            reducers = [_prepare(d, field)
                        for j, d in enumerate(work) if j != i and d is not None]
            if not reducers:
                continue
            h = _nf_packed(work[i], reducers, field, guards, complement)
            if h != work[i]:
                changed = True
                if h:
                    _normalize(h, rational, field)
                work[i] = h if h else None
    return [d for d in work if d is not None]


def is_zero_dimensional(basis: GroebnerBasis) -> bool:
    """Finite quotient test: every variable shows up as a pure leading power."""
    if not basis.generators:
        return False
    n = basis.ring.nvars
    seen = [False] * n
    for m in basis.leading_monomials:
        support = [i for i, e in enumerate(m) if e]
        if not support:
            return True  # unit ideal
        if len(support) == 1:
            seen[support[0]] = True
    return all(seen)


def quotient_basis(basis: GroebnerBasis) -> list:
    """Standard monomials (exponent tuples, ascending order) of a
    zero-dimensional ideal; these span the quotient as a vector space."""
    if not is_zero_dimensional(basis):
        raise NotZeroDimensional(
            "the leading-term ideal lacks a pure power in some variable")
    ring = basis.ring
    n = ring.nvars
    lms = basis.leading_monomials
    start = (0,) * n

    def divisible(m):
        for lm in lms:
            if all(a <= b for a, b in zip(lm, m)):
                return True
        return False

    if divisible(start):
        return []
    standard = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for m in frontier:
            for i in range(n):
                child = m[:i] + (m[i] + 1,) + m[i + 1:]
                if child in standard or divisible(child):
                    continue
                standard.add(child)
                fresh.append(child)
        frontier = fresh
    return sorted(standard, key=ring.key)


def ideal_degree(basis: GroebnerBasis) -> int:
    """Vector-space dimension of the quotient ring; 0 for the unit ideal."""
    return len(quotient_basis(basis))


def verify_groebner(basis, gens=None) -> bool:
    """Post-hoc check: every S-polynomial of the basis reduces to zero,
    and (optionally) every original generator lies in the spanned ideal."""
    polys = list(basis.generators if isinstance(basis, GroebnerBasis) else basis)
    polys = [g for g in polys if not g.is_zero()]
    if not polys:
        return gens is None or all(g.is_zero() for g in gens)
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            if not normal_form(s_polynomial(polys[a], polys[b]), polys).is_zero():
                return False
    if gens is not None:
        for g in gens:
            if not normal_form(g, polys).is_zero():
                return False
    return True
