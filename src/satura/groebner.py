"""Groebner bases over exact fields: F4 over F_p, Buchberger over Q.

Pair handling uses Gebauer-Moeller pruning with the normal selection
strategy (minimal lcm degree first).  Internally monomials are packed
into single integers whose natural comparison realizes the active order,
so heap pops, divisibility tests and monomial products are plain int
arithmetic; exponent tuples only appear at the API boundary.

`buchberger` runs one main loop for both fields: it takes a batch of
pairs off the queue, reduces their S-polynomials and hands every
nonzero result to the pair update.  Over F_p the batch is every pair of
the lowest lcm degree, reduced at once as in F4 (Faugere, JPAA 139,
1999): each pair enters as its two shifted generators, not as an
S-polynomial, symbolic preprocessing adds a shifted generator for every
reducible monomial, and one echelon pass runs on `PackedEchelon` rows,
which pack each coefficient into a fixed-width slot of one int so that
a row update is one C-level multiply-add.  Over Q the batch is the one
smallest pair, reduced fraction-free: F4 matrices over Q fill with
coefficients of hundreds of thousands of bits in a remainder-sequence
pattern, so the rational side keeps one pair at a time.

The kernels take the field's modulus `mod` (p for F_p, None for Q) and
do plain integer arithmetic.  Over F_p the normal form delays reduction:
a pending coefficient is reduced mod p only when its monomial is
reached, which is also when the reducer choice looks at it.

Over the rationals the kernels are fraction-free.  Generators and
reducers are integer-primitive (integer coefficients, content 1,
positive lead); a reduction step multiplies the pending polynomial by
a/g and subtracts c/g times the shifted reducer, for pending
coefficient c, reducer lead a and g = gcd(a, c).  Each remainder is a
positive multiple of the rational one, which the kernel returns beside
it, so `normal_form` and `s_polynomial` stay exact and rescaling to
content 1 gives the same generators.  Fractions appear only at the API
boundary and in the final monic scaling; final reduced bases are monic
and sorted ascending by leading monomial, which makes them unique for a
given ideal and order.

Each exponent packs into a field of w bits whose top (guard) bit stays
clear, so it holds up to 2^(w-1) - 1; a monomial formed during reduction
or symbolic preprocessing that sets a guard bit raises OverflowError
instead of wrapping.  `normal_form`, `s_polynomial` and
`verify_groebner` use 16-bit fields.  `buchberger` packs into 8-bit
fields first, which keeps a monomial of a small problem in one 30-bit
int digit, and on OverflowError reruns with 16-bit fields, where an
overflow raises.

`buchberger` eliminates the linear generators by substitution.  It
interreduces the linear inputs (Gauss-Jordan), so that each one reads
a x_v + tail with a leading variable x_v that occurs in no other, and
substitutes x_v = -tail/a into every other input, by Horner in one
variable at a time; this is the normal form by the linear generators,
which form a reduced basis.  After one autoreduction of the linear and
the substituted generators, the leading variable of a linear one
occurs in no other generator, so every pair it makes is coprime: it is
set aside, and the main loop runs on the other generators, packed in
the remaining variables.  Their final interreduction runs there too;
after lifting, only the tails of the set-aside generators are reduced
by them, since no term of theirs contains an eliminated variable.
`leading_ideal` runs the same steps up to the end of the main loop and
stops there: the live leading monomials and the set-aside linear ones
are those of the reduced basis, and g_i, Hilbert functions and the
other counts of standard monomials read nothing else.
`packed_leading_ideal` takes the generators already packed, at each
width tried, and runs the same steps: `saturate` counts g_i without
building a `Polynomial`.

Over F_p in a degree order the main loop stops once it can prove the
live set final, which spares the last matrices of a run: they add no
leading monomial and all their rows vanish.  When a matrix adds a lead
and the live leads hold a pure power of every variable, they leave D
standard monomials O, and `_certify` tries the border basis criterion
(Mourrain, AAECC-13, 1999; Kreuzer and Robbiano, Computational
Commutative Algebra 2, 6.4).  One packed matrix reduces every border
term x_j o outside O to O by full reduction (`PackedEchelon.reduce`),
which gives multiplication matrices M_j of size D; if they commute and
every main-loop input f has f(M) e_1 = 0, the live set is a Groebner
basis and the queued pairs are left (`GroebnerStats.pairs_certified`).
`buchberger`, `leading_ideal` and `packed_leading_ideal` all stop
there, and the final interreduction is unchanged, so bases, leading
ideals and counts are those of the full loop.  A trace replay certifies
its own draw and runs in full when the certificate refuses.

Draws of one batch often run the same F4 computation with other
coefficients.  An `F4Trace` records a full F_p run matrix by matrix
(S-pairs, reducer rows, sorted columns, new leading columns), and
`buchberger(gens, trace)` replays it on inputs whose main loop starts
from the record's leading monomials, with no pair update, pruning,
reducer search or column sort: Traverso's Groebner trace algorithms
(ISSAC 1988) and Joux and Vitse's F4Remake (CT-RSA 2011), but keeping
every S-row.  Each replayed matrix is checked against the record and a
mismatch reruns in full, so the basis is bit-identical either way.

A `deadline` caps the engine's work in the current context (a thread,
say) by wall clock.  The engine checks it on entry, once per main-loop
batch, per F4 row packed or inserted, per generator of an
autoreduction round, per border row, checked column and input of a
certificate and, over Q, per normal-form step and per coefficient made
primitive, and raises TimeoutError at the first check past it.
"""

import heapq
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter, lshift, mul

from .arith import PackedEchelon, primitive_scale
from .poly import Polynomial, PolyRing, mono_divides, mono_lcm


class NotZeroDimensional(ValueError):
    """The quotient by the ideal is not a finite-dimensional vector space."""


_deadline = ContextVar("deadline", default=None)  # perf_counter() cap, or None


@contextmanager
def deadline(seconds):
    """Cap the engine's work in this context at seconds of wall clock from
    now: its next check after that raises TimeoutError.  A falsy seconds
    adds no cap."""
    if not seconds:
        yield
        return
    token = _deadline.set(time.perf_counter() + seconds)
    try:
        yield
    finally:
        _deadline.reset(token)


def _check_deadline():
    end = _deadline.get()
    if end is not None and time.perf_counter() > end:
        raise TimeoutError("deadline passed")


class _Codec:
    """Packs exponent tuples into ints so that int comparison = the order.

    Monomial a divides monomial b exactly when sign * (a - b) borrows
    from no field, that is when `not (sign * (a - b) & guards)`.
    """

    __slots__ = ("n", "cap", "shifts", "guards", "mask", "flip",
                 "sign", "one", "degshift", "base")

    def __init__(self, n: int, order_name: str, width: int):
        self.n = n
        w = width
        self.cap = (1 << (w - 1)) - 1  # guard bit per field must stay clear
        self.mask = (1 << w) - 1
        if order_name == "grevlex":
            # layout [deg | cap-e_n | ... | cap-e_1]; bigger int = bigger monomial
            self.shifts = tuple(j * w for j in range(n))
            self.degshift = n * w
            self.flip = self.cap
            self.sign = 1
        elif order_name == "lex":
            # layout [e_1 | e_2 | ... | e_n]
            self.shifts = tuple((n - 1 - j) * w for j in range(n))
            self.degshift = None
            self.flip = 0
            self.sign = -1
        else:
            raise ValueError(f"unsupported order {order_name!r}")
        self.guards = 0
        for s in self.shifts:
            self.guards |= 1 << (s + w - 1)
        # grevlex's fields hold cap - e: every field at cap, less the exponents
        self.base = sum(self.flip << s for s in self.shifts)
        self.one = self.pack((0,) * n)

    def pack(self, m) -> int:
        if m and max(m) > self.cap:
            raise OverflowError(f"exponent {max(m)} exceeds packing width")
        low = sum(map(lshift, m, self.shifts))
        if self.degshift is None:
            return low
        return (sum(m) << self.degshift) + self.base - low

    def unpack(self, p: int) -> tuple:
        mask, flip = self.mask, self.flip
        return tuple(((p >> s) & mask) ^ flip for s in self.shifts)


@lru_cache(maxsize=None)
def _codec(n: int, order_name: str, width: int = 16) -> _Codec:
    return _Codec(n, order_name, width)


def _codec_for(ring: PolyRing) -> _Codec:
    return _codec(ring.nvars, ring.order.name)


def _to_packed(f: Polynomial, codec: _Codec) -> dict:
    return {codec.pack(m): c for m, c in f.terms}


def _from_packed(d: dict, codec: _Codec, ring: PolyRing) -> Polynomial:
    return Polynomial(
        ring, tuple((codec.unpack(p), d[p]) for p in sorted(d, reverse=True)))


def _make_primitive(d: dict):
    """Rescale rational coefficients in place to integers with content 1
    and a positive lead; returns the factor applied.  Both passes check
    the deadline per coefficient: a remainder's coefficients can run to
    10^5 bits, at some 0.01 s each."""
    scale = primitive_scale(_checked(d.values()))
    if d[max(d)] < 0:
        scale = -scale
    num, den = scale.numerator, scale.denominator
    for p, c in d.items():
        _check_deadline()
        d[p] = c * num // den  # exact: the result is an integer
    return scale


def _checked(items):
    """items, with a deadline check before each."""
    for x in items:
        _check_deadline()
        yield x


def _inverse(c, mod):
    return pow(c, -1, mod) if mod else Fraction(1, c)


def _monic(d: dict, mod) -> None:
    c = _inverse(d[max(d)], mod)
    for m in d:
        d[m] = d[m] * c % mod if mod else d[m] * c


def _normalize(d: dict, mod) -> None:
    """Canonical scaling: integer content 1 over Q, monic over a prime field."""
    if mod is None:
        _make_primitive(d)
    else:
        _monic(d, mod)


def _kernel_input(f: Polynomial, codec: _Codec, mod):
    """(terms, scale): the packed terms of a nonzero f times scale, which
    over Q makes them integer-primitive; scale is 1 over F_p."""
    d = _to_packed(f, codec)
    return d, (_make_primitive(d) if mod is None else 1)


def _exact(d: dict, mult, mod) -> dict:
    """The terms of d / mult: Fractions over Q, d itself over F_p."""
    if mod:
        return d
    k = 1 / Fraction(mult)
    return {p: c * k for p, c in d.items()}


def _prepare(d: dict, mod):
    """Reducer record (lm, a, tail) from a packed term dict that is
    integer-primitive over Q (a = lc > 0) and nonzero over F_p (a = 1/lc)."""
    lead = max(d)
    tail = tuple((p, c) for p, c in sorted(d.items(), reverse=True) if p != lead)
    return (lead, d[lead] if mod is None else _inverse(d[lead], mod), tail)


def _reducer(g: Polynomial, codec: _Codec, mod):
    """Reducer record of a nonzero polynomial given at the API."""
    return _prepare(_kernel_input(g, codec, mod)[0], mod)


def _scan(reducers, codec: _Codec):
    """Reducer search for `_nf_packed`: find(m) is the first of reducers
    whose leading monomial divides m, or None."""
    sign, guards = codec.sign, codec.guards
    keyed = [(sign * r[0], r) for r in reducers]

    def find(m):
        km = sign * m
        for k, r in keyed:
            if not ((k - km) & guards):
                return r
        return None
    return find


def _nf_packed(f: dict, find, mod, guards):
    """Full normal form of a packed term dict; find(m) names the reducer
    record for monomial m, or None when m stays in the remainder.

    Returns (r, mult) with r = mult * NF(f) and mult a positive integer.
    Over F_p mult is 1, f may hold unreduced integers and r is canonical;
    reducer tails and factors are canonical, so each delayed update adds
    less than p^2 in magnitude to a pending coefficient.  Over Q f holds
    integers and the reduction is fraction-free: a pending c against a
    reducer lead a scales every term by a/g and subtracts (c/g) times the
    shifted tail, g = gcd(a, c).  Terms moved to r before a rescale are
    scaled once at the end.

    Raises OverflowError when a product leaves the packed exponent range.
    """
    coeffs = dict(f)
    heap = [-p for p in coeffs]
    heapq.heapify(heap)
    out = {}
    done = []  # over Q: (mult when closed, remainder terms) before a rescale
    mult = 1
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        # every monomial pushed is below the one popped, so each monomial
        # has exactly one heap entry and is popped once
        m = -pop(heap)
        c = coeffs.pop(m)
        if mod:
            c %= mod
        if not c:
            continue
        hit = find(m)
        if hit is None:
            out[m] = c
            continue
        if mod:
            factor = -c * hit[1] % mod  # negated once here, not per tail term
        else:
            _check_deadline()
            a = hit[1]
            g = gcd(a, c)
            if g != a:
                s = a // g
                coeffs = {k: v * s for k, v in coeffs.items()}
                if out:
                    done.append((mult, out))
                    out = {}
                mult *= s
            factor = -c // g
        shift = m - hit[0]
        for tm, tc in hit[2]:
            mm = tm + shift
            old = coeffs.get(mm)
            if old is None:
                if mm & guards:
                    raise OverflowError("exponent exceeds packing width")
                coeffs[mm] = factor * tc
                push(heap, -mm)
            else:
                coeffs[mm] = old + factor * tc
    for closed, terms in done:
        s = mult // closed
        for k, v in terms.items():
            out[k] = v * s
    return out, mult


def _spoly_packed(rf, rg, L: int, mod, guards):
    """S-polynomial of two reducer records at their packed lcm L, as
    (terms, mult) with terms = mult * S; the lcm term cancels and is left
    out.  Over F_p mult is 1 and the terms are unreduced; over Q they are
    integers and mult = lc_f lc_g / gcd(lc_f, lc_g)."""
    (lf, af, tf), (lg, ag, tg) = rf, rg
    if mod:
        cf, cg, mult = af, ag, 1
    else:
        g = gcd(af, ag)
        cf, cg = ag // g, af // g
        mult = af * cf
    sf, sg = L - lf, L - lg
    out = {p + sf: c * cf for p, c in tf}
    for p, c in tg:
        q = p + sg
        out[q] = out.get(q, 0) - c * cg
    if any(q & guards for q in out):
        raise OverflowError("exponent exceeds packing width")
    return out, mult


def _split_linear(work, codec: _Codec):
    """(linear, rest): the dicts whose terms all have degree <= 1, and the
    others, each in list order."""
    linear, rest = [], []
    for d in work:
        (linear if all(sum(codec.unpack(p)) <= 1 for p in d)
         else rest).append(d)
    return linear, rest


def _substitute(d: dict, linear, mod, codec: _Codec) -> dict:
    """Normal form of d by interreduced linear generators a x_v + tail,
    got by putting x_v = -tail/a into d; normalized, and empty when it
    vanishes.

    Per variable, with d = sum_j x_v^j f_j and J the largest j, Horner
    runs acc <- acc * (-tail) + a^(J-j) f_j from acc = f_J, which is
    a^J times the substituted d: fraction-free over Q, and a = 1 over
    F_p, where the generators are monic.  Raises OverflowError when a
    product leaves the packed exponent range.
    """
    one, mask, flip, guards = codec.one, codec.mask, codec.flip, codec.guards
    for lin in linear:
        lead = max(lin)
        a = lin[lead]
        shift = codec.shifts[codec.unpack(lead).index(1)]
        step = lead - one  # adding it multiplies a packed monomial by x_v
        times = [(p - one, -c) for p, c in lin.items() if p != lead]
        parts = {}  # exponent of x_v -> the terms with x_v divided out
        for p, c in d.items():
            e = ((p >> shift) & mask) ^ flip
            part = parts.get(e)
            if part is None:
                parts[e] = part = {}
            part[p - e * step] = c
        top = max(parts, default=0)
        if not top:
            continue
        acc = parts[top]
        for j in range(top - 1, -1, -1):
            nxt = parts.get(j, {})
            if a != 1:
                scale = a ** (top - j)
                nxt = {m: c * scale for m, c in nxt.items()}
            for m, c in acc.items():
                for dm, dc in times:
                    mm = m + dm
                    old = nxt.get(mm)
                    if old is None:
                        if mm & guards:
                            raise OverflowError("exponent exceeds packing width")
                        nxt[mm] = c * dc
                    else:
                        nxt[mm] = old + c * dc
            acc = nxt
        if mod:
            d = {m: r for m, c in acc.items() if (r := c % mod)}
        else:
            d = {m: c for m, c in acc.items() if c}
    if d:
        _normalize(d, mod)
    return d


def _preprocess(start, find, guards: int):
    """Symbolic preprocessing for one F4 matrix over F_p: a reducer (a
    shifted generator, from find) for every monomial of the matrix that a
    live leading monomial divides, from the monomials start on.  Returns
    the columns (the monomials, ascending), their index and the reducers
    as (column, record, shift).
    """
    monos = set(start)
    if any(m & guards for m in monos):
        raise OverflowError("exponent exceeds packing width")
    todo = list(monos)
    found = []
    while todo:
        m = todo.pop()
        rec = find(m)
        if rec is None:
            continue
        shift = m - rec[0]
        found.append((m, rec, shift))
        for tm, _ in rec[2]:
            mm = tm + shift
            if mm not in monos:
                if mm & guards:
                    raise OverflowError("exponent exceeds packing width")
                monos.add(mm)
                todo.append(mm)
    cols = sorted(monos)
    index = {m: k for k, m in enumerate(cols)}
    return cols, index, [(index[m], rec, shift) for m, rec, shift in found]


def _f4_matrix(spairs, cols, index, reducers, p: int, stats, guards: int):
    """F4's linear algebra over F_p for one batch of pairs (f, g, L) of
    monic reducer records at their lcm L: each S-row is reduced against
    the reducer rows and the S-rows before it in one echelon pass.

    An S-row is built from the shifted generators u f and v g, whose
    leads are L.  When the reducer row of L's column is u f, the row is
    v g: the echelon's step at L subtracts u f and leaves -S(f, g);
    likewise with f and g swapped.  Otherwise the row is u tail(f) plus
    (p - 1) v tail(g), which is S(f, g) mod p.  Each reduces as S(f, g)
    would.

    Returns the leading columns of the rows that do not vanish, in
    descending order, and those rows, monic, as packed term dicts in the
    same order.  A monomial missing from index raises KeyError, except
    one that cancels in S(f, g): that S-row is packed from `_spoly_packed`
    with its terms that are 0 mod p left out, as a replay needs.
    """
    ech = PackedEchelon(p, len(cols))
    pack, w = ech.pack, ech.width
    at = {}  # column -> the record of its reducer row
    for k, rec, shift in reducers:
        _check_deadline()
        ech.pivots[k] = pack(rec[2], index, shift)
        at[k] = rec
    leads = []
    for rf, rg, L in spairs:
        _check_deadline()
        (lf, _, tf), (lg, _, tg), kL = rf, rg, index.get(L)
        r = at.get(kL)
        try:
            if r is rf:
                row = pack(tg, index, L - lg) + (1 << kL * w)
            elif r is rg:
                row = pack(tf, index, L - lf) + (1 << kL * w)
            else:
                row = pack(tf, index, L - lf) + (p - 1) * pack(tg, index, L - lg)
        except KeyError:
            s = _spoly_packed(rf, rg, L, p, guards)[0]
            row = pack([(index[m], x) for m, c in s.items() if (x := c % p)])
        k = ech.insert(row)
        if k is not None:
            leads.append(k)
    leads.sort(reverse=True)
    stats.spairs_reduced += len(spairs)
    stats.zero_reductions += len(spairs) - len(leads)
    stats.matrices += 1
    stats.matrix_rows += len(reducers) + len(spairs)
    stats.matrix_columns += len(cols)
    rows = []
    for k in leads:
        h = {cols[j]: c for j, c in ech.entries(ech.pivots[k])}
        h[cols[k]] = 1
        rows.append(h)
    return leads, rows


def _certify(live, inputs, codec: _Codec, p: int) -> bool:
    """Border basis certificate over F_p: whether the live generators,
    given as reducer records in index order, whose leads hold a pure
    power of every variable, are a Groebner basis of the inputs' ideal.

    O is the set of standard monomials of the live leads, D of them, and
    the border the x_j o outside O.  One packed matrix reduces every
    border term b to NF(b) on O, with O in its D lowest columns; M_j maps
    o to x_j o, or to NF(x_j o) on the border.  Commuting M_j make the
    b - NF(b) a border basis of an ideal J inside the live set's ideal,
    with R/J of dimension D (Mourrain, AAECC-13, LNCS 1719, 1999; Kreuzer
    and Robbiano, Computational Commutative Algebra 2, 6.4); f(M) e_1 = 0
    for every input f puts the inputs' ideal I inside J.  Then I = J, and
    the live leads, which lie in LT(I), leave as many standard monomials
    as I does: they generate LT(I).  M_i and M_j commute on o whenever
    x_i o and x_j o both lie in O, so only the other columns are checked.
    """
    find, n = _scan(live, codec), codec.n
    steps = [codec.pack(tuple(int(j == k) for k in range(n))) - codec.one
             for j in range(n)]
    slot, basis, border = {codec.one: 0}, [codec.one], set()
    for o in basis:  # O grows from 1 by the variables
        for s in steps:
            m = o + s
            if m not in slot and m not in border:
                if find(m) is None:
                    slot[m] = len(basis)
                    basis.append(m)
                else:
                    border.add(m)
    D = len(basis)
    cols, _, reducers = _preprocess(border, find, codec.guards)
    index = dict(slot)  # O first, then the other columns ascending
    for m in cols:
        index.setdefault(m, len(index))
    # a vector on O is packed, slots reduced: o is the unit vector at o's
    # slot, NF(b) of a border term b minus b's reduced row tail
    ech = PackedEchelon(p, len(index))
    w = ech.width
    vec = {o: 1 << k * w for o, k in slot.items()}
    for k, (_, _, tail), shift in sorted(reducers, key=lambda r: r[0]):
        _check_deadline()
        tail = ech.reduce((index[tm + shift], c) for tm, c in tail)
        ech.pivots[index[cols[k]]] = ech.pack(tail)
        if cols[k] in border:
            vec[cols[k]] = ech.pack((j, p - c) for j, c in tail)
    # per variable j: column k of M_j, x_j o_k's vector, and M_j as a
    # gather of the slots that x_j moves inside O (slot D reads as 0) plus
    # the columns on the border
    column = [[vec[o + s] for o in basis] for s in steps]
    shifted = [[slot.get(o + s) for o in basis] for s in steps]
    moves = []
    for s, to in zip(steps, shifted):
        src = [D] * D
        for k, t in enumerate(to):
            if t is not None:
                src[t] = k
        edge = [k for k, t in enumerate(to) if t is None]
        moves.append((itemgetter(*src, D), edge, [vec[basis[k] + s] for k in edge]))

    def times(j, x):
        """M_j x for a vector x, slots unreduced."""
        gather, edge, nf = moves[j]
        v = ech.residues(x, D + 1)
        return ech.pack_residues(gather(v)) + sum(map(mul, [v[k] for k in edge], nf))

    # x is 0 mod p in every slot exactly when p divides it and every slot
    # of the quotient x / p stays below 2^t, t = w - bitlen(p): then p
    # times it carries into no slot.  Slots below 2 (D + 1) p^2 pass when
    # they vanish.  M_i M_j e_o - M_j M_i e_o is checked as
    # M_i M_j e_o + (K - M_j M_i e_o), with (D + 1) p^2 per slot of K.
    t = w - p.bit_length()
    high, K = (int.from_bytes(x.to_bytes(ech.nbytes, "little") * D, "little")
               for x in ((1 << w) - (1 << t), (D + 1) * p * p))

    def vanishes(x):
        q, r = divmod(x, p)
        return not r and not q & high

    for i in range(n):
        for j in range(i):
            for k in range(D):
                a, b = shifted[i][k], shifted[j][k]
                if a is None or b is None:
                    _check_deadline()
                    left = column[i][b] if b is not None else times(i, column[j][k])
                    right = column[j][a] if a is not None else times(j, column[i][k])
                    if not vanishes(left + K - right):
                        return False

    for f in inputs:
        _check_deadline()
        acc = 0
        for k, (m, c) in enumerate(f.items(), 1):
            chain = []
            while m not in vec:  # m(M) e_1 is M_j applied to (m / x_j)(M) e_1
                j = next(j for j, e in enumerate(codec.unpack(m)) if e)
                chain.append((m, j))
                m -= steps[j]
            for m, j in reversed(chain):
                vec[m] = ech.pack_residues(ech.slots(times(j, vec[m - steps[j]])))
            acc += c * vec[m]
            if not k % D:  # keep the slots below 2 D products
                acc = ech.pack_residues(ech.slots(acc))
        if not vanishes(acc):
            return False
    return True


@dataclass
class GroebnerStats:
    """What one `buchberger` call did, counted per pair, never per term.

    pairs_created counts every pair a new generator forms with the live
    ones; the new-pair criteria (coprime leading monomials, lcm dominated
    or repeated) drop pairs_pruned_new of them and the chain criterion
    drops pairs_pruned_chain later.  spairs_reduced counts the pairs
    taken from the queue, and zero_reductions the reduced S-polynomials
    that vanished: over Q one pair is taken and reduced at a time, over
    F_p a whole batch is, as the S-polynomial rows of one matrix, and a
    row vanishes when it lies in the span of the reducer rows and the
    rows before it.  matrices, matrix_rows and matrix_columns total the
    F_p batches (0 over Q).  certificates counts the border basis
    certificates tried, and pairs_certified the pairs still queued when
    one stopped the loop, so that every pair created is pruned, reduced
    or certified.  linear_set_aside generators ran outside the
    main loop, which worked in reduced_nvars variables with exponent
    fields width bits wide.
    """

    pairs_created: int = 0
    pairs_pruned_new: int = 0
    pairs_pruned_chain: int = 0
    spairs_reduced: int = 0
    zero_reductions: int = 0
    linear_set_aside: int = 0
    reduced_nvars: int = 0
    width: int = 0
    matrices: int = 0
    matrix_rows: int = 0
    matrix_columns: int = 0
    pairs_certified: int = 0
    certificates: int = 0


class GroebnerBasis:
    """A reduced Groebner basis: monic, interreduced, sorted by leading monomial.

    `stats` is the `GroebnerStats` of the `buchberger` call that built
    it; it is not part of equality or hashing.
    """

    __slots__ = ("ring", "generators", "stats")

    def __init__(self, ring: PolyRing, generators: tuple, stats=None):
        self.ring = ring
        self.generators = generators
        self.stats = stats

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


class LeadingIdeal:
    """The minimal generators of a leading ideal, as exponent tuples in
    ascending order: what `standard_monomials` and the counts built on it
    read of a `GroebnerBasis`.  `stats` is the `GroebnerStats` of the
    `leading_ideal` call that built it.
    """

    __slots__ = ("ring", "leading_monomials", "stats")

    def __init__(self, ring: PolyRing, leading_monomials: tuple, stats=None):
        self.ring = ring
        self.leading_monomials = leading_monomials
        self.stats = stats

    @property
    def is_unit(self) -> bool:
        lms = self.leading_monomials
        return len(lms) == 1 and not any(lms[0])

    def __len__(self):
        return len(self.leading_monomials)

    def __repr__(self):
        return f"LeadingIdeal({len(self)} generators, {self.ring!r})"


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the given polynomials (full reduction).

    Deterministic: reducers are tried in list order, monomials largest first.
    """
    polys = list(basis)
    ring = f.ring
    for g in polys:
        if g.ring != ring:
            raise ValueError("normal form across different rings")
    codec = _codec_for(ring)
    mod = ring.field.p
    reducers = [_reducer(g, codec, mod) for g in polys if not g.is_zero()]
    if not reducers or f.is_zero():
        return f
    d, scale = _kernel_input(f, codec, mod)
    out, mult = _nf_packed(d, _scan(reducers, codec), mod, codec.guards)
    return _from_packed(_exact(out, mult * scale, mod), codec, ring)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) = (L/lt f) f - (L/lt g) g with L = lcm of the leading monomials."""
    ring = f.ring
    if g.ring != ring:
        raise ValueError("S-polynomial across different rings")
    codec = _codec_for(ring)
    mod = ring.field.p
    L = codec.pack(mono_lcm(f.lm(), g.lm()))
    s, mult = _spoly_packed(_reducer(f, codec, mod), _reducer(g, codec, mod),
                            L, mod, codec.guards)
    # an empty reducer list only canonicalises: reduce mod p, drop zeros
    out, _ = _nf_packed(s, _scan((), codec), mod, codec.guards)
    return _from_packed(_exact(out, mult, mod), codec, ring)


class F4Trace:
    """What one full F4 run over F_p did, kept to replay it on later
    inputs whose main loop starts from the same leading monomials.

    `record` is None until a full run through `buchberger(gens, trace)`
    completes, and it ends at the matrix where a certificate stopped
    that run.  A full run after a fallback replaces it only when the
    full run before also missed it (`missed`), so one unusual draw does
    not evict the usual record.  `last` says how the latest such call
    computed its basis: "learned" (the trace held no record),
    "replayed", or "fallback" (the record did not fit, or its
    certificate refused this draw, and a full run computed it); None
    when the call ran no F_p main loop.
    """

    __slots__ = ("record", "last", "missed")

    def __init__(self):
        self.record = None
        self.last = None
        self.missed = False


def buchberger(gens, trace=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Shuffling the input changes only the work performed, never the result;
    so does an `F4Trace`, which over F_p replays a recorded run where it
    fits and learns from a full run where it does not.
    Raises OverflowError when an exponent passes 2^15 - 1.
    """
    return _run(*_packer(gens), trace, _reduced_basis)


def leading_ideal(gens, trace=None) -> LeadingIdeal:
    """The minimal generators of the leading ideal of gens: the leading
    monomials of `buchberger(gens, trace)`, in the same order, with the
    same stats, got from the same main loop without the final
    interreduction.  A trace serves and learns as in `buchberger`.
    """
    return _run(*_packer(gens), trace, _leads)


def packed_leading_ideal(ring: PolyRing, pack, trace=None) -> LeadingIdeal:
    """`leading_ideal` of generators that the caller packs itself.

    pack(codec) returns them, in order, as term dicts {codec.pack(e): c}
    with canonical coefficients of ring's field, an empty dict for a zero
    generator; codec packs ring's variables in its order, and pack is
    called once per exponent width tried.  `unpack_generators(ring,
    pack)` are the polynomials this reads, so the result equals
    `leading_ideal` of them, stats and trace included.
    """
    return _run(ring, pack, trace, _leads)


def unpack_generators(ring: PolyRing, pack) -> tuple:
    """The polynomials of ring that pack (as in `packed_leading_ideal`)
    gives with 16-bit exponent fields, sorted by the packed monomials.
    Raises OverflowError when an exponent passes 2^15 - 1."""
    codec = _codec_for(ring)
    return tuple(_from_packed(d, codec, ring) for d in pack(codec))


def _packer(gens):
    """(ring, pack) of a list of polynomials of one ring."""
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators from different rings")
    return ring, lambda codec: [_to_packed(g, codec) for g in gens]


def _run(ring: PolyRing, pack, trace, finish):
    """finish(ring, stats, main) after `_main_phase`, first with 8-bit
    exponent fields and on OverflowError again with 16-bit ones."""
    _check_deadline()
    if trace is not None:
        trace.last = None
    try:
        return _at_width(ring, pack, 8, trace, finish)
    except OverflowError:
        pass  # rerun outside the handler: an overflow at 16 bits raises alone
    return _at_width(ring, pack, 16, trace, finish)


def _at_width(ring: PolyRing, pack, width: int, trace, finish):
    """One `_run` attempt; a learned F4 record goes to the trace only once
    finish has returned, and after a fallback only if the last full run
    missed the record too."""
    stats, main, record = _main_phase(pack, ring, width, trace)
    result = finish(ring, stats, main)
    if record is not None:
        if trace.last == "fallback" and not trace.missed:
            trace.missed = True
        else:
            trace.record, trace.missed = record, False
    return result


def _slice(work, mod, full: _Codec):
    """Gauss-Jordan on the linear inputs, then the others' normal forms by
    them, by substitution, in input order.  Returns (linear, substituted),
    with an empty dict for each input that vanishes, or None when the
    linear inputs generate the unit ideal."""
    linear, rest = _split_linear(work, full)
    linear = _autoreduce(linear, mod, full)
    if any(max(d) == full.one for d in linear):
        return None
    return linear, [_substitute(d, linear, mod, full) for d in rest]


def _main_phase(pack, ring: PolyRing, width: int, trace):
    """Substitution, set-aside and the main loop (or a trace replay) on
    pack's generators with exponent fields width bits wide.

    Returns (stats, main, record).  main is None for the unit ideal, else
    (live, linear, keep, codec): the live generators at the end of the
    main loop, packed by codec in the variables keep, and the set-aside
    linear generators, packed in all variables.  record is the F4 record
    a full run learned for the trace, else None.
    """
    mod = ring.field.p
    n, order = ring.nvars, ring.order.name
    full = _codec(n, order, width)
    stats = GroebnerStats(width=width)

    work = [d for d in pack(full) if d]
    if not work:
        return stats, ([], [], (), full), None
    for d in work:
        _normalize(d, mod)
    sliced = _slice(work, mod, full)
    if sliced is None:
        return stats, None, None
    linear, rest = sliced
    work = _autoreduce(linear + [d for d in rest if d], mod, full)
    if any(max(d) == full.one for d in work):
        return stats, None, None

    # Full autoreduction leaves the leading variable of a linear generator
    # in no other generator, so all its pairs are coprime: the main loop
    # runs on the rest, packed in the variables they can contain.
    linear, rest = _split_linear(work, full)
    gone = {full.unpack(max(d)).index(1) for d in linear}
    keep = tuple(j for j in range(n) if j not in gone)
    codec = _codec(len(keep), order, width)
    stats.linear_set_aside, stats.reduced_nvars = len(linear), len(keep)
    inputs = []
    for d in rest:
        restricted = {}
        for p, c in d.items():
            e = full.unpack(p)
            restricted[codec.pack([e[j] for j in keep])] = c
        inputs.append(restricted)

    # with a trace over F_p, replay its record when the main loop starts
    # from the same leading monomials, else run in full and record
    key = live = record = None
    if trace is not None and mod:
        key = (order, width, keep, tuple(max(d) for d in inputs))
        old = trace.record
        if old is not None and old[0] == key:
            counted = replace(stats)
            live = _replay(inputs, old, mod, codec, counted)
        if live is not None:
            stats = counted
            trace.last, trace.missed = "replayed", False
        else:
            trace.last = "learned" if old is None else "fallback"
    if live is None:
        live, record = _main_loop(inputs, codec, mod, stats, key)
        if live is None:
            return stats, None, None
    return stats, (live, linear, keep, codec), record


def _lift(p: int, keep, codec: _Codec, full: _Codec) -> int:
    """codec's packed monomial p in the variables keep, packed by full in
    all variables."""
    e = [0] * full.n
    for j, x in zip(keep, codec.unpack(p)):
        e[j] = x
    return full.pack(e)


def _reduced_basis(ring: PolyRing, stats, main) -> GroebnerBasis:
    """`buchberger`'s second half: the reduced basis from `_main_phase`."""
    if main is None:
        return GroebnerBasis(ring, (ring.one(),), stats)
    live, linear, keep, codec = main
    mod = ring.field.p
    full = _codec(ring.nvars, ring.order.name, stats.width)
    # interreduce the live generators in the remaining variables and lift
    # them back to all; their terms hold no leading variable of a linear
    # generator, so only the linear generators' tails need reducing
    final = [{_lift(p, keep, codec, full): c for p, c in d.items()}
             for d in _autoreduce(sorted(live, key=max), mod, codec)]
    find = _scan([_prepare(h, mod) for h in final], full)
    final += [_nf_packed(d, find, mod, full.guards)[0] for d in linear]
    for h in final:
        _monic(h, mod)
    final.sort(key=max)
    return GroebnerBasis(
        ring, tuple(_from_packed(h, full, ring) for h in final), stats)


def _leads(ring: PolyRing, stats, main) -> LeadingIdeal:
    """`leading_ideal`'s second half.  The live leads form an antichain
    (a new generator's lead is divisible by no live lead, and a live
    generator leaves when a new lead divides its own), and no live term
    holds a set-aside leading variable, so these are the leads of the
    reduced basis."""
    n = ring.nvars
    if main is None:
        return LeadingIdeal(ring, ((0,) * n,), stats)
    live, linear, keep, codec = main
    full = _codec(n, ring.order.name, stats.width)
    leads = [max(d) for d in linear]
    leads += [_lift(max(d), keep, codec, full) for d in live]
    return LeadingIdeal(ring, tuple(full.unpack(p) for p in sorted(leads)),
                        stats)


def _main_loop(inputs, codec: _Codec, mod, stats, key):
    """Buchberger's main loop from the packed inputs, in input order.

    Returns (live, record): the live generators at the end, or None for
    the unit ideal, and with a key (F_p only) the run's record for an
    `F4Trace`, else None.  The record is (key, matrices, final live
    indices, pair and certificate counters); a matrix is (pairs as
    (i, j, lcm), reducers as (column, generator index, shift), columns,
    column index, new leading columns, generators whose reducer record
    it dropped).  Generators are numbered in the order they are added.
    Over F_p in a degree order the loop also ends when `_certify`
    proves the live set a Groebner basis.
    """
    guards, sign, one = codec.guards, codec.sign, codec.one
    learned = None if key is None else []

    # A generator's dict is kept while it is live, its reducer record
    # while it is live or a queued pair names it.
    polys = {}      # index -> packed dict
    prepared = {}   # index -> reducer record
    npairs = []     # index -> number of queued pairs naming it
    keys = []       # sign * leading monomial, for the divisibility test
    lm_tuples = []
    live = []       # ascending indices forming the current minimal working basis
    pairs = {}      # (i, j) -> (lcm degree, packed lcm)
    pure = set()    # variables with a pure power among the live leads

    def unqueue(ij):
        del pairs[ij]
        for k in ij:
            npairs[k] -= 1
            if not npairs[k] and k not in polys:
                del prepared[k]

    def add_generator(d: dict):
        t = len(keys)
        polys[t] = d
        rec = _prepare(d, mod)
        prepared[t] = rec
        npairs.append(0)
        lt_packed = rec[0]
        keys.append(sign * lt_packed)
        lt_tuple = codec.unpack(lt_packed)
        lm_tuples.append(lt_tuple)
        deg_t = sum(lt_tuple)
        if deg_t and deg_t == max(lt_tuple):  # a pure power: it stays covered
            pure.add(lt_tuple.index(deg_t))

        cand = []
        for i in live:
            lcm_t = mono_lcm(lm_tuples[i], lt_tuple)
            cand.append((sum(lcm_t), i, codec.pack(lcm_t)))
        stats.pairs_created += len(cand)
        # new-pair pruning, one pass by (lcm degree, index): drop an lcm
        # that a kept one divides (by transitivity every dominated lcm has
        # a kept divisor), keep the rest, and queue the non-coprime ones
        kept = []
        for dL, i, L in sorted(cand):
            kL = sign * L
            if any(not (k - kL) & guards for k in kept):
                stats.pairs_pruned_new += 1
                continue
            kept.append(kL)
            if dL == sum(lm_tuples[i]) + deg_t:
                stats.pairs_pruned_new += 1
                continue
            pairs[(i, t)] = (dL, L)
            npairs[i] += 1
            npairs[t] += 1
        # old-pair pruning: the chain criterion against the new leading term
        for key in list(pairs):
            i, j = key
            if j == t:
                continue
            _, Lij = pairs[key]
            if not (sign * (lt_packed - Lij) & guards):
                lcm_it = codec.pack(mono_lcm(lm_tuples[i], lt_tuple))
                lcm_jt = codec.pack(mono_lcm(lm_tuples[j], lt_tuple))
                if lcm_it != Lij and lcm_jt != Lij:
                    unqueue(key)
                    stats.pairs_pruned_chain += 1
        kt = keys[t]
        stay = []
        for i in live:
            if (kt - keys[i]) & guards:
                stay.append(i)
            else:  # the new leading monomial divides i's: i leaves
                del polys[i]
                if not npairs[i]:
                    del prepared[i]
        live[:] = stay
        live.append(t)

    for d in inputs:
        add_generator(d)

    while pairs:
        _check_deadline()
        if learned is not None:
            had, t0 = list(prepared), len(keys)
        # F_p: every pair of the lowest lcm degree, reduced in one matrix;
        # Q: the one smallest pair, reduced fraction-free
        queue = [(dL, L, ij) for ij, (dL, L) in pairs.items()]
        first = min(queue)
        batch = sorted(q for q in queue if q[0] == first[0]) if mod else [first]
        # the first live generator, in index order, whose lead divides m
        find = _scan([prepared[i] for i in live], codec)
        spairs = []
        for _, L, ij in batch:
            spairs.append((prepared[ij[0]], prepared[ij[1]], L))
            unqueue(ij)
        if mod:
            # the matrix's monomials start from the pairs' shifted tails
            cols, index, reducers = _preprocess(
                (tm + L - lead for rf, rg, L in spairs
                 for lead, _, tail in (rf, rg) for tm, _ in tail), find, guards)
            leads, new = _f4_matrix(spairs, cols, index, reducers, mod, stats,
                                    guards)
            if learned is not None:
                gen = {prepared[i][0]: i for i in live}
                learned.append((tuple((i, j, L) for _, L, (i, j) in batch),
                                tuple((k, gen[r[0]], s) for k, r, s in reducers),
                                cols, index, leads))
        else:
            s = _spoly_packed(*spairs[0], mod, guards)[0]
            new = [h for h in (_nf_packed(s, find, mod, guards)[0],) if h]
            for h in new:
                _make_primitive(h)
            stats.spairs_reduced += 1
            stats.zero_reductions += not new
        # largest leading monomial first (F4 returns them so, monic): a
        # later one that divides it drops it from the live set
        for h in new:
            if max(h) == one:
                return None, None
            add_generator(h)
        if learned is not None:
            # a replay drops the reducer records this matrix dropped, also
            # those of generators it added
            had += range(t0, len(keys))
            learned[-1] += (tuple(k for k in had if k not in prepared),)
        # F_p in a degree order, whose tails stay within their lead's
        # degree: once the live leads leave finitely many standard
        # monomials, a certificate can prove the live set final
        if new and mod and pairs and len(pure) == codec.n and codec.degshift:
            stats.certificates += 1
            if _certify([prepared[i] for i in live], inputs, codec, mod):
                stats.pairs_certified = len(pairs)
                break

    record = None
    if learned is not None:
        record = (key, tuple(learned), tuple(live), (
            stats.pairs_created, stats.pairs_pruned_new, stats.pairs_pruned_chain,
            stats.pairs_certified, stats.certificates))
    return [polys[k] for k in live], record


def _replay(inputs, record, p: int, codec: _Codec, stats):
    """The main loop of `_main_loop`'s record on inputs with the record's
    leading monomials, over F_p: each recorded matrix is built straight
    from its pairs, reducers and columns, with no pair update or reducer
    search.  Every S-row is kept, including those that vanished when the
    record was made.

    Returns the live generators, or None at the first matrix that leaves
    the record: a term outside its columns that does not cancel, or new
    leading columns other than the recorded ones (a constant row among
    them, as no recorded run has one).  Pairs and reducers depend only
    on the leading monomials, so a replay that returns reduces each
    S-row by the same reducer rows as the full run would, and gives the
    same generators; its matrices may hold other rows and columns, which
    no row reaches.
    A record that a certificate ended is certified again on these
    inputs, and a refusal returns None too.
    """
    _, matrices, live, counts = record
    guards = codec.guards
    prepared = {t: _prepare(d, p) for t, d in enumerate(inputs)}
    polys = {t: d for t, d in enumerate(inputs) if t in live}
    t = len(inputs)
    for pairs, reducers, cols, index, leads, free in matrices:
        spairs = [(prepared[i], prepared[j], L) for i, j, L in pairs]
        rows = [(k, prepared[g], shift) for k, g, shift in reducers]
        try:
            got, new = _f4_matrix(spairs, cols, index, rows, p, stats, guards)
        except KeyError:  # a monomial outside the recorded columns
            return None
        if got != leads:
            return None
        for h in new:
            prepared[t] = _prepare(h, p)
            if t in live:
                polys[t] = h
            t += 1
        for g in free:
            del prepared[g]
    if counts[3] and not _certify([prepared[k] for k in live], inputs, codec, p):
        return None
    (stats.pairs_created, stats.pairs_pruned_new, stats.pairs_pruned_chain,
     stats.pairs_certified, stats.certificates) = counts
    return [polys[k] for k in live]


def _autoreduce(work, mod, codec: _Codec):
    """Mutually reduce the inputs, in list order, and drop those that
    reduce to zero.

    Rounds stop after one in which no leading monomial moved and no
    generator was dropped: every generator was then fully reduced
    against leads that stayed fixed all round, so none of its terms is
    divisible by another's lead and a further round would change nothing.
    """
    moved = True
    while moved:
        moved = False
        # one reducer record per generator and round, renewed when it changes
        prepared = [None if d is None else _prepare(d, mod) for d in work]
        for i in range(len(work)):
            _check_deadline()
            if work[i] is None:
                continue
            reducers = [r for j, r in enumerate(prepared)
                        if j != i and r is not None]
            if not reducers:
                continue
            h, _ = _nf_packed(work[i], _scan(reducers, codec), mod,
                              codec.guards)
            if h != work[i]:
                if not h or max(h) != prepared[i][0]:
                    moved = True
                if h:
                    _normalize(h, mod)
                work[i] = h if h else None
                prepared[i] = _prepare(h, mod) if h else None
    return [d for d in work if d is not None]


def is_zero_dimensional(basis) -> bool:
    """Finite quotient test on a `GroebnerBasis` or a `LeadingIdeal`:
    every variable shows up as a pure leading power."""
    lms = basis.leading_monomials
    if not lms:
        return False
    seen = [False] * basis.ring.nvars
    for m in lms:
        support = [i for i, e in enumerate(m) if e]
        if not support:
            return True  # unit ideal
        if len(support) == 1:
            seen[support[0]] = True
    return all(seen)


def standard_monomials(basis, d_max) -> list:
    """Exponent tuples outside the leading-term ideal of a `GroebnerBasis`
    or a `LeadingIdeal`, of total degree at most d_max; d_max None lifts
    the cap, which needs a zero-dimensional basis to terminate.

    Standard monomials form a downward-closed set, so the depth-first
    search prunes a whole subtree as soon as one leading monomial divides
    the current partial exponent vector.  A variable that is itself a
    leading monomial has exponent 0 in every standard monomial: the
    search leaves it out, with every leading monomial that contains it.
    """
    lms = basis.leading_monomials
    n = basis.ring.nvars
    fixed = {m.index(1) for m in lms if sum(m) == 1}
    free = [j for j in range(n) if j not in fixed]
    lms = [[m[j] for j in free] for m in lms
           if not any(m[j] for j in fixed)]
    found = []
    exps = [0] * len(free)
    full = [0] * n

    def visit(k, total):
        if k == len(free):
            for j, e in zip(free, exps):
                full[j] = e
            found.append(tuple(full))
            return
        e = 0
        while d_max is None or total + e <= d_max:
            exps[k] = e
            if any(mono_divides(lm, exps) for lm in lms):
                break
            visit(k + 1, total + e)
            e += 1
        exps[k] = 0

    # mono_divides compares pairwise; lists work as well as tuples
    visit(0, 0)
    return found


def _all_standard_monomials(basis) -> list:
    if not is_zero_dimensional(basis):
        raise NotZeroDimensional(
            "the leading-term ideal lacks a pure power in some variable")
    return standard_monomials(basis, None)


def quotient_basis(basis) -> list:
    """Standard monomials (exponent tuples, ascending order) of a
    zero-dimensional `GroebnerBasis` or `LeadingIdeal`; these span the
    quotient as a vector space."""
    return sorted(_all_standard_monomials(basis), key=basis.ring.key)


def ideal_degree(basis) -> int:
    """Vector-space dimension of the quotient ring of a `GroebnerBasis` or
    a `LeadingIdeal`; 0 for the unit ideal."""
    return len(_all_standard_monomials(basis))


def verify_groebner(basis, gens=None) -> bool:
    """Post-hoc check: every S-polynomial of the basis reduces to zero,
    and (optionally) every original generator lies in the spanned ideal."""
    polys = [g for g in basis if not g.is_zero()]
    if not polys:
        return gens is None or all(g.is_zero() for g in gens)
    gens = list(gens or ())
    ring = polys[0].ring
    if any(g.ring != ring for g in polys + gens):
        raise ValueError("verification across different rings")
    codec = _codec_for(ring)
    mod, guards = ring.field.p, codec.guards
    reducers = [_reducer(g, codec, mod) for g in polys]
    find = _scan(reducers, codec)
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            L = codec.pack(mono_lcm(polys[a].lm(), polys[b].lm()))
            s, _ = _spoly_packed(reducers[a], reducers[b], L, mod, guards)
            if _nf_packed(s, find, mod, guards)[0]:
                return False
    return not any(_nf_packed(_kernel_input(g, codec, mod)[0], find, mod,
                              guards)[0]
                   for g in gens if not g.is_zero())
