"""End-to-end acceptance run: eleven numbered criteria, one verdict line
each (collected in RESULTS and echoed in the terminal summary).

Criteria marked extended are long-running alt cells; the i <= 4 block
only runs when SATURA_LONG_RUN=1: g4 alone took 183 s and about 1 GB
of memory on a 2-core box (value 1108, seed 2024, F_32771), and g3..g0
are larger still.
"""

import os
import random
import time
from fractions import Fraction

import pytest

from satura.arith import QQ, prime_field
from satura.bounds import (BoundsInput, bezout_bound,
                           discriminant_degree_bound, min_prime_exponent,
                           nu_upper_bound)
from satura.groebner import buchberger, ideal_degree, normal_form, s_polynomial
from satura.harness import hilbert_table, run_trials
from satura.hilbert import (affine_hilbert_function, find_points_bruteforce,
                            jde_dimension)
from satura.poly import LEX, PolyRing
from satura.problems import (ALT_CONJ_PAIRS, alt_conj, alt_system,
                             conics_affine_system, conics_pstar_system,
                             example_monomial_system, verify_base_locus)
from satura.saturate import (SaturationParameters, compute_gi, degree_profile,
                             lm_agreement_test)

RESULTS = []

# the worked lex ideal driving the unlucky-prime criterion
WORKED_PARAMS = SaturationParameters(
    1,
    ((Fraction(3, 2), Fraction(2, 3)),),
    ((Fraction(7, 5), Fraction(9, 11), Fraction(-5, 13), Fraction(13, 17)),),
    None,
    "Q",
)

F32003 = prime_field(32003)
F32771 = prime_field(32771)
LONG_RUN = os.environ.get("SATURA_LONG_RUN") == "1"


def _record(num, desc, ok, note=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"{verdict}  criterion {num:>2}: {desc}"
    if note:
        line += f"  [{note}]"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _skip(num, desc, why):
    line = f"SKIP  criterion {num:>2}: {desc}  [{why}]"
    RESULTS.append(line)
    print(line)
    pytest.skip(why)


def test_criterion_01_monomial_example_counts():
    inst = example_monomial_system()
    start = time.perf_counter()
    g1 = compute_gi(inst, 1, F32003, 2024)
    g0 = compute_gi(inst, 0, F32003, 2024)
    elapsed = time.perf_counter() - start
    ok = g1.value == 5 and g0.value == 6 and g1.elapsed < 1 and g0.elapsed < 1
    _record(1, "monomial example g1=5, g0=6 over F_32003 in < 1 s each",
            ok, f"g1={g1.value}, g0={g0.value}, total {elapsed:.2f}s")


def test_criterion_02_conics_count_two_primes():
    inst = conics_affine_system()
    start = time.perf_counter()
    a = compute_gi(inst, 0, F32003, 2024)
    b = compute_gi(inst, 0, F32771, 2024)
    elapsed = time.perf_counter() - start
    ok = a.value == 18 and b.value == 18 and elapsed < 30
    _record(2, "conics g0=18 over F_32003 and F_32771 in < 30 s",
            ok, f"values {a.value}/{b.value}, {elapsed:.1f}s")


def test_criterion_03_pstar_hilbert_replication():
    combos = conics_pstar_system()
    start = time.perf_counter()
    prof = affine_hilbert_function(buchberger(combos), 5)
    hf_ok = (prof.values[1] == 7 and prof.values[2] == 18
             and prof.stable_value == 18)

    d2 = [jde_dimension(combos, 2, e) for e in range(6)]
    d3 = [jde_dimension(combos, 3, e) for e in range(5)]
    elapsed = time.perf_counter() - start
    jde_ok = (d2 == [(0, 28), (3, 25), (3, 25), (5, 23), (9, 19), (10, 18)]
              and d3 == [(6, 78), (25, 59), (38, 46), (63, 21), (66, 18)])
    ok = hf_ok and jde_ok and elapsed < 300
    _record(3, "P* combos: HF(1)=7, HF(d>=2)=18 and both symbolic tables exact",
            ok, f"HF row {prof.row()}, {elapsed:.1f}s")


def test_criterion_04_alt_structure():
    inst = alt_system()
    start = time.perf_counter()
    conj_ok = all(alt_conj(inst.polys[j - 1]) == inst.polys[k - 1]
                  for j, k in ALT_CONJ_PAIRS.items())
    report = verify_base_locus(inst)
    elapsed = time.perf_counter() - start
    ok = conj_ok and report.ok and report.checked == 105 and elapsed < 10
    _record(4, "alt conjugation involution and 105 base-locus identities",
            ok, f"checked {report.checked}, {elapsed:.2f}s")


def test_criterion_05_alt_degrees():
    start = time.perf_counter()
    degrees, d_min, d_max = degree_profile(alt_system())
    bez = bezout_bound(degrees)
    elapsed = time.perf_counter() - start
    ok = (d_min == 2 and d_max == 7 and bez == 7_620_480_000
          and degrees == (2, 3, 3, 4, 4, 5, 5, 4, 5, 5, 6, 6, 6, 7, 7)
          and elapsed < 5)
    _record(5, "alt degree profile D_min=2, D_max=7, product 7,620,480,000",
            ok, f"{elapsed:.2f}s")


def test_criterion_06_alt_counts():
    inst = alt_system()
    r7 = compute_gi(inst, 7, F32003, 2024)
    r6 = compute_gi(inst, 6, F32771, 2024)
    ok = (r7.value == 7 and r7.elapsed <= 60
          and r6.value == 43 and r6.elapsed <= 60)
    _record(6, "alt g7=7 and g6=43 (F_32771) within 60 s each",
            ok, f"g7 {r7.elapsed:.2f}s, g6 {r6.elapsed:.2f}s")


def test_criterion_06_extended_i5():
    r5 = compute_gi(alt_system(), 5, F32003, 2024)
    ok = r5.value == 234 and r5.elapsed <= 1800
    _record("6x", "extended target: alt g5=234 within 30 min",
            ok, f"{r5.elapsed:.1f}s")


def test_criterion_06_long_run_small_i():
    if not LONG_RUN:
        _skip("6L", "alt g4..g0 against the published counts",
              "hours-scale; set SATURA_LONG_RUN=1 to enable")
    expected = {4: 1108, 3: 3832, 2: 8716, 1: 10858, 0: 8652}
    got = {i: compute_gi(alt_system(), i, F32003, 2024).value
           for i in expected}
    _record("6L", "alt g4..g0 against the published counts",
            got == expected, str(got))


def test_criterion_07_alt_hilbert_rows():
    start = time.perf_counter()
    table = hilbert_table(alt_system(), [7, 6], 32771, 8, 2024)
    elapsed = time.perf_counter() - start
    row7 = table.cells[0]["value"]
    row6 = table.cells[1]["value"]
    ok = (row7 == [1, 3, 6, 7, 7, 7, 7, 7, 7]
          and row6 == [1, 4, 10, 20, 35, 43, 43, 43, 43]
          and elapsed < 120)
    _record(7, "alt Hilbert rows i=7 and i=6 over F_32771 exact",
            ok, f"{elapsed:.1f}s")


def _traced(report):
    """How each trial's F4 trace served its basis, e.g. "fallback 2 ..."."""
    return " ".join(f"{how} {n}" for how, n in sorted(report.trace.items()))


def test_criterion_08_trial_statistics():
    inst = alt_system()
    start = time.perf_counter()
    a = run_trials(inst, 6, 251, 500, seed=2024)
    ta = time.perf_counter() - start
    start = time.perf_counter()
    b = run_trials(inst, 6, 8191, 500, seed=2024)
    tb = time.perf_counter() - start
    ok_a = abs(a.success_fraction - 0.9592) <= 0.0266 and ta <= 1800
    ok_b = 0.9936 <= b.success_fraction <= 1.0 and tb <= 1800
    _record(8, "500-trial success fractions at p=251 and p=8191 in 3-sigma bands",
            ok_a and ok_b,
            f"{a.success_fraction:.4f} vs 0.9592±0.0266 ({ta:.0f}s, {_traced(a)}); "
            f"{b.success_fraction:.4f} vs [0.9936,1] ({tb:.0f}s, {_traced(b)})")


def test_criterion_09_bounds_formulas():
    start = time.perf_counter()
    degrees = alt_system().degrees()
    g6 = BoundsInput.from_system(degrees, n=8, g_upper=47)
    g0 = BoundsInput.from_system(degrees, n=8, g_upper=18700)
    disc = discriminant_degree_bound(g6)
    nu = nu_upper_bound(47, 8)
    k6 = min_prime_exponent(g6, Fraction(99, 100))
    k0 = min_prime_exponent(g0, Fraction(99, 100))
    elapsed = time.perf_counter() - start
    ok = (disc == 317_987_389_440_000 and nu == 7_575_968_400
          and k6 == 55 and k0 in (116, 117) and k0 == 116
          and elapsed < 5)
    _record(9, "discriminant bound, nu cap, and prime-size exponents 55/116",
            ok, f"disc={disc}, nu={nu}, k={k6}/{k0}, {elapsed:.2f}s")


def test_criterion_10_property_suites():
    start = time.perf_counter()
    rng = random.Random(2024)

    # S-polynomial zero reduction and shuffle-independence on random bases
    R3 = PolyRing(("x", "y", "z"), prime_field(32003))
    spoly_ok = shuffle_ok = True
    for _ in range(20):
        gens = []
        for _ in range(3):
            terms = [(tuple(rng.randrange(3) for _ in range(3)),
                      rng.randrange(1, 32003)) for _ in range(4)]
            gens.append(R3.poly(terms))
        gb = buchberger(gens)
        members = list(gb)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if not normal_form(s_polynomial(members[a], members[b]),
                                   gb).is_zero():
                    spoly_ok = False
        shuffled = gens[:]
        rng.shuffle(shuffled)
        if buchberger(shuffled) != gb:
            shuffle_ok = False

    # ideal_degree order invariance on zero-dimensional ideals
    R2 = PolyRing(("x", "y"), QQ)
    x, y = R2.gens()
    order_ok = True
    for _ in range(10):
        gens = [x ** 2 + rng.randint(-3, 3) * y + rng.randint(1, 4),
                y ** 3 + rng.randint(-3, 3) * x + rng.randint(1, 4)]
        gb = buchberger(gens)
        lex_gb = buchberger([R2.with_order(LEX).coerce(g) for g in gens])
        if ideal_degree(gb) != ideal_degree(lex_gb):
            order_ok = False

    # HF monotone, symbolic-bound sandwich, plateau = ideal degree
    hf_ok = True
    for _ in range(8):
        h = [x ** 2 + rng.randint(-4, 4),
             y ** 2 + rng.randint(-4, 4) * y + rng.randint(-4, 4)]
        gb = buchberger(h)
        prof = affine_hilbert_function(gb, 6)
        row = prof.row()
        if any(u > v for u, v in zip(row, row[1:])):
            hf_ok = False
        if prof.stable_value != ideal_degree(gb):
            hf_ok = False
        for d in range(3):
            prev = -1
            for e in range(4):
                dim, bound = jde_dimension(h, d, e)
                if dim < prev or bound < prof.values[d]:
                    hf_ok = False
                prev = dim
            if bound != prof.values[d]:
                hf_ok = False

    # 100 random split systems: rational point sweep matches the degree
    F11 = prime_field(11)
    Rp = PolyRing(("x", "y"), F11)
    points_ok = True
    for _ in range(100):
        polys = []
        for v in Rp.vars:
            x = Rp.var(v)
            f = Rp.one()
            for a in rng.sample(range(11), rng.randrange(1, 4)):
                f = f * (x - Rp.const(a))
            polys.append(f)
        if len(find_points_bruteforce(polys)) != ideal_degree(buchberger(polys)):
            points_ok = False

    # inverses, canonical residues and parser round trips
    fuzz_ok = True
    F = prime_field(8191)
    for _ in range(300):
        a, b = rng.randrange(1, 8191), rng.randrange(8191)
        if a * F.inv(a) % 8191 != 1 or F.element(b - 8191 * a) != b:
            fuzz_ok = False
    for _ in range(100):
        terms = [(tuple(rng.randrange(4) for _ in range(2)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                 for _ in range(4)]
        f = R2.poly(terms)
        if R2.parse(str(f)) != f:
            fuzz_ok = False

    elapsed = time.perf_counter() - start
    ok = all((spoly_ok, shuffle_ok, order_ok, hf_ok, points_ok, fuzz_ok,
              elapsed < 600))
    _record(10, "property suites (reduction, uniqueness, sandwich, sweep, fuzz)",
            ok, f"{elapsed:.1f}s")


def test_criterion_11_unlucky_prime_detection():
    inst = example_monomial_system().with_order(LEX)
    start = time.perf_counter()
    agree = lm_agreement_test(inst, 1, WORKED_PARAMS, 7)
    disagreeing = [p for p in (2, 3, 5, 11, 13)
                   if not lm_agreement_test(inst, 1, WORKED_PARAMS, p).agree]
    elapsed = time.perf_counter() - start
    # frozen first-derivation observation: every prime in the set mismatches
    ok = (agree.agree and disagreeing == [2, 3, 5, 11, 13] and elapsed < 10)
    _record(11, "leading-monomial test: p=7 agrees, {2,3,5,11,13} all disagree",
            ok, f"{elapsed:.2f}s")
