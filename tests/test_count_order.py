"""Counts run in grevlex whatever the problem's order.

g_i is the dimension of a quotient ring and the affine Hilbert function
needs a degree order, so `saturated_leading_ideal` runs the engine in
grevlex on a lex problem too.  The tests check that a lex instance
counts exactly like its grevlex twin, and that the lex count no longer
runs the engine in lex, where its F4 degrees explode.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import satura
from satura.arith import QQ, prime_field
from satura.harness import hilbert_table, run_trials
from satura.poly import GREVLEX, LEX
from satura.problems import (alt_system, conics_affine_system,
                             example_monomial_system)
from satura.saturate import compute_gi, split_seed

SEEDS = (2024, split_seed(2024, 1))


def cases():
    """(problem, i list, prime, fields) of the cells compared."""
    F32003 = prime_field(32003)
    return ((alt_system(), [7, 6], 32771, (prime_field(32771),)),
            (conics_affine_system(), list(range(6)), 32003, (F32003,)),
            (example_monomial_system(), [1, 0], 32003, (F32003, QQ)))


def strip(cells):
    return [{k: v for k, v in c.items() if k != "elapsed"} for c in cells]


def test_lex_counts_like_its_grevlex_twin():
    for inst, i_list, p, fields in cases():
        lex = inst.with_order(LEX)
        assert lex.ring.order is LEX and inst.ring.order is GREVLEX
        for field in fields:
            for i in i_list:
                for seed in SEEDS:
                    a = compute_gi(inst, i, field, seed)
                    b = compute_gi(lex, i, field, seed)
                    assert replace(b, elapsed=a.elapsed) == a
                    assert b.stats == a.stats
        assert (strip(hilbert_table(lex, i_list, p, 8, 2024).cells)
                == strip(hilbert_table(inst, i_list, p, 8, 2024).cells))
        for i in i_list:
            assert (run_trials(lex, i, p, 3, 2024, threads=1).histogram
                    == run_trials(inst, i, p, 3, 2024, threads=1).histogram)


# the lex conics g3 count, in a child process whose address space is
# capped, so that a count that runs the engine in lex fails with a
# MemoryError instead of taking the machine's memory
_GUARD = """
import resource
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from satura.arith import prime_field
from satura.poly import LEX
from satura.problems import conics_affine_system
from satura.saturate import compute_gi, split_seed
r = compute_gi(conics_affine_system().with_order(LEX), 3, prime_field(32003),
               split_seed(2024, 0))
print(r.value)
"""


def test_lex_count_finishes_under_a_memory_cap():
    src = str(Path(satura.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _GUARD], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "15"
