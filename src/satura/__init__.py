"""Counting solutions of polynomial systems outside a base locus.

Random linear slices plus a Rabinowitz-style inverted variable turn the
counting problem into an ideal-degree computation; companion modules
bound how likely a random prime-field run reproduces the exact rational
answer, and certify counts through Hilbert-function arguments.
"""

from .arith import QQ, PrimeField, RationalField, field_from_descriptor, prime_field
from .poly import (GREVLEX, LEX, PolyRing, Polynomial, monomials_up_to_degree,
                   order_from_name, parse_polynomial, polys_from_json,
                   polys_to_json, print_polynomial)
from .groebner import (GroebnerBasis, LeadingIdeal, buchberger, ideal_degree,
                       leading_ideal, normal_form, quotient_basis,
                       s_polynomial, verify_groebner)
from .problems import (ProblemInstance, alt_system, conics_affine_system,
                       conics_pstar_system, example_monomial_system,
                       get_problem, verify_base_locus)
from .saturate import (SaturationParameters, build_saturated_system,
                       compute_gi, degree_profile, draw_parameters,
                       integer_primitive, lm_agreement_test,
                       saturated_leading_ideal, split_seed)
from .hilbert import (affine_hilbert_function, emit_certification_system,
                      find_points_bruteforce, jde_dimension, veronese_matrix,
                      veronese_rank_lower_bound)
from .bounds import (BoundsInput, bezout_bound, bounds_report,
                     discriminant_degree_bound, lucky_probability_lower_bound,
                     min_prime_exponent, nu_upper_bound,
                     success_probability_lower_bound)
from .harness import gi_table, hilbert_table, run_trials

__version__ = "0.1.0"
