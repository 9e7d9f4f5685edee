"""Property tests of the per-prime weight, the per-prime cap evaluator, the
counting engine, the Monte Carlo evaluator and the interval Euler product.

Both routes into the one cap evaluator (the predicate and the naive counter)
and the sampler's gcd evaluator are checked against the subset-gcd oracles,
the gcd evaluator also for additivity over splits of its rows and invariance
under their permutations, the Mobius-expansion counter against enumeration
and the naive counter and across the reduced and raw constraint shifts
(which also give the same caps, so verify_recursion may share their
counts), the weight-based formulas against their plain Fraction
definitions, and the fixed-point interval product against the exact
Fraction product and across prime limits.
"""

from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import comb, gcd, prod

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kwise.arith import sieve_primes
from kwise.coprime import (
    ConstraintVector,
    _count_caps,
    _prime_caps,
    count_tuples,
    satisfies_constraint,
)
from kwise.density import (
    _interval_enclosure,
    constraint_factor,
    constraint_factor_mobius,
    limiting_density,
    local_factor,
    mobius_sum_weight,
    tail_fraction,
)
from kwise.recursion import reduce_constraint, reduce_constraint_raw, verify_recursion
from kwise.stats import _hits
from oracles import (
    binomial_tail_local_factor,
    constraint_factor_mobius_literal,
    constraint_ok,
    count_by_enumeration,
    verify_recursion_unshared,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
VALUE_MAX = 120


@st.composite
def constraints(draw, max_k=4):
    """Pairwise-coprime moduli: each small prime goes to at most one modulus."""
    k = draw(st.integers(2, max_k))
    moduli = [1] * (k - 1)
    for p in SMALL_PRIMES:
        slot = draw(st.integers(-1, k - 2))
        if slot >= 0:
            moduli[slot] *= p ** draw(st.integers(1, 2))
    return ConstraintVector(tuple(moduli))


# mostly small entries, so rows of nine still satisfy the caps often
values = st.one_of(st.sampled_from((1, 2, 3, 5, 6, 7, 10, 13)), st.integers(1, VALUE_MAX))


@given(constraints(), st.lists(values, min_size=1, max_size=6))
def test_predicate_matches_subset_gcd(cv, tup):
    assert satisfies_constraint(tup, cv) == constraint_ok(tup, cv.k, cv.moduli)


@settings(max_examples=40, deadline=None)
@given(constraints(max_k=3), st.integers(1, 3), st.integers(1, 6))
def test_naive_count_matches_enumeration(cv, s, n):
    got = count_tuples(s, cv, n, strategy="naive")
    assert got == count_by_enumeration(s, cv.k, cv.moduli, n)


# widest n per s that keeps enumerating [1, n]^s quick
ENGINE_N_MAX = {1: 300, 2: 40, 3: 12, 4: 7}


@settings(max_examples=60, deadline=None)
@given(constraints(max_k=5), st.integers(1, 4), st.data())
def test_engine_matches_enumeration_and_naive(cv, s, data):
    """The Mobius-expansion counter, on a constraint or on its raw shift by j."""
    n = data.draw(st.integers(0, ENGINE_N_MAX[s]), label="n")
    j = data.draw(st.integers(0, 40), label="j (0: no shift)")
    moduli = cv.moduli
    if j:
        assume(gcd(j, moduli[0]) == 1)
        moduli = reduce_constraint_raw(j, cv).moduli
    caps = _prime_caps(moduli)
    got = _count_caps(s, cv.k, caps, n)
    assert got == count_by_enumeration(s, cv.k, moduli, n)
    assert got == _count_caps(s, cv.k, caps, n, strategy="naive")


@settings(max_examples=60, deadline=None)
@given(constraints(max_k=5), st.integers(1, 3), st.data())
def test_reduced_shift_counts_like_raw_shift(cv, s, data):
    n = data.draw(st.integers(0, ENGINE_N_MAX[s]), label="n")
    j = data.draw(st.integers(1, 200), label="j")
    assume(gcd(j, cv.moduli[0]) == 1)
    raw = reduce_constraint_raw(j, cv).moduli
    assert count_tuples(s, reduce_constraint(j, cv), n) == _count_caps(s, cv.k, _prime_caps(raw), n)


@given(constraints(max_k=6), st.integers(1, 5000))
def test_both_shifts_give_the_same_caps(cv, j):
    """What lets verify_recursion count the two shifts of a j once."""
    assume(gcd(j, cv.moduli[0]) == 1)
    reduced = reduce_constraint(j, cv).moduli
    raw = reduce_constraint_raw(j, cv).moduli
    assert _prime_caps(reduced) == _prime_caps(raw)


@settings(max_examples=40, deadline=None)
@given(constraints(max_k=5), st.integers(1, 3), st.data())
def test_shared_counts_match_unshared_recursion(cv, s, data):
    n = data.draw(st.integers(0, {1: 30, 2: 30, 3: 20}[s]), label="n")
    rep = verify_recursion(s, cv, n)
    assert (rep.lhs, rep.rhs_reduced, rep.rhs_raw) == verify_recursion_unshared(s, cv, n)


# entries near 2^62 sharing 2, 3, 5, 7 or the prime 2^31 - 1
Q = 2**31 - 1
BIG = (2**62, 2**62 - 1, Q * Q, 6 * Q, 10 * Q, 2**62 // 15 * 15, 2**62 // 7 * 7)


@st.composite
def sample_rows(draw):
    s = draw(st.integers(1, 12))
    entry = st.one_of(values, st.sampled_from(BIG))
    return draw(st.lists(st.lists(entry, min_size=s, max_size=s), min_size=1, max_size=12))


@settings(deadline=None)
@given(constraints(max_k=9), sample_rows())
def test_monte_carlo_evaluator_matches_subset_gcd(cv, rows):
    expect = sum(constraint_ok(row, cv.k, cv.moduli) for row in rows)
    assert _hits(np.array(rows, dtype=np.int64), cv.k, cv.moduli) == expect
    # factorizing entries near 2^62 would need a sieve past MAX_SIEVE
    small = [row for row in rows if max(row) <= VALUE_MAX]
    if small:
        expect = sum(satisfies_constraint(row, cv) for row in small)
        assert _hits(np.array(small, dtype=np.int64), cv.k, cv.moduli) == expect


@settings(deadline=None)
@given(constraints(max_k=9), sample_rows(), st.data())
def test_monte_carlo_evaluator_is_additive_and_order_free(cv, rows, data):
    # a survivor index that mixed up rows could keep the total right on one
    # order of the rows, but not on every split and permutation of them
    arr = np.array(rows, dtype=np.int64)
    total = _hits(arr, cv.k, cv.moduli)
    side = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))))
    assert _hits(arr[side], cv.k, cv.moduli) + _hits(arr[~side], cv.k, cv.moduli) == total
    order = data.draw(st.permutations(range(len(rows))))
    assert _hits(arr[order], cv.k, cv.moduli) == total


@given(st.integers(1, 9), st.integers(2, 7), st.sampled_from((2, 3, 5, 7, 11, 101, 7919)))
def test_local_factor_is_binomial_tail(s, k, p):
    assert local_factor(s, k, p) == binomial_tail_local_factor(s, k, p)


def _mobius_sum_weight_definition(s, i, d):
    """d^i * prod_{p|d} sum_{m<=i} C(s,m) (1-1/p)^(i-m) p^-m, term by term."""
    out = Fraction(d) ** i
    for p in range(2, d + 1):
        if d % p == 0 and all(p % q for q in range(2, p)):
            q = Fraction(p - 1, p)
            out *= sum(comb(s, m) * q ** (i - m) * Fraction(1, p**m) for m in range(i + 1))
    return out


non_squarefree = st.one_of(
    st.sampled_from((4, 8, 12, 18, 50, 72, 300)),
    st.builds(lambda a, b: a * b * b, st.integers(1, 30), st.integers(2, 8)),
)


@given(st.integers(1, 6), st.integers(1, 4), non_squarefree)
def test_mobius_sum_weight_on_non_squarefree(s, i, d):
    assert mobius_sum_weight(s, i, d) == _mobius_sum_weight_definition(s, i, d)


@st.composite
def lemma4_cells(draw):
    """(s, k, i, u) with 1 <= i < k <= s + 1 <= 9 and u <= 10^4, often not squarefree."""
    s = draw(st.integers(1, 8))
    k = draw(st.integers(2, s + 1))
    u = draw(st.one_of(st.integers(1, 10**4), non_squarefree.filter(lambda d: d <= 10**4)))
    return s, k, draw(st.integers(1, k - 1)), u


@settings(deadline=None)
@given(lemma4_cells())
def test_mobius_route_matches_literal_fraction_sum(cell):
    s, k, i, u = cell
    assert constraint_factor_mobius(s, k, i, u) == constraint_factor_mobius_literal(s, i, u)


def _rounded(value, digits, rounding):
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = rounding
        return Decimal(value.numerator) / Decimal(value.denominator)


@st.composite
def density_cells(draw):
    """(s, constraint, prime limit, digits) with k <= s <= 8 and a tail below 1."""
    s = draw(st.integers(2, 8))
    cv = draw(st.one_of(st.builds(ConstraintVector.trivial, st.integers(2, s)), constraints(s)))
    prime_limit = draw(st.integers(2, 3000))
    assume(tail_fraction(s, cv.k, prime_limit) < 1)
    return s, cv, prime_limit, draw(st.integers(5, 80))


@settings(max_examples=60, deadline=None)
@given(density_cells())
def test_interval_product_matches_exact_product(cell):
    s, cv, prime_limit, digits = cell
    k = cv.k
    primes = sieve_primes(prime_limit)
    factor = prod(
        (constraint_factor(s, k, i, u) for i, u in enumerate(cv.moduli, start=1)),
        start=Fraction(1),
    )
    product = factor * prod(binomial_tail_local_factor(s, k, p) for p in primes)
    tail = tail_fraction(s, k, prime_limit)
    enc = limiting_density(s, cv, prime_limit, digits)
    assert Fraction(enc.lower) <= product * (1 - tail) and product <= Fraction(enc.upper)
    expect = (
        _rounded(product * (1 - tail), digits, ROUND_FLOOR),
        _rounded(product, digits, ROUND_CEILING),
        _rounded(product, digits, ROUND_HALF_EVEN),
    )
    assert [str(d) for d in (enc.lower, enc.upper, enc.point)] == [str(d) for d in expect]
    # a start far too narrow for `digits` takes the doubling branch to the same digits
    narrow = _interval_enclosure(s, k, primes, factor, tail, digits, bits=3)
    assert [str(d) for d in narrow] == [str(d) for d in expect]


@settings(max_examples=60, deadline=None)
@given(density_cells(), st.integers(1, 3000))
def test_enclosures_nest_as_the_prime_limit_grows(cell, step):
    """The primes in (P1, P2] and tail(P2) together stay within tail(P1)."""
    s, cv, p1, digits = cell
    wide = limiting_density(s, cv, p1, digits)
    narrow = limiting_density(s, cv, p1 + step, digits)
    assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper
