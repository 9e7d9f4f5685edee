"""Property tests of the per-prime weight, the per-prime cap evaluator, the
counting engine, the Monte Carlo evaluator and the interval Euler product.

The one cap evaluator (behind the predicates) and the sampler's gcd
evaluator are checked against the subset-gcd oracles, the gcd evaluator
also on moduli of 2^63 and above and on int32 rows, for additivity over
splits of its rows and for invariance under their permutations, the
sampler's hits against one int64 draw of its stream at any chunk height,
the Mobius-expansion counter against enumeration and across the reduced
and raw constraint shifts (which also give the same caps, so
verify_recursion may share their counts; the reduced shift is the raw
shift's first-occurrence split, also with moduli far past 2^64), with one
engine memo shared across interleaved counts and across a verify-recursion
sweep, the weight-based formulas against their plain Fraction definitions,
and the fixed-point interval product against the exact Fraction product and
across prime limits.
"""

from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import comb, gcd, prod
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kwise import stats
from kwise.arith import factorize, sieve_primes
from kwise.coprime import (
    ConstraintVector,
    _count_caps,
    _prime_caps,
    count_tuples,
    satisfies_constraint,
)
from kwise.density import (
    _below,
    _blocks,
    _decimal_ratio,
    _interval_enclosure,
    constraint_factor,
    constraint_factor_mobius,
    limiting_density,
    local_factor,
    tail_fraction,
)
from kwise.recursion import _verify, reduce_constraint, reduce_constraint_raw, verify_recursion
from kwise.stats import _hits, monte_carlo
from oracles import (
    binomial_tail_local_factor,
    constraint_factor_mobius_literal,
    constraint_ok,
    count_by_enumeration,
    decimal_ratio_reference,
    first_occurrence_split,
    mobius_sum_weight,
    verify_recursion_unshared,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
VALUE_MAX = 120


@st.composite
def constraints(draw, max_k=4, power_max=None):
    """Pairwise-coprime moduli: each small prime goes to at most one modulus.

    Its power is p or p^2, or with power_max any that keeps the modulus
    within power_max (2^53 and 3^33 under 10^16).
    """
    k = draw(st.integers(2, max_k))
    moduli = [1] * (k - 1)
    for p in SMALL_PRIMES:
        slot = draw(st.integers(-1, k - 2))
        if slot < 0:
            continue
        top = 2
        if power_max is not None:
            top = max(e for e in range(64) if moduli[slot] * p**e <= power_max)
        if top:
            moduli[slot] *= p ** draw(st.integers(1, top))
    return ConstraintVector(tuple(moduli))


# mostly small entries, so rows of nine still satisfy the caps often
values = st.one_of(st.sampled_from((1, 2, 3, 5, 6, 7, 10, 13)), st.integers(1, VALUE_MAX))


@given(constraints(), st.lists(values, min_size=1, max_size=6))
def test_predicate_matches_subset_gcd(cv, tup):
    assert satisfies_constraint(tup, cv) == constraint_ok(tup, cv.k, cv.moduli)


# widest n per s that keeps enumerating [1, n]^s quick
ENGINE_N_MAX = {1: 300, 2: 40, 3: 12, 4: 7}


@settings(max_examples=60, deadline=None)
@given(constraints(max_k=5), st.integers(1, 4), st.data())
def test_engine_matches_enumeration(cv, s, data):
    """The Mobius-expansion counter, on a constraint or on its raw shift by j."""
    n = data.draw(st.integers(0, ENGINE_N_MAX[s]), label="n")
    j = data.draw(st.integers(0, 40), label="j (0: no shift)")
    moduli = cv.moduli
    if j:
        assume(gcd(j, moduli[0]) == 1)
        moduli = reduce_constraint_raw(j, cv)
    got = _count_caps(s, cv.k, _prime_caps(moduli), n)
    assert got == count_by_enumeration(s, cv.k, moduli, n)


@settings(max_examples=60, deadline=None)
@given(constraints(max_k=5), st.integers(1, 3), st.data())
def test_reduced_shift_counts_like_raw_shift(cv, s, data):
    n = data.draw(st.integers(0, ENGINE_N_MAX[s]), label="n")
    j = data.draw(st.integers(1, 200), label="j")
    assume(gcd(j, cv.moduli[0]) == 1)
    raw = reduce_constraint_raw(j, cv)
    assert count_tuples(s, reduce_constraint(j, cv), n) == _count_caps(s, cv.k, _prime_caps(raw), n)


wide_constraints = st.one_of(constraints(max_k=6), constraints(max_k=6, power_max=10**16))


@given(wide_constraints, st.integers(1, 5000))
@example(ConstraintVector((2**53, 3**33, 1)), 35)
@example(ConstraintVector((3**33, 1, 2**30)), 2**5 * 7)
def test_both_shifts_give_the_same_caps(cv, j):
    """What lets verify_recursion count the two shifts of a j once.

    Both follow one per-prime rule: a shift by j takes each prime's cap c_p
    (k - 1 for a prime of no modulus) to c_p - [p | j].
    """
    assume(gcd(j, cv.moduli[0]) == 1)
    raw = reduce_constraint_raw(j, cv)
    assume(max(raw) <= 10**16)  # factorize refuses larger moduli
    reduced = reduce_constraint(j, cv).moduli
    assert _prime_caps(reduced) == _prime_caps(raw)
    caps = dict(_prime_caps(cv.moduli))
    rule = {p: caps.get(p, cv.k - 1) - (j % p == 0) for p in {*caps, *dict(factorize(j))}}
    assert _prime_caps(raw) == tuple(sorted((p, c) for p, c in rule.items() if c < cv.k - 1))


# no trial division reaches these: only gcds may touch them
BIG_PRIMES = (2**61 - 1, 10**15 + 37)


@st.composite
def wide_shifts(draw):
    """(constraint, j): each of SMALL_PRIMES and BIG_PRIMES goes to at most one
    modulus and, unless that is u_1, divides j or not, each power up to 2^80."""
    k = draw(st.integers(2, 6))
    moduli, j = [1] * (k - 1), 1
    for p in SMALL_PRIMES + BIG_PRIMES:
        top = max(e for e in range(81) if p**e <= 2**80)
        slot = draw(st.integers(-1, k - 2))
        if slot >= 0:
            moduli[slot] *= p ** draw(st.integers(1, top))
        if slot != 0:
            j *= p ** draw(st.integers(0, top))
    return ConstraintVector(tuple(moduli)), j


@given(wide_shifts())
@example((ConstraintVector((3, 2**80, (2**61 - 1) * 5**34)), 2**79 * (2**61 - 1) * (10**15 + 37)))
def test_reduced_shift_is_the_first_occurrence_split_of_the_raw_shift(shift):
    """The reduced shift is the raw shift's problem as a ConstraintVector.

    Each prime stays only in the first raw component that has it, the one
    with the tightest cap, so both shifts have one cap map.
    """
    cv, j = shift
    assert reduce_constraint(j, cv).moduli == first_occurrence_split(reduce_constraint_raw(j, cv))


@settings(max_examples=40, deadline=None)
@given(constraints(max_k=5), st.integers(1, 3), st.data())
def test_shared_counts_match_unshared_recursion(cv, s, data):
    n = data.draw(st.integers(0, {1: 30, 2: 30, 3: 20}[s]), label="n")
    rep = verify_recursion(s, cv, n)
    assert (rep.lhs, rep.rhs_reduced, rep.rhs_raw) == verify_recursion_unshared(s, cv, n)


@settings(max_examples=25, deadline=None)
@given(constraints(max_k=4), st.integers(1, 3), st.data())
def test_sweep_reports_match_unshared_recursion(cv, s, data):
    """Every report of one sweep, whose shifted counts share one engine memo."""
    n_max = data.draw(st.integers(0, 30), label="N")
    reports = list(_verify(s, cv, range(1, n_max + 1)))
    assert [r.n for r in reports] == list(range(1, n_max + 1))
    for rep in reports:
        assert (rep.lhs, rep.rhs_reduced, rep.rhs_raw) == verify_recursion_unshared(s, cv, rep.n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_shared_memo_counts_like_fresh_memos(k, data):
    """Interleaved (s, cap map, n) counts at one k, relaxed moduli as the raw shift makes.

    s is drawn for each call, so one memo serves several s, as a
    verify-recursion sweep's serves its s-tuple and (s+1)-tuple counts.
    """
    moduli = st.lists(st.integers(1, 60), min_size=k - 1, max_size=k - 1).map(tuple)
    memo = {}
    for _ in range(data.draw(st.integers(1, 8), label="calls")):
        s = data.draw(st.integers(1, 4), label="s")
        u = data.draw(moduli, label="u")
        n = data.draw(st.integers(0, ENGINE_N_MAX[s]), label="n")
        caps = _prime_caps(u)
        got = _count_caps(s, k, caps, n, memo=memo)
        assert got == _count_caps(s, k, caps, n) == count_by_enumeration(s, k, u, n)


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
# each u_i != 1 has a gcd walk of its own at order i, so these are always
# tried: u_1 != 1 at order 1, then a modulus at order 2 and at orders 3 and 5
@example(ConstraintVector((3, 1, 5)), [[1, 6, 5, 2], [2, 7, 5, 5], [7, 11, 13, 1]])
@example(ConstraintVector((10, 3)), [[BIG[1], 3, 3], [BIG[0], 7, 9], [Q, 11, 1]])
@example(ConstraintVector((1, 3, 1)), [[3, 6, 5, 1], [BIG[5], 5, 7, 2], [2, 4, 6, 9]])
@example(
    ConstraintVector((1, 1, 5, 1, 7)),
    [[5, 10, 15, 7, 1, 2], [5, 10, 1, 7, 14, 2], [Q, Q, Q, 5, 7, 3]],
)
# the primes of u_3 and u_4 divide only the last entries, so their walks
# reach the levels where they fail late in the row
@example(
    ConstraintVector((1, 1, 5, 7)),
    [[1, 1, 1, 7, 5, 5], [3, 1, 7, 5, 5, 5], [1, 7, 7, 7, 7, 5], [1, 2, 1, 7, 35, 35]],
)
def test_monte_carlo_evaluator_matches_subset_gcd(cv, rows):
    expect = sum(constraint_ok(row, cv.k, cv.moduli) for row in rows)
    assert _hits(np.array(rows, dtype=np.int64), cv.k, cv.moduli) == expect
    # factorizing entries near 2^62 would need a sieve past MAX_SIEVE
    small = [row for row in rows if max(row) <= VALUE_MAX]
    if small:
        expect = sum(satisfies_constraint(row, cv) for row in small)
        assert _hits(np.array(small, dtype=np.int64), cv.k, cv.moduli) == expect


# factors of 2^63 and above: Q^3 and 17^16 share Q or 17 with some entries,
# 2^64 - 59 is a prime no entry carries; none is divisible by a SMALL_PRIME
HUGE = (Q**3, 17**16, 2**64 - 59)


@st.composite
def huge_constraints(draw):
    """constraints() with each HUGE factor put into any slot, or left out.

    Local to the sampler's property: the counting properties factor their
    moduli, and a factor this large would need a sieve past MAX_SIEVE.
    """
    moduli = list(draw(constraints(max_k=9)).moduli)
    for f in HUGE:
        slot = draw(st.integers(-1, len(moduli) - 1))
        if slot >= 0:
            moduli[slot] *= f
    return ConstraintVector(tuple(moduli))


@settings(deadline=None)
@given(huge_constraints(), sample_rows())
def test_monte_carlo_evaluator_takes_moduli_beyond_int64(cv, rows):
    expect = sum(constraint_ok(row, cv.k, cv.moduli) for row in rows)
    assert _hits(np.array(rows, dtype=np.int64), cv.k, cv.moduli) == expect


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


# entries below 2^31 that still share primes: Q - 1 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331
NARROW = (Q, Q - 1, 2**30, 3**19, 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29)


@settings(deadline=None)
@given(constraints(max_k=9), st.integers(1, 12), st.data())
def test_monte_carlo_evaluator_is_the_same_on_int32_rows(cv, s, data):
    entry = st.one_of(values, st.sampled_from(NARROW))
    rows = data.draw(st.lists(st.lists(entry, min_size=s, max_size=s), min_size=1, max_size=12))
    # Q, the largest modulus int32 rows take, in place of some u_i = 1
    moduli = list(cv.moduli)
    slot = data.draw(st.integers(-1, len(moduli) - 1), label="slot of Q")
    if slot >= 0 and moduli[slot] == 1:
        moduli[slot] = Q
    moduli = tuple(moduli)
    expect = sum(constraint_ok(row, cv.k, moduli) for row in rows)
    assert _hits(np.array(rows, dtype=np.int32), cv.k, moduli) == expect
    assert _hits(np.array(rows, dtype=np.int64), cv.k, moduli) == expect


@st.composite
def sampler_runs(draw):
    """(s, constraint, range_n, seed, samples), some past the int32 rows.

    At most one of Q (the largest modulus int32 rows take), 17^8 (past it)
    and 17^16 (past int64) joins a modulus, so the moduli stay coprime.
    """
    s = draw(st.integers(1, 12))
    moduli = list(draw(constraints(max_k=9)).moduli)
    big = draw(st.sampled_from((1, Q, 17**8, 17**16)))
    moduli[draw(st.integers(0, len(moduli) - 1))] *= big
    range_n = draw(st.one_of(st.integers(1, 200), st.sampled_from((Q, 2**31, 2**40, 2**63 - 1))))
    seed = draw(st.integers(0, 2**64 - 1))
    samples = 2 * draw(st.integers(0, 60)) + 1
    return s, ConstraintVector(tuple(moduli)), range_n, seed, samples


@settings(max_examples=60, deadline=None)
@given(sampler_runs())
@example((3, ConstraintVector((Q, 1)), Q, 1, 41))
@example((3, ConstraintVector((1, 17**8)), 50, 2, 41))
@example((2, ConstraintVector((17**16,)), 2**31, 3, 41))
def test_monte_carlo_draws_do_not_depend_on_chunks_or_dtype(run):
    # the reference: the same stream drawn at once as int64 rows
    s, cv, range_n, seed, samples = run
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.integers(1, range_n, size=(samples, s), dtype=np.int64, endpoint=True)
    expect = _hits(rows, cv.k, cv.moduli)
    narrow = max(range_n, *cv.moduli[:s]) < 2**31
    for height in (1, 7, 1 << 14):
        seen = []

        def recording(rows, k, moduli):
            seen.append(rows.dtype)
            return _hits(rows, k, moduli)

        with mock.patch.object(stats, "_CHUNK_ROWS", height):
            with mock.patch.object(stats, "_hits", recording):
                est = monte_carlo(s, cv, range_n, samples, seed=seed)
        assert est.hits == expect and est.estimate == expect / samples
        assert set(seen) == {np.dtype(np.int32 if narrow else np.int64)}


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
    """(s, k, i, u) with 1 <= i < k <= s + 3 <= 11 and u <= 10^4, often not squarefree.

    k up to s + 3 draws i = s (w_p = p^s) and i > s, where C(s,i) = 0 leaves d = 1.
    """
    s = draw(st.integers(1, 8))
    k = draw(st.integers(2, s + 3))
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


# an int of up to about 10^4 bits, spread over its bit length
long_ints = st.integers(0, 10_000).flatmap(lambda b: st.integers(2**b // 2, 2**b))


@st.composite
def decimal_ratio_cells(draw):
    """(num, den, digits) from five families, scaled by a common factor.

    Any ratio; ratios below 1e-1999; exact short decimals (64/100, 1/4, 0/7,
    10^m/1); 10^m +- 1 over 10^m; and ties, a `digits`-figure value plus half
    a unit.  The factor leaves the value alone and makes most operands
    longer than _decimal_ratio's size gate; the test's examples keep some short.
    """
    digits = draw(st.integers(1, 60))
    family = draw(st.integers(0, 4))
    if family == 0:
        num, den = draw(long_ints), draw(long_ints) or 1
    elif family == 1:
        den = draw(st.integers(10**2000, 2**10_000))
        num = draw(st.integers(0, den // 10**1999))
    elif family == 2:
        short = ((64, 100), (1, 4), (0, 7), (10 ** draw(st.integers(0, 100)), 1))
        num, den = draw(st.sampled_from(short))
    elif family == 3:
        den = 10 ** draw(st.integers(0, 200))
        num = den + draw(st.sampled_from((-1, 1)))
    else:
        m = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
        num, den = 10 * m + 5, 10 ** draw(st.integers(0, digits + 8))
    scale = draw(long_ints) or 1
    return num * scale, den * scale, digits


@settings(max_examples=400, deadline=None)
@given(decimal_ratio_cells())
# the tail bound of density --s 800 --k 700 --prime-limit 1000, 4.88...E-1971
@example((comb(800, 700), 699 * 1000**699, 50))
# short operands, which _decimal_ratio divides as Decimals without the integer pre-division
@example((64, 100, 1))
@example((64, 100, 2))
@example((64, 100, 50))
@example((0, 7, 1))
@example((0, 7, 30))
@example((1, 3, 1))
@example((1, 3, 60))
@example((10**50 - 1, 10**50, 49))
@example((10**50 - 1, 10**50, 50))
@example((10**50 - 1, 10**50, 51))
# either side of the size gate at 10 digits, 104 bits
@example((2**103 + 1, 3, 10))
@example((2**104 + 1, 3, 10))
def test_decimal_ratio_matches_one_decimal_division(cell):
    num, den, digits = cell
    for rounding in (ROUND_FLOOR, ROUND_CEILING, ROUND_HALF_EVEN):
        got = _decimal_ratio(num, den, digits, rounding)
        assert repr(got) == repr(decimal_ratio_reference(num, den, digits, rounding))


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
    # a start far too narrow for `digits` takes the exact branch, to the same digits
    narrow = _interval_enclosure(s, k, primes, [factor.as_integer_ratio()], tail, digits, bits=3)
    assert [str(d) for d in narrow] == [str(d) for d in expect]


@settings(max_examples=60, deadline=None)
@given(density_cells(), st.integers(1, 3000))
def test_enclosures_nest_as_the_prime_limit_grows(cell, step):
    """The primes in (P1, P2] and tail(P2) together stay within tail(P1)."""
    s, cv, p1, digits = cell
    wide = limiting_density(s, cv, p1, digits)
    narrow = limiting_density(s, cv, p1 + step, digits)
    assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper


@st.composite
def block_shapes(draw):
    """(s, k, prime limit) with 2 <= k <= s <= 40 and a prime limit up to 3000."""
    s = draw(st.integers(2, 40))
    return s, draw(st.integers(2, s)), draw(st.integers(2, 3000))


@settings(max_examples=60, deadline=None)
@given(block_shapes())
@example((3, 2, 2))  # a single prime
@example((2, 2, 3000))  # 430 primes in blocks of 85: the last block is short
@example((40, 3, 3000))  # blocks of 4 primes, 2 left over
def test_blocks_multiply_to_the_per_prime_pairs(shape):
    s, k, prime_limit = shape
    primes = sieve_primes(prime_limit)
    want = (
        prod((p - 1) ** e * w for p in primes for e, w in [_below(s, k, p)]),
        prod(primes) ** s,
    )
    blocks = list(_blocks(s, k, primes))
    assert tuple(map(prod, zip(*blocks))) == want


pairs_of_factors = st.lists(
    st.tuples(st.integers(1, 1000), st.integers(1000, 2000)), max_size=3
)


@settings(max_examples=60, deadline=None)
@given(block_shapes(), pairs_of_factors, st.integers(1, 60))
def test_exact_branch_prints_the_default_digits(shape, pairs, digits):
    s, k, prime_limit = shape
    tail = tail_fraction(s, k, prime_limit)
    assume(tail < 1)
    primes = sieve_primes(prime_limit)
    default = _interval_enclosure(s, k, primes, pairs, tail, digits)
    exact = _interval_enclosure(s, k, primes, pairs, tail, digits, bits=3)
    assert [str(d) for d in exact] == [str(d) for d in default]
