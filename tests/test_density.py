from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import comb, gcd, pi

import numpy as np
import pytest

from kwise import density
from kwise.arith import BudgetError, sieve_primes
from kwise.coprime import ConstraintVector, _picks
from kwise.density import (
    _below,
    _decimal_ratio,
    _interval_enclosure,
    constraint_factor,
    constraint_factor_mobius,
    error_log_exponent,
    kwise_coprime_probability,
    limiting_density,
    local_factor,
    mobius_ratio_identity,
    tail_fraction,
)
from kwise.recursion import reduce_constraint_raw
from oracles import (
    binomial_tail_local_factor,
    euler_phi,
    mobius_sum_weight,
    pairwise_local_factor,
    zeta_reciprocal_bounds,
)


def test_local_factor_examples():
    assert local_factor(2, 2, 2) == Fraction(3, 4)
    assert local_factor(2, 2, 3) == Fraction(8, 9)
    assert local_factor(3, 2, 2) == Fraction(1, 2)
    assert local_factor(1, 2, 2) == 1
    assert local_factor(2, 3, 5) == 1


def test_local_factor_is_binomial_tail():
    for s in range(1, 7):
        for k in range(2, s + 3):
            for p in sieve_primes(50):
                assert local_factor(s, k, p) == binomial_tail_local_factor(s, k, p)


def test_local_factor_telescopes_at_k_equal_s():
    for s in range(2, 9):
        for p in sieve_primes(40):
            assert local_factor(s, s, p) == 1 - Fraction(1, p**s)


def test_local_factor_pairwise_matches_classical_product():
    for s in range(2, 9):
        for p in sieve_primes(100):
            assert local_factor(s, 2, p) == pairwise_local_factor(s, p)


def test_local_factor_range_and_monotonicity():
    primes = sieve_primes(30)
    for k in (2, 3, 4):
        for p in primes:
            values = [local_factor(s, k, p) for s in range(1, 9)]
            assert all(0 < v <= 1 for v in values)
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all((v == 1) == (s < k) for s, v in enumerate(values, start=1))
    for s in (4, 6):
        for p in primes:
            by_k = [local_factor(s, k, p) for k in range(2, s + 2)]
            assert all(a <= b for a, b in zip(by_k, by_k[1:]))
        by_p = [local_factor(s, 2, p) for p in primes]
        assert all(a < b for a, b in zip(by_p, by_p[1:]))


def test_local_factor_validation():
    with pytest.raises(ValueError):
        local_factor(2, 2, 4)
    with pytest.raises(ValueError):
        local_factor(2, 2, 1)
    with pytest.raises(ValueError):
        local_factor(0, 2, 5)
    with pytest.raises(ValueError):
        local_factor(2, 1, 5)


def test_below_is_the_integer_pair_of_the_binomial_sum():
    # (e, w) itself, not only the value it stands for: e = s - r + 1 and
    # w = sum_{m<r} C(s,m) (p-1)^(r-1-m) for r <= s, and (0, p^s) once r > s
    for s in range(1, 8):
        for r in range(2, s + 3):
            for p in sieve_primes(60):
                if r > s:
                    assert _below(s, r, p) == (0, p**s)
                    continue
                w = sum(comb(s, m) * (p - 1) ** (r - 1 - m) for m in range(r))
                assert _below(s, r, p) == (s - r + 1, w)


def test_constraint_factor_examples():
    assert constraint_factor(2, 2, 1, 1) == 1
    assert constraint_factor(2, 2, 1, 2) == Fraction(1, 3)
    assert constraint_factor(2, 2, 1, 3) == Fraction(1, 2)
    assert constraint_factor(2, 3, 1, 2) == Fraction(1, 4)
    assert constraint_factor(2, 3, 2, 3) == Fraction(8, 9)


def test_constraint_factor_single_value_is_totient_ratio():
    # i = 1 for one value: the value must avoid every prime of u
    for k in (2, 3, 4):
        for u in range(1, 80):
            if all(u % (q * q) for q in range(2, u)):  # squarefree: exact phi/u
                assert constraint_factor(1, k, 1, u) == Fraction(euler_phi(u), u)
    for k in (2, 3):
        for i in range(2, k):
            for u in range(1, 40):
                assert constraint_factor(1, k, i, u) == 1


def test_constraint_factor_radical_dependence():
    for s in (1, 2, 3):
        for k in (2, 3):
            for i in range(1, k):
                for p in (2, 3, 5):
                    base = constraint_factor(s, k, i, p)
                    for a in (2, 3, 4):
                        assert constraint_factor(s, k, i, p**a) == base


def test_constraint_factor_multiplicative():
    for s in (1, 2, 3, 4):
        for k in (2, 3):
            for i in range(1, k):
                for a in range(1, 30):
                    for b in range(1, 30):
                        if gcd(a, b) == 1:
                            assert constraint_factor(s, k, i, a * b) == constraint_factor(
                                s, k, i, a
                            ) * constraint_factor(s, k, i, b)


def test_constraint_factor_monotone_in_i():
    for s in (2, 3, 5):
        for k in (3, 4):
            for u in (2, 6, 30):
                by_i = [constraint_factor(s, k, i, u) for i in range(1, k)]
                assert all(0 < v <= 1 for v in by_i)
                assert all(a <= b for a, b in zip(by_i, by_i[1:]))


def test_constraint_factor_validation():
    with pytest.raises(ValueError):
        constraint_factor(2, 3, 0, 5)
    with pytest.raises(ValueError):
        constraint_factor(2, 3, 3, 5)
    with pytest.raises(ValueError):
        constraint_factor(2, 3, 1, 0)


def test_mobius_sum_weight_values():
    assert mobius_sum_weight(2, 1, 1) == 1
    for p in sieve_primes(40):
        assert mobius_sum_weight(2, 1, p) == p + 1
        assert mobius_sum_weight(1, 1, p) == p
    assert mobius_sum_weight(3, 2, 2) == 7
    # per prime at i = 1 the weight is (p - 1) + s
    assert mobius_sum_weight(3, 1, 6) == (1 + 3) * (2 + 3)


def test_mobius_sum_weight_validation():
    with pytest.raises(ValueError, match=r"^s must be at least 1, got 0$"):
        mobius_sum_weight(0, 1, 6)
    with pytest.raises(ValueError, match=r"^i must be at least 1, got 0$"):
        mobius_sum_weight(2, 0, 6)
    with pytest.raises(ValueError, match=r"^d must be a positive integer, got 0$"):
        mobius_sum_weight(2, 1, 0)


def test_mobius_sum_weight_integer_on_squarefree():
    for s in (1, 2, 3, 4):
        for i in (1, 2, 3):
            for d in (1, 2, 3, 5, 6, 10, 15, 30, 105):
                w = mobius_sum_weight(s, i, d)
                assert w.denominator == 1
                if d > 1:
                    if s == 1:
                        assert w >= d
                    else:
                        assert w > d


def test_mobius_route_matches_factor_ratios():
    for s in range(1, 5):
        for k in range(2, 5):
            for u in range(1, 61):
                for i, lhs, rhs, equal in mobius_ratio_identity(s, k, u):
                    assert equal, (s, k, i, u, lhs, rhs)
                    assert constraint_factor_mobius(s, k, i, u) == lhs


def test_weight_degree_stays_within_s(monkeypatch):
    # P[p divides fewer than r of s residues] is 1 once r > s, so no weight need
    # run past degree s, however large k (4000 and 501 here) is
    seen = []
    density._below.cache_clear()
    weights = density._weights
    monkeypatch.setattr(density, "_weights", lambda *a: seen.append(a[:2]) or weights(*a))
    assert all(ok for *_, ok in mobius_ratio_identity(5, 4000, 3))
    moduli = tuple(sieve_primes(4000)[1:501])
    assert limiting_density(2, ConstraintVector(moduli), 1000).point < 1
    assert {s for s, _ in seen} == {5, 2}
    assert all(r <= s + 1 for s, r in seen)


def test_constraint_enters_the_product_as_capped_pairs(monkeypatch):
    # at s = 2 only the primes of u_1 and u_2 are capped below s: two pairs of
    # two probabilities each, where a walk of the moduli took 1000
    moduli = tuple(sieve_primes(4000)[1:501])
    k = len(moduli) + 1
    want = constraint_factor(2, k, 1, 3) * constraint_factor(2, k, 2, 5)
    calls = []
    below, factor = density._below, density.constraint_factor
    monkeypatch.setattr(density, "_below", lambda *a: calls.append("below") or below(*a))
    monkeypatch.setattr(density, "constraint_factor", lambda *a: calls.append(a) or factor(*a))
    enc = limiting_density(2, ConstraintVector(moduli), 1000)
    assert len(calls) <= 4 and set(calls) == {"below"}
    assert Fraction(enc.lower) <= want <= Fraction(enc.upper)


def test_cap_weights_sum_to_the_capped_probability():
    # the count engine's weights for one group of s coordinates under cap c,
    # at x = 1/p, sum to _below(s, c + 1, p): both routes read one polynomial
    for s in range(1, 9):
        for c in range(s + 1):
            for p in (2, 3, 5, 7, 101):
                x = Fraction(1, p)
                e, w = _below(s, c + 1, p)
                assert 1 + sum(h * x**a for (a,), h in _picks((s,), c)) == Fraction(
                    (p - 1) ** e * w, p**s
                ), (s, c, p)


def test_mobius_route_rejects_an_order_below_two():
    # an empty range of i must not pass for a check
    for s, k in ((2, 1), (2, 0), (0, 2)):
        with pytest.raises(ValueError):
            mobius_ratio_identity(s, k, 6)


def test_mobius_route_takes_numpy_ints():
    want = mobius_ratio_identity(2, 3, 30)
    got = mobius_ratio_identity(np.int64(2), np.int64(3), np.int64(30))
    assert got == want
    assert all(type(ok) is bool for *_, ok in got)
    assert all(type(v.numerator) is int for _, lhs, rhs, _ in got for v in (lhs, rhs))
    with pytest.raises(TypeError):
        mobius_ratio_identity(2, 3, 30.0)


def test_error_log_exponent():
    assert error_log_exponent(2, 2) == 1
    assert error_log_exponent(4, 3) == 3
    assert error_log_exponent(5, 4) == 6
    assert error_log_exponent(1, 2) == 0
    assert error_log_exponent(1, 5) == 0
    with pytest.raises(ValueError):
        error_log_exponent(0, 2)
    with pytest.raises(ValueError):
        error_log_exponent(3, 1)


def test_tail_fraction():
    assert tail_fraction(2, 2, 1000) == Fraction(1, 1000)
    assert tail_fraction(3, 2, 100) == Fraction(3, 100)
    assert tail_fraction(2, 3, 10) == 0
    # below k the tail is 0 without building prime_limit^(k - 1)
    assert tail_fraction(2, 10**6, 10**5) == 0
    values = [tail_fraction(4, 3, P) for P in (10, 100, 1000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_decimal_ratio_directed_rounding():
    cases = [
        (1, 3),
        (2, 7),
        (6087, 10000),
        (7**500, 11**480),  # operands of well over a thousand bits
        (3**2000 + 1, 5**1700),
    ]
    for num, den in cases:
        exact = Fraction(num, den)
        lo = _decimal_ratio(num, den, 30, ROUND_FLOOR)
        hi = _decimal_ratio(num, den, 30, ROUND_CEILING)
        mid = _decimal_ratio(num, den, 30, ROUND_HALF_EVEN)
        assert Fraction(lo) <= exact <= Fraction(hi)
        assert lo <= mid <= hi
        # the bracket is tight: one unit in the last of 30 digits
        with localcontext() as ctx:
            ctx.prec = 40
            assert Fraction(hi) - Fraction(lo) <= Fraction(2, 10**28) * exact
    assert _decimal_ratio(0, 5, 10, ROUND_FLOOR) == 0


def test_interval_enclosure_compares_exponents():
    # X = (8/9)(11/26) = 0.376..., X (1 - 1/5) = 0.3008...; at 8 bits the low
    # end's lower bound is exactly 0.3, equal in value to X's inexact 0.30
    got = _interval_enclosure(2, 2, [3], [(11, 26)], Fraction(1, 5), 2, bits=8)
    assert [str(d) for d in got] == ["0.30", "0.38", "0.38"]


def test_sieve_primes_enter_the_product_in_blocks(monkeypatch):
    # at s = 2 below 10^6 (primes of 20 bits) a block holds 2048 // 40 = 51 primes,
    # so the loop takes ceil(78498 / 51) steps for the primes, one per pair,
    # and builds no per-prime probability
    primes, pairs = sieve_primes(10**6), [(11, 26), (3, 4)]
    tail = tail_fraction(2, 2, 10**6)
    want = _interval_enclosure(2, 2, primes, pairs, tail, 50)
    calls, seen = [], []
    below, blocks = density._below, density._blocks
    monkeypatch.setattr(density, "_below", lambda *a: calls.append(a) or below(*a))
    monkeypatch.setattr(density, "_blocks", lambda *a: (seen.append(b) or b for b in blocks(*a)))
    got = _interval_enclosure(2, 2, primes, pairs, tail, 50)
    assert repr(got) == repr(want) and calls == []
    assert len(primes) == 78498 and len(seen) <= -(-78498 // 51)


def test_density_on_a_short_decimal_matches_exact_digits():
    # (3/4)(8/9)(24/25) = 0.64 exactly: the interval ends straddle it at every width
    enc = kwise_coprime_probability(2, 2, 5)
    assert (str(enc.lower), str(enc.upper), str(enc.point)) == ("0.512", "0.64", "0.64")


def test_small_product_is_decided_without_the_exact_product(monkeypatch):
    # X = 2.04e-26 at s = 40, k = 2, P = 1000 lies 85 bits below 1, more than
    # the 32 guard bits of the default width, yet one pass decides its digits
    primes = sieve_primes(1000)
    tail = tail_fraction(40, 2, 1000)
    exact = _interval_enclosure(40, 2, primes, [], tail, 30, bits=3)
    calls = []
    real = density._decimals
    monkeypatch.setattr(density, "_decimals", lambda *args: calls.append(args) or real(*args))
    got = _interval_enclosure(40, 2, primes, [], tail, 30)
    assert len(calls) == 2 and repr(got) == repr(exact)
    assert str(got[2]) == "2.04065149703955232567932165758E-26"


@pytest.mark.parametrize(
    "s, k, prime_limit, passes",
    [(800, 700, 1000, 1), (800, 799, 1000, 1), (3000, 2999, 1000, 1), (2, 2, 5, 2)],
)
def test_only_a_tie_takes_the_exact_branch(monkeypatch, s, k, prime_limit, passes):
    # 1 - D is about 2^-790 at (800, 799), and the widened start resolves it in
    # one pass of the blocks; the exact branch makes a second pass, which only a
    # tie such as 0.64 at (2, 2), P = 5 still takes
    seen = []
    blocks = density._blocks
    monkeypatch.setattr(density, "_blocks", lambda *a: seen.append(a[:2]) or blocks(*a))
    kwise_coprime_probability(s, k, prime_limit)
    assert seen == [(s, k)] * passes


def test_probability_enclosure_pairwise():
    enc = kwise_coprime_probability(2, 2, 10_000)
    target = Decimal(repr(6 / pi**2))
    assert enc.lower <= target <= enc.upper
    assert enc.lower <= enc.point <= enc.upper
    assert enc.width > 0
    assert enc.width <= 2 * enc.tail_bound
    assert enc.prime_limit == 10_000


def test_width_is_exact_above_999_digits():
    enc = limiting_density(2, ConstraintVector.trivial(2), 3001, 1100)
    assert Fraction(enc.width) == Fraction(enc.upper) - Fraction(enc.lower)


def test_probability_matches_zeta_oracle():
    # k = s products collapse to 1/zeta(s)
    for s, terms in ((2, 20000), (3, 4000), (4, 2000)):
        lo, hi = zeta_reciprocal_bounds(s, terms)
        enc = kwise_coprime_probability(s, s, 20_000)
        assert enc.lower <= hi and lo <= enc.upper, (s, enc, lo, hi)


def test_probability_exact_when_s_below_k():
    for s, k in ((1, 2), (2, 3), (3, 5)):
        enc = kwise_coprime_probability(s, k, 100)
        assert enc.lower == enc.upper == enc.point == 1
        assert enc.tail_bound == 0


def test_limiting_density_skips_moduli_of_one(monkeypatch):
    calls = []
    pairs = density._capped_pairs
    monkeypatch.setattr(density, "_capped_pairs", lambda *a: calls.append(a) or pairs(*a))
    enc = limiting_density(2, ConstraintVector.trivial(1000))
    assert calls == [(2, 1000, ())]
    assert (enc.lower, enc.upper, enc.point, enc.tail_bound) == (1, 1, 1, 0)
    assert enc.prime_limit == density.DEFAULT_PRIME_LIMIT
    # a modulus other than 1 still enters the product, at its own order
    assert limiting_density(3, ConstraintVector((1, 5)), 1000).point < 1
    assert calls[1:] == [(3, 3, ((5, 1),))]


def test_probability_point_is_truncated_product():
    product = Fraction(1)
    for p in sieve_primes(200):
        product *= local_factor(3, 2, p)
    enc = kwise_coprime_probability(3, 2, 200, precision=25)
    with localcontext() as ctx:
        ctx.prec = 25
        ctx.rounding = ROUND_HALF_EVEN
        expected = Decimal(product.numerator) / Decimal(product.denominator)
    assert enc.point == expected


def test_probability_monotone_in_prime_limit():
    limits = [100, 1000, 10_000]
    encs = [kwise_coprime_probability(3, 2, P) for P in limits]
    for a, b in zip(encs, encs[1:]):
        # nested: later enclosures sit inside earlier ones
        assert a.lower <= b.lower and b.upper <= a.upper
        assert b.width < a.width


def test_probability_monotone_in_s_and_k():
    points = [kwise_coprime_probability(s, 2, 2000).point for s in (2, 3, 4, 5)]
    assert all(a > b for a, b in zip(points, points[1:]))
    points_k = [kwise_coprime_probability(5, k, 2000).point for k in (2, 3, 4, 5)]
    assert all(a < b for a, b in zip(points_k, points_k[1:]))


def test_probability_validation():
    with pytest.raises(ValueError):
        kwise_coprime_probability(8, 2, 23)  # tail bound 28/23 >= 1
    with pytest.raises(ValueError):
        kwise_coprime_probability(2, 2, 1)
    with pytest.raises(ValueError):
        kwise_coprime_probability(2, 2, 1000, precision=0)
    with pytest.raises(ValueError):
        kwise_coprime_probability(2, 1, 1000)


def test_precision_above_the_limit_is_refused_before_any_work(monkeypatch):
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(density, "tail_fraction", started)
    c = ConstraintVector((5, 6))
    with pytest.raises(BudgetError, match=f"limit of {density.MAX_PRECISION} digits"):
        limiting_density(2, c, 100, density.MAX_PRECISION + 1)
    with pytest.raises(Started):
        limiting_density(2, c, 100, density.MAX_PRECISION)


def test_limiting_density_trivial_matches_bare_probability():
    for s, k in ((2, 2), (3, 2), (3, 3), (2, 4)):
        a = kwise_coprime_probability(s, k, 2000)
        b = limiting_density(s, ConstraintVector.trivial(k), 2000)
        assert (a.lower, a.upper, a.point, a.tail_bound) == (
            b.lower,
            b.upper,
            b.point,
            b.tail_bound,
        )


def test_limiting_density_single_odd_value():
    enc = limiting_density(1, ConstraintVector((2,)), 1000)
    assert enc.lower == enc.upper == enc.point == Decimal("0.5")


def test_limiting_density_coprime_odd_pairs():
    # pairs coprime with both entries odd: a third of all coprime pairs
    enc = limiting_density(2, ConstraintVector((2,)), 100_000)
    target = Decimal("0.2026423672846755")
    assert enc.lower <= target <= enc.upper
    bare = kwise_coprime_probability(2, 2, 100_000)
    ratio = float(enc.point) / float(bare.point)
    assert abs(ratio - 1 / 3) < 1e-12


def test_limiting_density_scales_by_constraint_factors():
    c = ConstraintVector((5, 6))
    enc = limiting_density(3, c, 5000)
    bare = kwise_coprime_probability(3, 3, 5000)
    factor = constraint_factor(3, 3, 1, 5) * constraint_factor(3, 3, 2, 6)
    assert abs(float(enc.point) / float(bare.point) - float(factor)) < 1e-12
    assert enc.upper <= bare.upper


def test_limiting_density_validation():
    for moduli in ((2,), reduce_constraint_raw(4, ConstraintVector((5, 6)))):
        with pytest.raises(TypeError, match="got tuple"):
            limiting_density(2, moduli, 1000)
    with pytest.raises(ValueError):
        limiting_density(8, ConstraintVector.trivial(2), 23)


def test_limiting_density_takes_integers():
    # numpy ints used to fail deep inside the product, and a float prime limit in the tail bound
    c = ConstraintVector((5,))
    want = limiting_density(2, c, 1000, 10)
    for s, prime_limit, precision in ((np.int64(2), 1000, 10), (2, np.int64(1000), 10),
                                      (2, 1000, np.int64(10))):
        got = limiting_density(s, c, prime_limit, precision)
        assert got == want and type(got.prime_limit) is int
    assert kwise_coprime_probability(np.int64(2), np.int64(2), np.int64(1000)) == (
        kwise_coprime_probability(2, 2, 1000)
    )
    for bad in ({"s": 2.0}, {"prime_limit": 1000.5}, {"precision": 10.0}):
        with pytest.raises(TypeError):
            limiting_density(**{"s": 2, "constraint": c, "prime_limit": 1000, "precision": 10,
                                **bad})
    with pytest.raises(TypeError):
        kwise_coprime_probability(2, 2.0)
    # each entry point converts its integers itself, so a float k is never read
    # as lying above s (where every factor is 1 and the tail 0)
    for f, args in ((local_factor, (2, 2.5, 3)), (local_factor, (2.0, 3, 3)),
                    (tail_fraction, (2, 2.5, 10)), (tail_fraction, (2, 3, 10.5)),
                    (constraint_factor, (2, 2.5, 1, 6)), (constraint_factor, (2, 3, 1.0, 6)),
                    (constraint_factor_mobius, (2, 3, 1, 6.0)), (error_log_exponent, (2.0, 3))):
        with pytest.raises(TypeError):
            f(*args)
    assert local_factor(np.int64(2), np.int64(3), 5) == 1
    assert constraint_factor(np.int64(2), 3, np.int64(1), np.int64(6)) == constraint_factor(2, 3, 1, 6)
