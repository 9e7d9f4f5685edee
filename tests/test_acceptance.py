"""Acceptance suite: one check per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass.  Tolerances are part of the contract and are asserted exactly as
stated; every reference value comes from an independent oracle or a frozen
independent computation, never from the code under test.
"""

import time
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd

from kwise.arith import sieve_primes
from kwise.coprime import ConstraintVector, count_tuples, is_kwise_coprime
from kwise.density import (
    kwise_coprime_probability,
    local_factor,
    mobius_ratio_identity,
)
from kwise.recursion import verify_recursion
from kwise.stats import monte_carlo
from oracles import (
    binomial_tail_local_factor,
    euler_phi,
    kwise_ok,
    pairwise_local_factor,
    squarefree_divisor_count,
    zeta_reciprocal_bounds,
)


def _verdict(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def test_criterion_01_pairwise_enclosure_at_large_prime_limit():
    started = time.perf_counter()
    enc = kwise_coprime_probability(2, 2, 10**6)
    elapsed = time.perf_counter() - started
    target = Decimal("0.6079271019")
    ok = (
        enc.width < Decimal("1e-6")
        and enc.lower <= target <= enc.upper
        and elapsed < 10.0
    )
    _verdict(
        1,
        ok,
        f"pairwise density enclosure at prime limit 10^6: width {enc.width:.2E}, "
        f"brackets 0.6079271019, {elapsed:.2f}s",
    )


def test_criterion_02_all_wise_density_matches_zeta_reciprocal():
    # when k = s the density telescopes to 1/zeta(s); the oracle sums the
    # series directly with an integral tail, entirely apart from any
    # Euler product
    references = {2: "0.607927", 3: "0.831907", 4: "0.923938", 5: "0.964387"}
    terms = {2: 30_000, 3: 5_000, 4: 2_000, 5: 1_000}
    ok = True
    for s in (2, 3, 4, 5):
        enc = kwise_coprime_probability(s, s, 100_000)
        lo, hi = zeta_reciprocal_bounds(s, terms[s])
        overlap = enc.lower <= hi and lo <= enc.upper
        near = abs(enc.point - Decimal(references[s])) < Decimal("1e-6")
        ok = ok and overlap and near
    _verdict(2, ok, "k=s enclosures agree with direct 1/zeta sums for s=2..5")


def test_criterion_03_triple_pairwise_matches_classical_product():
    # factor-for-factor exact match with the classical pairwise local
    # density, then containment of its value
    factors_match = all(
        local_factor(3, 2, p) == pairwise_local_factor(3, p) for p in sieve_primes(10_000)
    )
    finite = Fraction(1)
    for p in sieve_primes(2000):
        finite *= pairwise_local_factor(3, p)
    enc_small = kwise_coprime_probability(3, 2, 2000)
    product_matches = (
        Fraction(enc_small.lower) <= finite <= Fraction(enc_small.upper)
    )
    enc = kwise_coprime_probability(3, 2, 100_000)
    reference = Decimal("0.2867474284")  # frozen from an independent evaluation
    contained = enc.lower <= reference <= enc.upper
    ok = factors_match and product_matches and contained
    _verdict(
        3,
        ok,
        "s=3 pairwise density matches the classical product factor by factor "
        "and brackets 0.2867474284",
    )


def test_criterion_04_counts_track_density_within_five_percent():
    started = time.perf_counter()
    cases = [(2, 2, 1000), (3, 2, 200), (3, 3, 200)]
    ok = True
    details = []
    for s, k, n in cases:
        enc = kwise_coprime_probability(s, k, 100_000)
        count = count_tuples(s, ConstraintVector.trivial(k), n)
        rel = abs(count / n**s - float(enc.point)) / float(enc.point)
        ok = ok and rel < 0.05
        details.append(f"(s={s},k={k},n={n}): {100 * rel:.2f}%")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 300.0
    _verdict(4, ok, "relative count errors " + ", ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_05_mobius_route_sweep():
    cells = 0
    failures = 0
    for s in range(2, 7):
        for k in range(2, min(s, 5) + 1):
            for u in range(1, 301):
                for i, lhs, rhs, equal in mobius_ratio_identity(s, k, u):
                    cells += 1
                    if not equal:
                        failures += 1
    ok = failures == 0 and cells == 9000
    _verdict(5, ok, f"Mobius-sum identity exact on all {cells} cells, {failures} failures")


def test_criterion_06_recursion_sweep():
    vectors = [(1,), (2,), (6,), (1, 1), (2, 3), (5, 6), (4, 9)]
    cells = 0
    failures = 0
    for moduli in vectors:
        constraint = ConstraintVector(moduli)
        for s in (1, 2):
            for n in range(1, 41):
                rep = verify_recursion(s, constraint, n)
                cells += 1
                if not rep.passed:
                    failures += 1
    ok = failures == 0 and cells == 560
    _verdict(
        6, ok, f"counting recursion exact on all {cells} (s, u, n) cells, {failures} failures"
    )


def test_criterion_07_predicate_equivalence_boxes():
    mismatches = 0
    for t in product(range(1, 31), repeat=3):
        for k in (2, 3):
            if is_kwise_coprime(t, k) != kwise_ok(t, k):
                mismatches += 1
    for t in product(range(1, 13), repeat=4):
        for k in (2, 3, 4):
            if is_kwise_coprime(t, k) != kwise_ok(t, k):
                mismatches += 1
    ok = mismatches == 0
    _verdict(
        7, ok, f"predicate equals subset-gcd definition on [1,30]^3 and [1,12]^4, "
        f"{mismatches} mismatches"
    )


def test_criterion_08_single_value_counts_within_divisor_bound():
    # incremental gcd scan as the oracle; the package count is cross-checked
    # against it on a subsample of every modulus
    violations = 0
    cross_mismatches = 0
    for u in range(1, 101):
        phi = euler_phi(u)
        theta = squarefree_divisor_count(u)
        running = 0
        for n in range(1, 10_001):
            if gcd(n, u) == 1:
                running += 1
            if abs(running * u - n * phi) > theta * u:
                violations += 1
        for n in (1, 4096, 10_000):
            if count_tuples(1, ConstraintVector((u,)), n) != sum(
                1 for m in range(1, n + 1) if gcd(m, u) == 1
            ):
                cross_mismatches += 1
    ok = violations == 0 and cross_mismatches == 0
    _verdict(
        8,
        ok,
        "single-value counts stay within the divisor-count band for all u <= 100, "
        f"n <= 10^4 ({violations} violations, {cross_mismatches} engine mismatches)",
    )


def test_criterion_09_monte_carlo_consistent_with_density():
    enc = kwise_coprime_probability(2, 2, 100_000)
    est = monte_carlo(2, ConstraintVector.trivial(2), 10**6, 10**6, seed=20260814)
    repeat = monte_carlo(2, ConstraintVector.trivial(2), 10**6, 10**6, seed=20260814)
    deviation = abs(est.estimate - float(enc.point)) / est.std_error
    ok = deviation <= 4.0 and est == repeat
    _verdict(
        9,
        ok,
        f"10^6-sample estimate within {deviation:.2f} standard errors of the density "
        "and bit-for-bit reproducible",
    )


def test_criterion_10_local_factor_identities():
    failures = 0
    cells = 0
    primes = sieve_primes(100)
    for s in range(1, 9):
        for k in range(2, s + 3):
            for p in primes:
                cells += 1
                if local_factor(s, k, p) != binomial_tail_local_factor(s, k, p):
                    failures += 1
    for s in range(2, 9):
        for p in primes:
            cells += 1
            if local_factor(s, s, p) != 1 - Fraction(1, p**s):
                failures += 1
    ok = failures == 0
    _verdict(
        10, ok, f"local factor equals the binomial tail and telescopes at k=s "
        f"({cells} cells, {failures} failures)"
    )
