"""Independent reference implementations used to check the package.

Everything here goes straight from definitions or well-known identities,
avoiding the package's own formulas and engines: predicates test subset
gcds literally, counts enumerate tuples, zeta is summed directly with an
integral tail, and the pairwise density uses the classical product form.
Slow is fine; these only run at test scale.
"""

from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd


def gcd_of(values):
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def kwise_ok(values, k):
    """Definition: every size-k subset has gcd 1 (vacuous if len < k)."""
    return all(gcd_of(sub) == 1 for sub in combinations(values, k))


def kwise_to_ok(values, k, u):
    """Definition: every size-k subset's gcd is coprime to u."""
    return all(gcd(gcd_of(sub), u) == 1 for sub in combinations(values, k))


def constraint_ok(values, k, moduli):
    if not kwise_ok(values, k):
        return False
    return all(kwise_to_ok(values, i, u) for i, u in enumerate(moduli, start=1))


def count_by_enumeration(s, k, moduli, n):
    """Tuple count straight from the subset-gcd definitions."""
    return sum(
        1
        for t in product(range(1, n + 1), repeat=s)
        if constraint_ok(t, k, moduli)
    )


def coprime_count(n, u):
    """Values in [1, n] coprime to u, by direct gcd scan."""
    return sum(1 for m in range(1, n + 1) if gcd(m, u) == 1)


def squarefree_divisors(n):
    """All squarefree divisors of n, found by scanning every divisor."""
    out = []
    for d in range(1, n + 1):
        if n % d:
            continue
        m = d
        squarefree = True
        for q in range(2, d + 1):
            if q * q > m:
                break
            if m % (q * q) == 0:
                squarefree = False
                break
            while m % q == 0:
                m //= q
        if squarefree:
            out.append(d)
    return out


def totient_by_count(n):
    return sum(1 for m in range(1, n + 1) if gcd(m, n) == 1)


def zeta_reciprocal_bounds(s, terms, digits=40):
    """Certified decimal bounds on 1/zeta(s) for integer s >= 2.

    The partial sum of n^-s plus integral bounds on the remainder gives
    zeta(s) in [S + (terms+1)^(1-s)/(s-1), S + terms^(1-s)/(s-1)]; all
    arithmetic is done twice with directed rounding so the final interval
    is a true enclosure.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 10
        ctx.rounding = ROUND_FLOOR
        lo_sum = Decimal(0)
        for m in range(1, terms + 1):
            lo_sum += 1 / Decimal(m) ** s
        lo_tail = Decimal(terms + 1) ** (1 - s) / (s - 1)
        zeta_lo = lo_sum + lo_tail
    with localcontext() as ctx:
        ctx.prec = digits + 10
        ctx.rounding = ROUND_CEILING
        hi_sum = Decimal(0)
        for m in range(1, terms + 1):
            hi_sum += 1 / Decimal(m) ** s
        hi_tail = Decimal(terms) ** (1 - s) / (s - 1)
        zeta_hi = hi_sum + hi_tail
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_FLOOR
        recip_lo = 1 / zeta_hi
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_CEILING
        recip_hi = 1 / zeta_lo
    return recip_lo, recip_hi


def pairwise_local_factor(s, p):
    """Classical local density of s pairwise-coprime values at prime p:
    (1 - 1/p)^(s-1) * (1 + (s-1)/p)."""
    return Fraction(p - 1, p) ** (s - 1) * (1 + Fraction(s - 1, p))


def binomial_tail_local_factor(s, k, p):
    """P[Binomial(s, 1/p) <= k-1] written as the plain CDF sum."""
    q = Fraction(1, p)
    return sum(comb(s, m) * q**m * (1 - q) ** (s - m) for m in range(min(k, s + 1)))


def verify_recursion_unshared(s, constraint, n):
    """(lhs, rhs_reduced, rhs_raw) of verify_recursion with no count shared.

    Not independent of the package: it runs the same shifts and counting
    engine, but counts both shifts of every j afresh, as verify_recursion
    did before it counted each distinct cap map once.
    """
    from kwise.coprime import _count_caps, _prime_caps, count_tuples
    from kwise.recursion import reduce_constraint, reduce_constraint_raw

    k = constraint.k
    rhs_reduced = rhs_raw = 0
    for j in range(1, n + 1):
        if gcd(j, constraint.moduli[0]) != 1:
            continue
        rhs_reduced += count_tuples(s, reduce_constraint(j, constraint), n)
        raw = reduce_constraint_raw(j, constraint).moduli
        rhs_raw += _count_caps(s, k, _prime_caps(raw), n)
    return count_tuples(s + 1, constraint, n), rhs_reduced, rhs_raw


def constraint_factor_mobius_literal(s, i, u):
    """sum over d | rad u of mu(d) C(s,i)^omega(d) / mobius_sum_weight(s, i, d).

    One Fraction per squarefree divisor, found by scanning every divisor;
    only the weight comes from the package.
    """
    from kwise.density import mobius_sum_weight

    total = Fraction(0)
    for d in squarefree_divisors(u):
        omega = sum(1 for p in range(2, d + 1) if d % p == 0 and all(p % q for q in range(2, p)))
        total += Fraction((-1) ** omega * comb(s, i) ** omega) / mobius_sum_weight(s, i, d)
    return total
