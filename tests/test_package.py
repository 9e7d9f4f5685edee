"""The package re-exports each module's public names, and only those."""

import kwise
from kwise import arith, coprime, density, recursion, stats

MODULES = (arith, coprime, density, recursion, stats)

# every name the package exported before it re-exported the modules' __all__,
# less the multiplicative helpers that only tests called (now in tests/oracles.py)
EXPORTED = (
    "BudgetError", "ConstraintError", "ConstraintVector", "CountReport", "DEFAULT_BUDGET",
    "DEFAULT_PRECISION", "DEFAULT_PRIME_LIMIT", "DensityEnclosure", "Factorization",
    "MonteCarloEstimate", "RecursionReport", "co_part", "constraint_factor",
    "constraint_factor_mobius", "convergence_table", "count_tuples", "error_log_exponent",
    "factorize", "is_kwise_coprime", "is_kwise_coprime_to", "is_prime",
    "kwise_coprime_probability", "limiting_density", "local_factor",
    "mobius_ratio_identity", "monte_carlo", "reduce_constraint",
    "reduce_constraint_raw", "satisfies_constraint", "sieve_primes",
    "tail_fraction", "tight_part", "verify_recursion",
)


def test_package_all_is_the_union_of_the_modules():
    union = set().union(*(m.__all__ for m in MODULES))
    assert sorted(kwise.__all__) == sorted(union)
    assert len(kwise.__all__) == len(union)


def test_each_exported_name_is_the_modules_own_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(kwise, name) is getattr(m, name), f"{m.__name__}.{name}"


def test_no_name_exported_before_is_lost():
    assert len(EXPORTED) == 33
    assert set(EXPORTED) <= set(kwise.__all__)
