"""Per-layer probes: time one call into each module on a fixed input.

    python3 bench/probes.py SEED

Runs in a fresh interpreter so the sieve starts cold.  The inputs are the
largest cells of the workloads (README.md lists which metric each probe
feeds); only the Monte Carlo seed varies.  Every probe checks its result
against the same references as oracle.py.  Prints one JSON line:
{"metrics": {name: [value, unit]}, "checks": {probe: [[layer, message], ...]}}.
"""

from __future__ import annotations

import json
import sys
import time
from math import log10

import numpy as np

import oracle
from kwise import arith, coprime, density, recursion, stats
from kwise.coprime import ConstraintVector

PRIME_LIMIT = 10**6
PI_PRIME_LIMIT = 78498  # pi(10^6)
COUNT_CELL = (4, 3, 100)
RECURSION_CELL = (2, (5, 6), 100)
LEMMA4_CELL = (5, 4, 2000)
MC_CELL = (10, 3, 10**6, 10**5)
POOL_THREADS = 2


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def probe_arith_density(metrics, checks):
    primes, sieve_s = timed(arith.sieve_primes, PRIME_LIMIT)
    checks["arith.sieve"] = [] if len(primes) == PI_PRIME_LIMIT else [
        ("arith", f"pi(10^6) = {len(primes)}, expected {PI_PRIME_LIMIT}")]
    enc, product_s = timed(density.kwise_coprime_probability, 2, 2, PRIME_LIMIT)
    truth = oracle.CLOSED_FORMS["s=2 k=2"]
    checks["density.product"] = [] if enc.lower <= truth <= enc.upper else [
        ("density", f"[{enc.lower}, {enc.upper}] misses 6/pi^2")]
    metrics["arith.sieve_s"] = (sieve_s, "s")
    metrics["arith.primes"] = (len(primes), "primes")
    metrics["density.product_s"] = (product_s, "s")
    metrics["density.primes_per_s"] = (len(primes) / product_s, "primes/s")
    metrics["density.certified_digits"] = (-log10(float(enc.upper - enc.lower)), "digits")


def probe_lemma4(metrics, checks):
    s, k, u_max = LEMMA4_CELL
    start = time.perf_counter()
    rows = [row for u in range(1, u_max + 1) for row in density.mobius_ratio_identity(s, k, u)]
    lemma4_s = time.perf_counter() - start
    want = oracle.GOLDENS["lemma4"][f"s={s} k={k} u_max={u_max}"]
    unequal = sum(1 for *_, equal in rows if not equal)
    checks["density.lemma4"] = [] if len(rows) == want and not unequal else [
        ("density", f"{len(rows)} cells with {unequal} unequal, expected {want} equal")]
    metrics["density.lemma4_s"] = (lemma4_s, "s")
    metrics["density.lemma4_cells"] = (len(rows), "cells")


def probe_coprime(metrics, checks):
    s, k, n = COUNT_CELL
    count, count_s = timed(coprime.count_tuples, s, ConstraintVector.trivial(k), n, threads=1)
    want = oracle.GOLDENS["count"][f"s={s} k={k} n={n}"]
    checks["coprime.count"] = [] if count == want else [
        ("coprime", f"serial count {count}, golden {want}")]
    metrics["coprime.count_s"] = (count_s, "s")
    metrics["coprime.cells"] = (n**s, "cells")
    metrics["coprime.cells_per_s"] = (n**s / count_s, "cells/s")


def _verify_recursion_timed(threads: int) -> tuple[list, dict[str, float], int]:
    """verify_recursion over n = 1..n_max with its calls into coprime and the shifts timed by role."""
    s, moduli, n_max = RECURSION_CELL
    totals = {"total": 0.0, "lhs": 0.0, "rhs": 0.0, "shift": 0.0}
    calls = 0

    def timing(fn, role):
        def timed_call(first, *args, **kwargs):
            nonlocal calls
            start = time.perf_counter()
            try:
                return fn(first, *args, **kwargs)
            finally:
                if role == "count":
                    role_now = "lhs" if first == s + 1 else "rhs"
                    calls += 1
                else:
                    role_now = role
                totals[role_now] += time.perf_counter() - start
        return timed_call

    originals = {name: getattr(recursion, name) for name in
                 ("count_tuples", "_count_caps", "reduce_constraint", "reduce_constraint_raw")}
    for name, fn in originals.items():
        setattr(recursion, name, timing(fn, "shift" if name.startswith("reduce") else "count"))
    try:
        start = time.perf_counter()
        reports = [recursion.verify_recursion(s, ConstraintVector(moduli), n, threads=threads)
                   for n in range(1, n_max + 1)]
        totals["total"] = time.perf_counter() - start
    finally:
        for name, fn in originals.items():
            setattr(recursion, name, fn)
    return reports, totals, calls


def probe_recursion(metrics, checks):
    """The verify-recursion cell at threads 1 and at POOL_THREADS."""
    s, moduli, _ = RECURSION_CELL
    want = oracle.GOLDENS["recursion"][f"s={s} u={','.join(map(str, moduli))}"]
    serial, serial_t, _ = _verify_recursion_timed(1)
    pooled, pooled_t, calls = _verify_recursion_timed(POOL_THREADS)
    for name, reports in (("recursion.serial", serial), ("recursion.pooled", pooled)):
        ok = [r.lhs for r in reports] == want and all(r.passed for r in reports)
        checks[name] = [] if ok else [
            ("recursion", "recursion cells disagree with the goldens or fail")]
    metrics["coprime.pool_s"] = (pooled_t["total"] - serial_t["total"], "s")
    metrics["recursion.lhs_s"] = (pooled_t["lhs"], "s")
    metrics["recursion.rhs_s"] = (pooled_t["rhs"], "s")
    metrics["recursion.shift_s"] = (pooled_t["shift"], "s")
    metrics["recursion.count_calls"] = (calls, "calls")


def probe_stats(metrics, checks, seed):
    s, k, range_n, samples = MC_CELL
    cv = ConstraintVector.trivial(k)
    _, setup_s = timed(stats.monte_carlo, s, cv, range_n, 1, seed)
    # replay of monte_carlo's draws for one stream
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(seed).jumped(0))
    remaining = samples
    while remaining:
        take = min(stats._CHUNK_ROWS, remaining)
        rng.integers(1, range_n, size=(take, s), dtype=np.int64, endpoint=True)
        remaining -= take
    draw_s = time.perf_counter() - start
    est, total_s = timed(stats.monte_carlo, s, cv, range_n, samples, seed)
    checks["stats.mc"] = oracle.check_mc(f"s={s} k={k}", est.estimate, est.std_error)
    eval_s = total_s - setup_s - draw_s
    metrics["stats.setup_s"] = (setup_s, "s")
    metrics["stats.draw_s"] = (draw_s, "s")
    metrics["stats.eval_s"] = (eval_s, "s")
    metrics["stats.samples"] = (samples, "samples")
    metrics["stats.samples_per_s"] = (samples / (total_s - setup_s), "samples/s")


def main() -> int:
    seed = int(sys.argv[1]) % 2**64
    metrics: dict[str, tuple[float, str]] = {}
    checks: dict[str, list] = {}
    probe_arith_density(metrics, checks)
    probe_lemma4(metrics, checks)
    probe_coprime(metrics, checks)
    probe_recursion(metrics, checks)
    probe_stats(metrics, checks, seed)
    print(json.dumps({"metrics": metrics, "checks": checks}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
