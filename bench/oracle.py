"""Output checks for every benchmark job.

`check(job, returncode, stdout)` returns one (layer, message) pair per
defect found, charged to the package module that produced the wrong value;
an empty list means the job passed.  The references are independent of the
code under test: exact goldens captured once from the CLI (goldens.json),
closed forms computed here with the standard library, and the documented
tail certificate of the truncated Euler product.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from math import comb
from pathlib import Path

GOLDENS = json.loads(Path(__file__).with_name("goldens.json").read_text())

# Monte Carlo estimates must land this many standard errors from the density
MC_SIGMAS = 5
_PREC = 60


def _pi() -> Decimal:
    """pi to _PREC digits by Machin's formula, 16 atan(1/5) - 4 atan(1/239)."""

    def atan_inv(x: int) -> Decimal:
        total = term = Decimal(1) / x
        x2, k, sign = x * x, 1, 1
        while term:
            term /= x2
            k += 2
            sign = -sign
            total += sign * term / k
        return total

    with localcontext() as ctx:
        ctx.prec = _PREC + 10
        return +(16 * atan_inv(5) - 4 * atan_inv(239))


def _closed_forms() -> dict[str, Decimal]:
    with localcontext() as ctx:
        ctx.prec = _PREC
        pi = _pi()
        return {"s=2 k=2": 6 / pi**2, "s=4 k=4": 90 / pi**4}


CLOSED_FORMS = _closed_forms()


def seed_tail(s: int, k: int, prime_limit: int) -> Decimal:
    """Union-bound tail certificate C(s,k) / ((k-1) P^(k-1)) of the seed release."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        return Decimal(comb(s, k)) / ((k - 1) * Decimal(prime_limit) ** (k - 1))


def density_reference(key: str) -> tuple[Decimal, Decimal]:
    """Certified (lower, upper) for a density: the closed form if known, else the golden."""
    if key in CLOSED_FORMS:
        return CLOSED_FORMS[key], CLOSED_FORMS[key]
    golden = GOLDENS["density"][key]
    return Decimal(golden["lower"]), Decimal(golden["upper"])


def _check_density(job, result) -> list[tuple[str, str]]:
    p = job.params
    lower, point, upper = (Decimal(result[name]) for name in ("lower", "point", "upper"))
    bad = []
    if result["prime_limit"] != p["prime_limit"]:
        bad.append(("cli", f"prime_limit {result['prime_limit']} != {p['prime_limit']}"))
    if not lower <= point <= upper:
        bad.append(("density", f"point {point} outside [{lower}, {upper}]"))
    ref_lo, ref_hi = density_reference(job.key)
    if upper < ref_lo or lower > ref_hi:
        bad.append(("density", f"[{lower}, {upper}] misses the reference [{ref_lo}, {ref_hi}]"))
    # a speed-up must not buy a looser enclosure than the certificate allows
    with localcontext() as ctx:
        ctx.prec = _PREC
        allowed = upper * seed_tail(p["s"], p["k"], p["prime_limit"]) * Decimal("1.001")
        if upper - lower > allowed + Decimal("1e-45"):
            bad.append(("density", f"width {upper - lower} exceeds the tail certificate {allowed}"))
    return bad


def _check_count(job, result) -> list[tuple[str, str]]:
    want = GOLDENS["count"][job.key]
    if result["count"] != want:
        return [("coprime", f"count {result['count']} != golden {want}")]
    return []


def _check_converge(job, result) -> list[tuple[str, str]]:
    want = GOLDENS["converge"][job.key]
    rows = result["rows"]
    if sorted(str(row["n"]) for row in rows) != sorted(want):
        return [("stats", f"grid {[row['n'] for row in rows]} != {sorted(want, key=int)}")]
    bad = []
    density = float(CLOSED_FORMS[job.key])
    for row in rows:
        n = row["n"]
        if row["count"] != want[str(n)]:
            bad.append(("coprime", f"count at n={n} is {row['count']}, golden {want[str(n)]}"))
        predicted = density * n ** job.params["s"]
        # the CLI predicts from the truncated product at its default prime
        # limit, which overshoots the limit by less than 1e-4 relative
        if abs(row["predicted"] - predicted) > 1e-4 * predicted:
            bad.append(("stats", f"prediction at n={n} is {row['predicted']}, expected {predicted}"))
    return bad


def _check_recursion(job, result) -> list[tuple[str, str]]:
    want = GOLDENS["recursion"][job.key]
    reports = result["reports"]
    bad = []
    if result["cells"] != len(want) or len(reports) != len(want) or result["failures"]:
        bad.append(("recursion", f"{result['cells']} cells / {result['failures']} failures, "
                                 f"expected {len(want)} / 0"))
    for n, (row, lhs) in enumerate(zip(reports, want), start=1):
        if row["n"] != n or row["lhs"] != lhs:
            bad.append(("coprime", f"cell n={row['n']}: lhs {row['lhs']}, golden n={n} {lhs}"))
        elif not (row["rhs_reduced"] == row["rhs_raw"] == lhs and row["passed"] is True):
            bad.append(("recursion", f"cell n={n}: rhs {row['rhs_reduced']}/{row['rhs_raw']} != {lhs}"))
    return bad


def _check_lemma4(job, result) -> list[tuple[str, str]]:
    want = GOLDENS["lemma4"][job.key]
    if result["cells"] != want or result["failures"] or result["failed"]:
        return [("density", f"{result['cells']} cells / {result['failures']} failures, "
                            f"expected {want} / 0")]
    return []


def check_mc(key: str, estimate: float, std_error: float) -> list[tuple[str, str]]:
    """The estimate must lie within MC_SIGMAS standard errors of the certified density."""
    lo, hi = (float(x) for x in density_reference(key))
    if not std_error > 0:
        return [("stats", f"standard error {std_error} is not positive")]
    gap = max(lo - estimate, estimate - hi, 0.0)
    if gap > MC_SIGMAS * std_error:
        return [("stats", f"estimate {estimate} is {gap / std_error:.1f} standard errors "
                          f"from [{lo}, {hi}]")]
    return []


def _check_mc(job, result) -> list[tuple[str, str]]:
    p = job.params
    echoed = {name: result[name] for name in ("samples", "seed", "range_n")}
    if echoed != p["echo"]:
        return [("cli", f"inputs echoed as {echoed}, expected {p['echo']}")]
    return check_mc(job.key, result["estimate"], result["std_error"])


_CHECKS = {
    "density": _check_density,
    "count": _check_count,
    "converge": _check_converge,
    "verify-recursion": _check_recursion,
    "verify-lemma4": _check_lemma4,
    "mc": _check_mc,
}


def check(job, returncode: int, stdout: bytes) -> list[tuple[str, str]]:
    """All defects in one job's exit code and canonical JSON document."""
    if returncode != 0:
        return [("cli", f"exit code {returncode}")]
    try:
        doc = json.loads(stdout)
        if doc["command"] != job.command:
            return [("cli", f"command {doc['command']!r} != {job.command!r}")]
        return _CHECKS[job.command](job, doc["result"])
    except (ValueError, KeyError, TypeError) as exc:
        return [("cli", f"malformed document: {exc!r}")]
