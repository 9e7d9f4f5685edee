"""Command line interface.

Every command prints a single self-describing document to stdout (or to
--output FILE) in json, csv or text form.  JSON is the canonical format:
keys are sorted, exact rationals appear as numerator/denominator strings,
enclosure bounds as decimal strings, so identical configurations produce
byte-identical output.

Exit codes: 0 success, 1 a verification identity failed (including shift
operators that disagree), 2 invalid input (an --output FILE that cannot be
opened included), 3 the request exceeds a budget (an exact count above
--budget, a sieve or a trial division above arith.MAX_SIEVE, a density
--precision above density.MAX_PRECISION, or a verify-lemma4 sweep above
MAX_LEMMA4_CELLS cells), 4 the document could not be written to stdout or
to --output FILE (a full disk or a closed pipe).  Both verify sweeps check
their inputs and their limit before the first cell: verify-recursion
refuses an s, --threads, --budget or --n-max out of range (2) and an
--n-max whose largest direct count, n_max^(s+1) cells, is above --budget
(3); verify-lemma4 checks s and k, then --u-max, then its cell limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from io import StringIO
from math import isfinite
from typing import Callable, NamedTuple

from .arith import sieve_primes
from .coprime import (
    DEFAULT_BUDGET,
    BudgetError,
    ConstraintError,
    ConstraintVector,
    _check_work,
    count_tuples,
)
from .density import (
    DEFAULT_PRECISION,
    DEFAULT_PRIME_LIMIT,
    _validate_order,
    constraint_factor,
    limiting_density,
    mobius_ratio_identity,
)
from .recursion import _verify
from .stats import convergence_table, monte_carlo

__all__ = ["main"]


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _resolve_constraint(inp: dict) -> ConstraintVector:
    """The constraint that --k and --u describe; records k and the parsed moduli in inp."""
    if inp["u"] is None:
        if inp["k"] is None:
            raise ValueError("either --k or --u is required")
        constraint = ConstraintVector.trivial(inp["k"])
    else:
        constraint = ConstraintVector(_parse_int_list(inp["u"], "--u"))
        if inp["k"] is not None and inp["k"] != constraint.k:
            raise ValueError(
                f"--k {inp['k']} conflicts with --u of length {len(constraint.moduli)}, "
                f"which implies k = {constraint.k}"
            )
    inp["k"], inp["u"] = constraint.k, constraint.moduli
    return constraint


def _work(inp: dict) -> dict:
    # threads is recorded as given (null when omitted); counting is serial either way
    return {"threads": 1 if inp["threads"] is None else inp["threads"], "budget": inp["budget"]}


class _VerificationFailure(Exception):
    """A verifier could not produce its report because two routes disagree."""


# the (u, i) cells one verify-lemma4 sweep may check: tens of seconds at s = k = 2
MAX_LEMMA4_CELLS = 10**6

_ENCLOSURE = ("lower", "upper", "point", "width", "tail_bound", "prime_limit")
_REPORT = ("n", "lhs", "rhs_reduced", "rhs_raw", "passed")


def _run_density(inp: dict) -> tuple[dict, int]:
    s, constraint = inp["s"], _resolve_constraint(inp)
    enc = limiting_density(s, constraint, inp["prime_limit"], inp["precision"])
    result = {name: getattr(enc, name) for name in _ENCLOSURE}
    if any(u != 1 for u in constraint.moduli):
        result["constraint_factors"] = [
            {"i": i, "u": u, "factor": constraint_factor(s, constraint.k, i, u)}
            for i, u in enumerate(constraint.moduli, start=1)
        ]
    return result, 0


def _run_count(inp: dict) -> tuple[dict, int]:
    constraint = _resolve_constraint(inp)
    count = count_tuples(inp["s"], constraint, inp["n"], **_work(inp))
    return {"n": inp["n"], "count": count}, 0


def _run_mc(inp: dict) -> tuple[dict, int]:
    constraint = _resolve_constraint(inp)
    # kwise makes no BLAS call, but OpenBLAS starts a pool of spinning threads
    # when numpy loads, which costs CPU time; a value the user set still wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    est = monte_carlo(inp["s"], constraint, inp["range_n"], inp["samples"], inp["seed"])
    return est._asdict(), 0


def _run_converge(inp: dict) -> tuple[dict, int]:
    constraint = _resolve_constraint(inp)
    inp["grid"] = _parse_int_list(inp["grid"], "--grid")
    rows = [r._asdict() for r in convergence_table(
        inp["s"], constraint, inp["grid"],
        prime_limit=inp["prime_limit"], **_work(inp),
    )]
    for row in rows:
        # JSON has no infinity: the degenerate normalization at n = 1 is written "inf"
        if not isfinite(row["normalized_error"]):
            row["normalized_error"] = str(row["normalized_error"])
    return {"rows": rows}, 0


def _run_verify_lemma4(inp: dict) -> tuple[dict, int]:
    s, k = _validate_order(inp["s"], inp["k"])
    u_max = inp["u_max"]
    if u_max < 0:
        raise ValueError(f"--u-max must be nonnegative, got {u_max}")
    if u_max * (k - 1) > MAX_LEMMA4_CELLS:
        raise BudgetError(f"{u_max * (k - 1)} lemma 4 cells exceed the limit of {MAX_LEMMA4_CELLS}")
    cells, failed = 0, []
    for u in range(1, u_max + 1):
        rows = mobius_ratio_identity(s, k, u)
        cells += len(rows)
        failed += ({"i": i, "u": u, "lhs": lhs, "rhs": rhs} for i, lhs, rhs, ok in rows if not ok)
    return {"cells": cells, "failures": len(failed), "failed": failed}, 1 if failed else 0


def _run_verify_recursion(inp: dict) -> tuple[dict, int]:
    s, constraint, work, reports = inp["s"], _resolve_constraint(inp), _work(inp), []
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    # the last direct count, over [1, n_max]^(s+1), is the sweep's largest
    _check_work(s + 1, inp["n_max"], **work)
    try:
        for rep in _verify(s, constraint, range(1, inp["n_max"] + 1), **work):
            reports.append({name: getattr(rep, name) for name in _REPORT})
    except (ArithmeticError, ConstraintError) as exc:
        # the shift operators disagree: the recursion itself failed
        raise _VerificationFailure(f"n = {len(reports) + 1}: {exc}") from exc
    failures = sum(not r["passed"] for r in reports)
    return {"cells": len(reports), "failures": failures, "reports": reports}, 1 if failures else 0


def _run_primes(inp: dict) -> tuple[dict, int]:
    primes = sieve_primes(inp["limit"])
    return {"count": len(primes), "primes": primes}, 0


class _Command(NamedTuple):
    """What the CLI needs to know about one command.

    options declares the command's flags as (input name, flag, add_argument
    keywords), in the order the text format prints the recorded inputs; run
    maps those inputs to (result, exit code) and records the parsed k, u and
    grid in place of the flags' text.  columns is the CSV header: a single
    row read from the result itself, or one row per item of result[rows]
    when rows is set.
    """

    help: str
    options: tuple[tuple[str, str, dict], ...]
    run: Callable[[dict], tuple[dict, int]]
    columns: tuple[str, ...]
    rows: str | None = None


_SHAPE = (
    ("s", "--s", dict(type=int, required=True, help="tuple length")),
    ("k", "--k", dict(type=int, help="coprimality order; implied by --u")),
    ("u", "--u", dict(help="comma-separated moduli u_1,...,u_{k-1}")),
)
_PRIME_LIMIT = ("prime_limit", "--prime-limit", dict(type=int, default=DEFAULT_PRIME_LIMIT))
_WORK = (
    ("threads", "--threads",
     dict(type=int, help="accepted and recorded (>= 1); counting runs serially")),
    ("budget", "--budget", dict(type=int, default=DEFAULT_BUDGET, help="max n**s cells")),
)

_COMMANDS = {
    "density": _Command("limiting density enclosure", (
        *_SHAPE,
        _PRIME_LIMIT,
        ("precision", "--precision", dict(type=int, default=DEFAULT_PRECISION)),
    ), _run_density, _ENCLOSURE),
    "count": _Command("exact count over [1,n]^s", (
        *_SHAPE,
        ("n", "--n", dict(type=int, required=True)),
        *_WORK,
    ), _run_count, ("n", "count")),
    "mc": _Command("Monte Carlo density estimate", (
        *_SHAPE,
        ("range_n", "--range", dict(type=int, required=True, help="sample box [1, RANGE]")),
        ("samples", "--samples", dict(type=int, required=True)),
        ("seed", "--seed", dict(type=int, default=0)),
    ), _run_mc, ("samples", "hits", "estimate", "std_error", "seed", "range_n")),
    "converge": _Command("exact counts vs prediction over a grid", (
        *_SHAPE, _PRIME_LIMIT, *_WORK,
        ("grid", "--grid", dict(required=True, help="comma-separated n values")),
    ), _run_converge, ("n", "count", "predicted", "abs_error", "normalized_error"), rows="rows"),
    "verify-lemma4": _Command("check the Mobius-sum route to the constraint factors", (
        ("s", "--s", dict(type=int, required=True)),
        ("k", "--k", dict(type=int, required=True)),
        ("u_max", "--u-max", dict(type=int, default=100, help="sweep moduli u = 1..U")),
    ), _run_verify_lemma4, ("cells", "failures")),
    "verify-recursion": _Command("check the last-coordinate counting recursion", (
        *_SHAPE, *_WORK,
        ("n_max", "--n-max", dict(type=int, required=True, help="verify every n = 1..N")),
    ), _run_verify_recursion, _REPORT, rows="reports"),
    "primes": _Command("list primes up to a bound", (
        ("limit", "--limit", dict(type=int, required=True)),
    ), _run_primes, ("p",), rows="primes"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwise",
        description="Exact densities and counts for k-wise coprime integer tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument(
            "--output", metavar="FILE", help="write the document to FILE instead of stdout"
        )
        for dest, flag, kwargs in cmd.options:
            p.add_argument(flag, dest=dest, **kwargs)
    return parser


def _encode(value):
    """The JSON form of what json cannot write itself: a Fraction or a Decimal."""
    if isinstance(value, Fraction):
        return {"numerator": str(value.numerator), "denominator": str(value.denominator)}
    return str(value)


def _scalar(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _table(cmd: _Command, result: dict) -> list[list]:
    if cmd.rows is None:
        return [[result[c] for c in cmd.columns]]
    return [
        [row[c] for c in cmd.columns] if isinstance(row, dict) else [row]
        for row in result[cmd.rows]
    ]


def _render(doc: dict, cmd: _Command, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, default=_encode, indent=2, sort_keys=True, allow_nan=False) + "\n"
    header, rows = cmd.columns, _table(cmd, doc["result"])
    if fmt == "csv":
        buf = StringIO()
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(_scalar(v) for v in row) + "\n")
        return buf.getvalue()
    lines = [f"command: {doc['command']}"]
    for key, value in doc["inputs"].items():
        lines.append(f"  {key} = {_scalar(value) if not isinstance(value, tuple) else value}")
    lines.append("result:")
    if len(rows) == 1:
        for name, value in zip(header, rows[0]):
            lines.append(f"  {name} = {_scalar(value)}")
    else:
        lines.append("  " + "\t".join(header))
        for row in rows:
            lines.append("  " + "\t".join(_scalar(v) for v in row))
    for item in doc["result"].get("constraint_factors", ()):
        lines.append(f"  factor[i={item['i']}, u={item['u']}] = {_scalar(item['factor'])}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = _COMMANDS[args.command]
    inputs = {name: getattr(args, name) for name, _, _ in cmd.options}
    try:
        result, code = cmd.run(inputs)
        doc = {"command": args.command, "inputs": inputs, "result": result}
        payload = _render(doc, cmd, args.format)
    except BudgetError as exc:
        print(f"error[budget]: {exc}", file=sys.stderr)
        return 3
    except _VerificationFailure as exc:
        print(f"error[verification]: {exc}", file=sys.stderr)
        return 1
    except (ConstraintError, ArithmeticError, ValueError, TypeError) as exc:
        print(f"error[validation]: {exc}", file=sys.stderr)
        return 2
    # a path that cannot be opened is bad input; a failure while writing is not
    try:
        out = open(args.output, "wb") if args.output else None
    except OSError as exc:
        reason = exc.strerror or exc
        print(f"error[validation]: cannot write --output {args.output}: {reason}", file=sys.stderr)
        return 2
    try:
        if out:
            with out:
                out.write(payload.encode("utf-8"))
        else:
            sys.stdout.write(payload)
            sys.stdout.flush()
    except OSError as exc:
        print(f"error[io]: cannot write the document: {exc.strerror or exc}", file=sys.stderr)
        if not out and sys.stdout is sys.__stdout__:
            # the interpreter flushes stdout again at exit, and the bytes still
            # buffered would fail again (exit 120), so they go to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
