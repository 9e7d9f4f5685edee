import errno
import json
import os
import re
import shutil
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from kwise import arith, cli, coprime, density, recursion, stats
from kwise.arith import MAX_SIEVE
from kwise.recursion import RecursionReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_json_document(capsys):
    code, out, err = run_cli(
        capsys, "density", "--s", "2", "--k", "2", "--prime-limit", "100000"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "density"
    assert doc["inputs"]["s"] == 2
    assert doc["inputs"]["prime_limit"] == 100000
    lower = Decimal(doc["result"]["lower"])
    upper = Decimal(doc["result"]["upper"])
    point = Decimal(doc["result"]["point"])
    assert lower <= Decimal("0.6079271019") <= upper
    assert lower <= point <= upper
    with localcontext() as ctx:
        ctx.prec = 200
        assert Decimal(doc["result"]["width"]) == upper - lower


def test_density_constraint_factors_as_rationals(capsys):
    code, out, _ = run_cli(capsys, "density", "--s", "2", "--u", "5,6")
    assert code == 0
    doc = json.loads(out)
    factors = doc["result"]["constraint_factors"]
    assert [f["i"] for f in factors] == [1, 2]
    assert [f["u"] for f in factors] == [5, 6]
    for f in factors:
        value = f["factor"]
        assert isinstance(value["numerator"], str)
        assert isinstance(value["denominator"], str)
        assert int(value["denominator"]) > 0
    # i = 1 at u = 5, k = 3: only tuples avoiding 5 entirely
    assert factors[0]["factor"] == {"numerator": "16", "denominator": "25"}


def test_count_matches_library(capsys):
    code, out, _ = run_cli(capsys, "count", "--s", "2", "--k", "2", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["count"] == 11
    assert "strategy" not in doc["inputs"]
    # one counting engine: --strategy is an unknown argument
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--s", "2", "--k", "2", "--n", "4", "--strategy", "naive"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strategy naive" in capsys.readouterr().err


def test_cli_is_byte_deterministic(capsys):
    args = ("density", "--s", "3", "--k", "2", "--prime-limit", "5000")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = ("mc", "--s", "2", "--k", "2", "--range", "1000", "--samples", "5000", "--seed", "9")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_csv_and_json_agree(capsys):
    base = ("density", "--s", "2", "--k", "2", "--prime-limit", "2000")
    _, out_json, _ = run_cli(capsys, *base)
    _, out_csv, _ = run_cli(capsys, *base, "--format", "csv")
    doc = json.loads(out_json)["result"]
    header, row = [line.split(",") for line in out_csv.strip().splitlines()]
    got = dict(zip(header, row))
    assert got["lower"] == doc["lower"]
    assert got["upper"] == doc["upper"]
    assert got["point"] == doc["point"]
    assert int(got["prime_limit"]) == doc["prime_limit"]

    base = ("converge", "--s", "2", "--k", "2", "--grid", "5,10", "--prime-limit", "1000")
    _, out_json, _ = run_cli(capsys, *base)
    _, out_csv, _ = run_cli(capsys, *base, "--format", "csv")
    rows = json.loads(out_json)["result"]["rows"]
    lines = out_csv.strip().splitlines()
    assert lines[0] == "n,count,predicted,abs_error,normalized_error"
    for row, line in zip(rows, lines[1:]):
        n, count, predicted, _, _ = line.split(",")
        assert int(n) == row["n"]
        assert int(count) == row["count"]
        assert float(predicted) == row["predicted"]


def test_converge_writes_an_infinite_normalized_error_as_inf(capsys):
    # at n = 1 with d > 0 the normalization divides by log(1)^d = 0; JSON has
    # no infinity, so the document carries the string "inf", as csv and text do
    base = ("converge", "--s", "2", "--k", "2", "--grid", "1,10")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    first, second = json.loads(out)["result"]["rows"]
    assert '"normalized_error": "inf"' in out
    assert first["normalized_error"] == "inf"
    assert isinstance(second["normalized_error"], float)
    _, out, _ = run_cli(capsys, *base, "--format", "csv")
    assert out.splitlines()[1].endswith(",inf")
    _, out, _ = run_cli(capsys, *base, "--format", "text")
    assert re.search(r"^  1\t1\t.*\tinf$", out, re.MULTILINE)


def test_output_file_matches_stdout(tmp_path, capsys):
    args = ("count", "--s", "2", "--k", "3", "--n", "6")
    _, out, _ = run_cli(capsys, *args)
    target = tmp_path / "doc.json"
    code, silent, _ = run_cli(capsys, *args, "--output", str(target))
    assert code == 0
    assert silent == ""
    assert target.read_bytes() == out.encode("utf-8")


def test_unwritable_output_is_a_validation_error(tmp_path, capsys):
    # a directory, and a file in a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "doc.json"):
        code, out, err = run_cli(capsys, "primes", "--limit", "10", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error[validation]:") and str(target) in err
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_output_open_error_without_errno_names_its_message(tmp_path, capsys, monkeypatch):
    def refuse(path, mode):
        raise OSError("refused by policy")

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    target = tmp_path / "doc.json"
    code, out, err = run_cli(capsys, "primes", "--limit", "10", "--output", str(target))
    assert code == 2 and out == ""
    assert err == f"error[validation]: cannot write --output {target}: refused by policy\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_is_an_io_error(capsys):
    # the file opens, so it is not bad input; writing the document fails
    message = f"error[io]: cannot write the document: {os.strerror(errno.ENOSPC)}\n"
    code, out, err = run_cli(capsys, "primes", "--limit", "10", "--output", "/dev/full")
    assert code == 4 and out == "" and err == message
    # on stdout, buffered (the write fails only at the flush) and unbuffered
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "kwise", "primes", "--limit", "10"],
                stdout=full, stderr=subprocess.PIPE, text=True, env={**env, **extra},
            )
        assert proc.returncode == 4 and proc.stderr == message


def test_failed_stdout_write_or_flush_is_an_io_error(capsys, monkeypatch):
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    class Full:
        def __init__(self, fail):
            self.fail = fail

        def write(self, text):
            if self.fail == "write":
                raise full
            return len(text)

        def flush(self):
            if self.fail == "flush":
                raise full

    for fail in ("write", "flush"):
        monkeypatch.setattr(sys, "stdout", Full(fail))
        code = cli.main(["primes", "--limit", "10"])
        monkeypatch.undo()
        assert code == 4
        assert capsys.readouterr().err == f"error[io]: cannot write the document: {full.strerror}\n"


def test_validation_exit_code_and_message(capsys):
    code, out, err = run_cli(capsys, "count", "--s", "2", "--u", "4,6", "--n", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error[validation]:")
    assert "gcd(u_1, u_2) = 2" in err

    code, _, err = run_cli(capsys, "count", "--s", "2", "--u", "5,6", "--k", "2", "--n", "5")
    assert code == 2 and "--k 2 conflicts" in err

    code, _, err = run_cli(capsys, "count", "--s", "2", "--n", "5")
    assert code == 2 and "either --k or --u" in err

    code, _, err = run_cli(capsys, "count", "--s", "2", "--u", "5;6", "--n", "5")
    assert code == 2 and "comma-separated" in err

    code, _, err = run_cli(capsys, "count", "--s", "2", "--k", "2", "--n", "5", "--threads", "0")
    assert code == 2 and "threads must be at least 1" in err

    code, _, err = run_cli(capsys, "count", "--s", "2", "--k", "2", "--n", "5", "--budget", "-1")
    assert code == 2 and "budget must be nonnegative" in err

    for k in ("1", "0"):
        code, out, err = run_cli(capsys, "verify-lemma4", "--s", "2", "--k", k)
        assert (code, out) == (2, "")
        assert err == f"error[validation]: k must be at least 2, got {k}\n"
    # an empty sweep, and one above the cell limit, are checked for the order first
    for argv, message in (
        (("--s", "2", "--k", "1", "--u-max", "0"), "k must be at least 2, got 1"),
        (("--s", "0", "--k", "2", "--u-max", "2000000"), "s must be at least 1, got 0"),
        (("--s", "2", "--k", "2", "--u-max", "-1"), "--u-max must be nonnegative, got -1"),
    ):
        code, out, err = run_cli(capsys, "verify-lemma4", *argv)
        assert (code, out, err) == (2, "", f"error[validation]: {message}\n")

    # a verify-recursion sweep is refused before its first count
    for argv, message in (
        (("--n-max", "-3"), "n must be nonnegative, got -3"),
        (("--n-max", "5", "--s", "0"), "s must be at least 1, got 0"),
        (("--n-max", "5", "--threads", "0"), "threads must be at least 1, got 0"),
        (("--n-max", "5", "--budget", "-1"), "budget must be nonnegative, got -1"),
    ):
        code, out, err = run_cli(capsys, "verify-recursion", "--s", "2", "--u", "5,6", *argv)
        assert (code, out, err) == (2, "", f"error[validation]: {message}\n")


def test_budget_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "count", "--s", "4", "--k", "2", "--n", "1000", "--budget", "1000"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error[budget]:")


@pytest.mark.parametrize(
    "argv",
    [
        ("primes", "--limit", str(MAX_SIEVE + 1)),
        ("density", "--s", "2", "--k", "2", "--prime-limit", str(MAX_SIEVE + 1)),
        # a modulus whose square root is just above the cap, refused as trial division
        ("density", "--s", "2", "--u", f"{(MAX_SIEVE + 1) ** 2},1", "--prime-limit", "100"),
    ],
    ids=["primes", "prime-limit", "modulus"],
)
def test_oversized_sieve_refused_before_allocation(monkeypatch, capsys, argv):
    sieve = arith._sieve

    def capped_sieve(limit):
        assert limit <= MAX_SIEVE, f"sieve of {limit} allocated"
        return sieve(limit)

    monkeypatch.setattr(arith, "_sieve", capped_sieve)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error[budget]:")


@pytest.mark.parametrize("command", [("density",)], ids=["density"])
def test_precision_above_the_limit_refused_before_work(monkeypatch, capsys, command):
    def started(*args):
        raise AssertionError("the enclosure was started")

    monkeypatch.setattr(density, "tail_fraction", started)
    digits = density.MAX_PRECISION + 1
    code, out, err = run_cli(capsys, *command, "--s", "2", "--k", "2", "--precision", str(digits))
    assert (code, out) == (3, "")
    assert err == (
        f"error[budget]: precision {digits} exceeds the limit of {density.MAX_PRECISION} digits\n"
    )


def test_lemma4_sweep_above_the_limit_refused_before_work(monkeypatch, capsys):
    def started(*args):
        raise AssertionError("the sweep was started")

    monkeypatch.setattr(cli, "mobius_ratio_identity", started)
    cells = cli.MAX_LEMMA4_CELLS + 1
    code, out, err = run_cli(capsys, "verify-lemma4", "--s", "2", "--k", "2", "--u-max", str(cells))
    assert (code, out) == (3, "")
    assert err == (
        f"error[budget]: {cells} lemma 4 cells exceed the limit of {cli.MAX_LEMMA4_CELLS}\n"
    )


def test_recursion_sweep_above_the_budget_refused_before_work(monkeypatch, capsys):
    def started(*args, **kwargs):
        raise AssertionError("the sweep was started")

    for name in ("_count_caps", "reduce_constraint", "reduce_constraint_raw"):
        monkeypatch.setattr(recursion, name, started)
    argv = ("verify-recursion", "--s", "2", "--u", "5,6", "--n-max", "1000")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "error[budget]: enumeration volume n^s = 1000^3 exceeds the budget of "
        f"{coprime.DEFAULT_BUDGET} cells\n"
    )


def test_converge_grid_above_the_budget_refused_before_work(monkeypatch, capsys):
    def started(*args, **kwargs):
        raise AssertionError("the density or a count was started")

    monkeypatch.setattr(stats, "limiting_density", started)
    monkeypatch.setattr(stats, "_count_caps", started)
    # the first entry is within the budget: every entry is checked before any count
    argv = ("converge", "--s", "2", "--k", "2", "--grid", "10,100000", "--prime-limit", "100")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "error[budget]: enumeration volume n^s = 100000^2 exceeds the budget of "
        f"{coprime.DEFAULT_BUDGET} cells\n"
    )


def test_recursion_sweep_at_the_budget_runs(capsys):
    argv = ("verify-recursion", "--s", "1", "--k", "2", "--n-max", "10")
    code, out, _ = run_cli(capsys, *argv, "--budget", "100")
    assert code == 0 and json.loads(out)["result"]["cells"] == 10
    code, out, err = run_cli(capsys, *argv, "--budget", "99")
    assert (code, out) == (3, "")
    assert err.startswith("error[budget]: enumeration volume n^s = 10^2 ")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--s", "5000", "--k", "2", "--n", "10"),
        ("converge", "--s", "5000", "--k", "2", "--grid", "10"),
        ("verify-recursion", "--s", "5000", "--k", "2", "--n-max", "10"),
    ],
    ids=["count", "converge", "verify-recursion"],
)
def test_volume_of_more_than_4300_digits_is_a_budget_refusal(capsys, argv):
    # 10^5000 has more digits than int-to-str allows: the message names n^s, not its value
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error[budget]: enumeration volume n^s = 10^500")


def test_converge_has_no_precision(capsys):
    # converge's float rows read the density at its default precision: --precision is unknown
    with pytest.raises(SystemExit) as exc:
        cli.main(["converge", "--s", "2", "--k", "2", "--grid", "5", "--precision", "50"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision 50" in capsys.readouterr().err


def test_lemma4_sweep_at_the_limit_runs(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_LEMMA4_CELLS", 10)
    code, out, _ = run_cli(capsys, "verify-lemma4", "--s", "3", "--k", "3", "--u-max", "5")
    assert code == 0 and json.loads(out)["result"]["cells"] == 10
    code, _, err = run_cli(capsys, "verify-lemma4", "--s", "3", "--k", "3", "--u-max", "6")
    assert code == 3 and err.startswith("error[budget]: 12 lemma 4 cells")


def test_lemma4_keeps_only_the_failed_cells(monkeypatch, capsys):
    identity = cli.mobius_ratio_identity

    def one_bad_cell(s, k, u):
        return [
            (i, lhs, rhs + 1, False) if (u, i) == (4, 2) else (i, lhs, rhs, ok)
            for i, lhs, rhs, ok in identity(s, k, u)
        ]

    monkeypatch.setattr(cli, "mobius_ratio_identity", one_bad_cell)
    code, out, _ = run_cli(capsys, "verify-lemma4", "--s", "3", "--k", "3", "--u-max", "5")
    assert code == 1
    result = json.loads(out)["result"]
    assert set(result) == {"cells", "failures", "failed"}
    assert (result["cells"], result["failures"]) == (10, 1)
    assert [(f["u"], f["i"]) for f in result["failed"]] == [(4, 2)]


def test_mc_wide_tuple_on_a_huge_range_builds_no_sieve(monkeypatch, capsys):
    def no_sieve(limit):
        raise AssertionError(f"sieve of {limit} allocated")

    monkeypatch.setattr(arith, "_sieve", no_sieve)
    code, out, _ = run_cli(
        capsys, "mc", "--s", "10", "--k", "3", "--range", str(10**12), "--samples", "2000"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["range_n"] == 10**12 and result["samples"] == 2000


def test_mc_range_limit_is_named(capsys):
    code, out, err = run_cli(
        capsys, "mc", "--s", "2", "--k", "2", "--range", str(2**63), "--samples", "10"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error[validation]:") and "2^63 - 1" in err
    code, out, _ = run_cli(
        capsys, "mc", "--s", "2", "--k", "2", "--range", str(2**63 - 1), "--samples", "10"
    )
    assert code == 0
    assert json.loads(out)["result"]["range_n"] == 2**63 - 1


def test_mc_row_wider_than_a_chunk_is_a_budget_refusal(monkeypatch, capsys):
    monkeypatch.setattr(stats, "_CHUNK_CELLS", 8)
    code, out, err = run_cli(
        capsys, "mc", "--s", "9", "--k", "2", "--range", "100", "--samples", "10"
    )
    assert (code, out) == (3, "")
    assert err.startswith("error[budget]:") and "8 entries" in err


def test_caches_are_bounded():
    assert arith.factorize.cache_info().maxsize is not None
    # the process holds at most one prime table
    assert arith._sieve.cache_info().maxsize == 1
    assert coprime._picks.cache_info().maxsize is not None
    # the engine memo lives for one count or one verify-recursion sweep, and is capped there
    assert 0 < coprime.MAX_MEMO_STATES <= 1 << 16


def test_refused_modulus_is_refused_again(capsys):
    # factorize caches its results, never its refusals
    argv = ("density", "--s", "2", "--u", f"{(MAX_SIEVE + 1) ** 2},1", "--prime-limit", "100")
    for _ in range(2):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error[budget]:")


def test_threads_input_does_not_depend_on_the_machine(monkeypatch, capsys):
    outputs = []
    for cores in (1, 7):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        code, out, _ = run_cli(capsys, "count", "--s", "2", "--k", "2", "--n", "100")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["inputs"]["threads"] is None


# each command's recorded inputs, in text-format order, and the flags it requires
RECORDED_INPUTS = [
    ("density", ("s", "k", "u", "prime_limit", "precision"), ("--s", "2", "--k", "2")),
    (
        "count",
        ("s", "k", "u", "n", "threads", "budget"),
        ("--s", "2", "--k", "2", "--n", "5"),
    ),
    (
        "mc",
        ("s", "k", "u", "range_n", "samples", "seed"),
        ("--s", "2", "--k", "2", "--range", "10", "--samples", "10"),
    ),
    (
        "converge",
        ("s", "k", "u", "prime_limit", "threads", "budget", "grid"),
        ("--s", "2", "--k", "2", "--grid", "5"),
    ),
    ("verify-lemma4", ("s", "k", "u_max"), ("--s", "2", "--k", "2")),
    (
        "verify-recursion",
        ("s", "k", "u", "threads", "budget", "n_max"),
        ("--s", "1", "--k", "2", "--n-max", "3"),
    ),
    ("primes", ("limit",), ("--limit", "10")),
]
DEFAULTS = {
    "prime_limit": 100000,
    "precision": 50,
    "budget": 200000000,
    "seed": 0,
    "u_max": 100,
    "threads": None,
}


@pytest.mark.parametrize(
    "command, names, required", RECORDED_INPUTS, ids=[case[0] for case in RECORDED_INPUTS]
)
def test_recorded_inputs_and_defaults(capsys, command, names, required):
    code, out, _ = run_cli(capsys, command, *required, "--format", "text")
    assert code == 0
    lines = out.split("\nresult:\n")[0].splitlines()[1:]
    assert [line.split(" = ")[0].strip() for line in lines] == list(names)
    code, out, _ = run_cli(capsys, command, *required)
    inputs = json.loads(out)["inputs"]
    assert sorted(inputs) == sorted(names)
    defaults = {name: DEFAULTS[name] for name in names if name in DEFAULTS}
    assert {name: inputs[name] for name in defaults} == defaults


def test_verify_lemma4_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-lemma4", "--s", "4", "--k", "4", "--u-max", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["cells"] == 90
    assert doc["result"]["failures"] == 0
    assert doc["result"]["failed"] == []


def test_verify_recursion_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify-recursion", "--s", "1", "--u", "5,6", "--n-max", "8"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["failures"] == 0
    assert [r["n"] for r in doc["result"]["reports"]] == list(range(1, 9))
    assert all(r["passed"] for r in doc["result"]["reports"])


def test_verification_failure_exit_code(monkeypatch, capsys):
    # force a failing report through the reporting path
    def fake_sweep(s, constraint, ns, threads=1, budget=0):
        for n in ns:
            yield RecursionReport(n=n, lhs=10, rhs_reduced=10, rhs_raw=9)

    monkeypatch.setattr(cli, "_verify", fake_sweep)
    code, out, _ = run_cli(capsys, "verify-recursion", "--s", "1", "--k", "2", "--n-max", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["failures"] == 2
    assert not doc["result"]["reports"][0]["passed"]


def test_mc_runs_blas_single_threaded_unless_the_user_says_otherwise(monkeypatch, capsys):
    # setenv first, so that monkeypatch restores the variable's absence afterwards
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    args = ("mc", "--s", "2", "--k", "2", "--range", "10", "--samples", "10")
    assert run_cli(capsys, *args)[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert run_cli(capsys, *args)[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


def test_mc_document(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--s", "3", "--k", "3", "--range", "500", "--samples", "2000",
        "--seed", "4",
    )
    assert code == 0
    doc = json.loads(out)
    result = doc["result"]
    assert result["samples"] == 2000
    assert "streams" not in result and "streams" not in doc["inputs"]
    assert 0 <= result["estimate"] <= 1
    assert result["hits"] == int(round(result["estimate"] * 2000))
    # one seeded stream per run: --streams is an unknown argument
    with pytest.raises(SystemExit) as exc:
        cli.main(["mc", "--s", "2", "--k", "2", "--range", "10", "--samples", "10",
                  "--streams", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --streams 2" in capsys.readouterr().err


def test_primes_formats(capsys):
    code, out, _ = run_cli(capsys, "primes", "--limit", "12")
    assert code == 0
    assert json.loads(out)["result"]["primes"] == [2, 3, 5, 7, 11]
    code, out, _ = run_cli(capsys, "primes", "--limit", "12", "--format", "csv")
    assert out.splitlines() == ["p", "2", "3", "5", "7", "11"]


def test_text_format_readable(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--s", "2", "--k", "2", "--n", "4", "--format", "text"
    )
    assert code == 0
    assert "command: count" in out
    assert "count = 11" in out


def test_module_and_script_entry_points():
    proc = subprocess.run(
        [sys.executable, "-m", "kwise", "primes", "--limit", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["primes"] == [2, 3, 5, 7]
    # the console script exists only once the package is installed; check
    # what it points at and run that target the way the script would
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^kwise\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    assert match and match.groups() == ("kwise.cli", "main")
    module, func = match.groups()
    target = f"import sys; from {module} import {func}; sys.exit({func}())"
    commands = [[sys.executable, "-c", target]]
    if shutil.which("kwise"):
        commands.append(["kwise"])
    for command in commands:
        proc = subprocess.run(
            [*command, "count", "--s", "2", "--k", "2", "--n", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["count"] == 11


def test_disagreeing_shift_operators_exit_as_verification_failure(monkeypatch, capsys):
    monkeypatch.setattr(recursion, "tight_part", lambda a, b: 7)
    code, out, err = run_cli(
        capsys, "verify-recursion", "--s", "2", "--u", "5,6", "--n-max", "10", "--threads", "1"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error[verification]:")
    assert "not integral" in err
    # a malformed --u is still invalid input
    code, out, err = run_cli(
        capsys, "verify-recursion", "--s", "2", "--u", "4,6", "--n-max", "10", "--threads", "1"
    )
    assert code == 2 and out == "" and err.startswith("error[validation]:")


def test_non_integral_middle_component_exits_as_verification_failure(monkeypatch, capsys):
    # at k = 4 the reduced shift has a middle component, u_2 * gcd(j, u_3) / tight_part(j, u_2)
    monkeypatch.setattr(recursion, "tight_part", lambda a, b: 7)
    code, out, err = run_cli(capsys, "verify-recursion", "--s", "1", "--u", "1,1,1", "--n-max", "2")
    assert (code, out) == (1, "")
    assert err == (
        "error[verification]: n = 1: component 2 of the reduced shift is not integral: 1/7\n"
    )


def test_reduced_shift_sharing_a_prime_exits_as_verification_failure(monkeypatch, capsys):
    # with nothing divided out, the shift of j = 2 into (5, 6) is (10, 12)
    monkeypatch.setattr(recursion, "tight_part", lambda a, b: 1)
    monkeypatch.setattr(recursion, "co_part", lambda a, b: 1)
    code, out, err = run_cli(capsys, "verify-recursion", "--s", "1", "--u", "5,6", "--n-max", "3")
    assert (code, out) == (1, "")
    assert err == (
        "error[verification]: n = 2: reduced shift of j = 2 into (5, 6) is not pairwise "
        "coprime: moduli must be pairwise coprime: gcd(u_1, u_2) = 2 for u_1 = 10, u_2 = 12\n"
    )


def test_import_leaves_numpy_out():
    # dataclasses would bring inspect, ast, dis and tokenize into every job's start-up
    code = (
        "import sys, kwise, kwise.cli; "
        "print(sorted(m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_process_pools_out():
    code = (
        "import sys, kwise.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
