import json
import os
import re
import shutil
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from kwise import arith, cli, coprime, recursion, stats
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
    assert doc["inputs"]["strategy"] == "signature"
    code, out, _ = run_cli(
        capsys, "count", "--s", "2", "--k", "2", "--n", "4", "--strategy", "naive"
    )
    assert json.loads(out)["result"]["count"] == 11


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


def test_output_file_matches_stdout(tmp_path, capsys):
    args = ("count", "--s", "2", "--k", "3", "--n", "6")
    _, out, _ = run_cli(capsys, *args)
    target = tmp_path / "doc.json"
    code, silent, _ = run_cli(capsys, *args, "--output", str(target))
    assert code == 0
    assert silent == ""
    assert target.read_bytes() == out.encode("utf-8")


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
        # a modulus whose square root is just above the cap
        ("density", "--s", "2", "--u", f"{(MAX_SIEVE + 1) ** 2},1", "--prime-limit", "100"),
    ],
    ids=["primes", "prime-limit", "modulus"],
)
def test_oversized_sieve_refused_before_allocation(monkeypatch, capsys, argv):
    grow = arith._grow_sieve

    def capped_grow(limit):
        assert limit <= MAX_SIEVE, f"sieve of {limit} allocated"
        grow(limit)

    monkeypatch.setattr(arith, "_grow_sieve", capped_grow)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error[budget]:")


def test_mc_wide_tuple_on_a_huge_range_builds_no_sieve(monkeypatch, capsys):
    def no_sieve(limit):
        raise AssertionError(f"sieve of {limit} allocated")

    monkeypatch.setattr(arith, "_grow_sieve", no_sieve)
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
    assert coprime._picks.cache_info().maxsize is not None


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
    def fake_verify(s, constraint, n, threads=1, budget=0):
        return RecursionReport(
            s=s, k=constraint.k, n=n, moduli=constraint.moduli,
            lhs=10, rhs_reduced=10, rhs_raw=9,
        )

    monkeypatch.setattr(cli, "verify_recursion", fake_verify)
    code, out, _ = run_cli(capsys, "verify-recursion", "--s", "1", "--k", "2", "--n-max", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["failures"] == 2
    assert not doc["result"]["reports"][0]["passed"]


def test_mc_document(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--s", "3", "--k", "3", "--range", "500", "--samples", "2000",
        "--seed", "4", "--streams", "2",
    )
    assert code == 0
    doc = json.loads(out)
    result = doc["result"]
    assert result["samples"] == 2000
    assert result["streams"] == 2
    assert 0 <= result["estimate"] <= 1
    assert result["hits"] == int(round(result["estimate"] * 2000))


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


def test_import_leaves_numpy_out():
    code = "import sys, kwise, kwise.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_process_pools_out():
    code = (
        "import sys, kwise.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
