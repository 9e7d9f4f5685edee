"""Tests for the benchmark's output checker.

    python3 -m pytest bench/test_oracle.py

Each defect class must be rejected and charged to the right layer, and the
untouched document must pass, so a checker that rejects everything fails.
"""

from __future__ import annotations

import json
import random
import unittest
from decimal import Decimal

import oracle
import run


def _doc(job: run.Job, result: dict) -> bytes:
    return json.dumps({"command": job.command, "inputs": {}, "result": result}).encode()


def _job(family: str, command: str, key: str) -> run.Job:
    jobs = run.FAMILIES[family](random.Random(0))
    return next(j for j in jobs if j.command == command and j.key == key)


class CountCheck(unittest.TestCase):
    def setUp(self):
        self.job = _job("count", "count", "s=3 k=2 n=500")
        self.golden = oracle.GOLDENS["count"]["s=3 k=2 n=500"]

    def test_golden_count_passes(self):
        doc = _doc(self.job, {"n": 500, "count": self.golden})
        self.assertEqual(oracle.check(self.job, 0, doc), [])

    def test_count_off_by_one_is_rejected(self):
        for count in (self.golden - 1, self.golden + 1):
            defects = oracle.check(self.job, 0, _doc(self.job, {"n": 500, "count": count}))
            self.assertEqual([layer for layer, _ in defects], ["coprime"])

    def test_nonzero_exit_is_charged_to_cli(self):
        doc = _doc(self.job, {"n": 500, "count": self.golden})
        self.assertEqual([layer for layer, _ in oracle.check(self.job, 2, doc)], ["cli"])


class DensityCheck(unittest.TestCase):
    def setUp(self):
        self.job = _job("euler", "density", "s=2 k=2")
        golden = oracle.GOLDENS["density"]["s=2 k=2"]
        self.job.params["prime_limit"] = golden["prime_limit"]
        self.lower, self.upper = Decimal(golden["lower"]), Decimal(golden["upper"])

    def _result(self, shift: Decimal) -> dict:
        return {"lower": str(self.lower + shift), "point": str(self.upper + shift),
                "upper": str(self.upper + shift), "prime_limit": self.job.params["prime_limit"]}

    def test_golden_enclosure_passes(self):
        self.assertEqual(oracle.check(self.job, 0, _doc(self.job, self._result(Decimal(0)))), [])

    def test_enclosure_shifted_off_six_over_pi_squared_is_rejected(self):
        width = self.upper - self.lower
        for shift in (2 * width, -2 * width):
            defects = oracle.check(self.job, 0, _doc(self.job, self._result(shift)))
            self.assertEqual([layer for layer, _ in defects], ["density"])

    def test_enclosure_looser_than_the_certificate_is_rejected(self):
        result = self._result(Decimal(0))
        result["lower"] = str(self.lower - (self.upper - self.lower))
        defects = oracle.check(self.job, 0, _doc(self.job, result))
        self.assertEqual([layer for layer, _ in defects], ["density"])


class MonteCarloCheck(unittest.TestCase):
    def setUp(self):
        self.job = _job("sample", "mc", "s=2 k=2")
        self.echo = self.job.params["echo"]
        self.truth = float(oracle.CLOSED_FORMS["s=2 k=2"])
        self.std_error = (self.truth * (1 - self.truth) / self.echo["samples"]) ** 0.5

    def _result(self, estimate: float) -> dict:
        return {**self.echo, "hits": 0, "estimate": estimate, "std_error": self.std_error,
                "streams": 1}

    def test_estimate_within_four_sigma_passes(self):
        for sigmas in (0, 4, -4):
            result = self._result(self.truth + sigmas * self.std_error)
            self.assertEqual(oracle.check(self.job, 0, _doc(self.job, result)), [])

    def test_estimate_ten_sigma_away_is_rejected(self):
        for sigmas in (10, -10):
            result = self._result(self.truth + sigmas * self.std_error)
            defects = oracle.check(self.job, 0, _doc(self.job, result))
            self.assertEqual([layer for layer, _ in defects], ["stats"])


if __name__ == "__main__":
    unittest.main()
