"""Acceptance suite: one test per criterion, every check exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines and timings.  Census and congruence sweeps run at N=10000, the
identity tiers at their stated orders; the module takes a few seconds.
"""

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from conftest import THETA_CORPUS
from _brute import triple_product

from qcore import (
    PochhammerFactor,
    TruncatedSeries,
    count_t_cores,
    dissect,
    euler_f,
    evaluate_side,
    expand_pochhammer,
    gen_a5bar,
    gen_b5bar,
    gen_c5,
    identities,
    phi,
    psi,
    sign_census,
    summarize,
    theta_general,
    verify,
    verify_all,
)
from qcore.cli import EXIT_MISMATCH, main as cli_main
from qcore.defaults import DEFAULT_KMAX
from qcore.identities import compared_sides, record_ids
from qcore.products import plan_run
from qcore.registry import SEQ, F, P, SeriesEquality


def _passed(number, message):
    print(f"ACCEPTANCE {number} PASS: {message}")


def test_criterion_1_golden_expansions():
    start = time.perf_counter()
    assert list(gen_a5bar(7).coeffs) == [1, 2, 4, 8, 14, 14, 20, 24]
    assert list(gen_b5bar(10).coeffs) == [1, 1, 1, 2, 3, -1, 0, 2, 0, -2, 6]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"golden expansions exact ({elapsed:.3f}s)")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    series = gen_c5(40)
    for n in range(41):
        assert count_t_cores(n, 5) == series[n], f"disagreement at n={n}"
    elapsed = time.perf_counter() - start
    _passed(2, f"lattice-vector oracle equals series for n <= 40 ({elapsed:.1f}s)")


LEMMA_SUITE = [
    "lemma.phimodeq", "lemma.phimodeqfora5", "lemma.psimodeq",
    "lemma.psimodeqforb5", "lemma.f5modeg", "lemma.A4B",
    "lemma.c4n1", "lemma.c5n4",
]


def test_criterion_3_lemma_suite():
    start = time.perf_counter()
    for rid in LEMMA_SUITE:
        report = verify(rid, 1000)
        assert report.ok, report.to_line()
    elapsed = time.perf_counter() - start
    _passed(3, f"six theta identities + two c5 identities at N=1000 ({elapsed:.1f}s)")


def test_criterion_4_dissection_suite():
    for rid in ("dissection.f1_5", "dissection.inv_f1_5",
                "dissection.phi_5", "dissection.psi_5"):
        report = verify(rid, 1000)
        assert report.ok, report.to_line()
    _passed(4, "all four 5-dissection formulas exact at N=1000")


THEOREM_SUITE = [
    "thm1.a5n2", "thm1.a5n3", "thm1.a10n1", "thm1.a10n9",
    "thm1.a20n6", "thm1.a20n14",
    "thm2.b4n3",
    "thm3.b5_4n_1", "thm3.b5_10n", "thm3.b5_10n_1", "thm3.b5_10n_2",
    "thm3.b5_10n_3", "thm3.b5_10n_4", "thm3.b5_10n_6", "thm3.b5_10n_8",
    "thm3.b5_20n_5", "thm3.b5_20n_7", "thm3.b5_20n_9",
    "thm3.b5_20n_15", "thm3.b5_20n_19",
]


def test_criterion_5_theorem_suite():
    for rid in THEOREM_SUITE:
        report = verify(rid, 1000)
        assert report.ok, report.to_line()
    for rid in ("thm1.recurrence", "thm2.recurrence"):
        report = verify(rid, 3000, kmax=3)
        assert report.ok, report.to_line()
        assert "k in [2, 3]" in report.detail
    _passed(5, "6 + 2 + 13 subsequence relations at N=1000, recurrences k in {2,3} at N=3000")


def test_criterion_6_congruence_families():
    a5 = gen_a5bar(10000)
    for r in (6, 14):
        assert all(a5[20 * n + r] % 10 == 0 for n in range((10000 - r) // 20 + 1))
    for rid in ("cor1.mod5k", "cor.b5.mod5k.rec", "cor.b5.mod5k.n18", "cor.b5.mod5k.n22"):
        report = verify(rid, 10000, kmax=3)
        assert report.ok, report.to_line()
        assert "k in [2, 3]" in report.detail
    _passed(6, "mod-10 families and mod-5^k families (k in {2,3}) exact over indices <= 10000")


def test_criterion_7_census_bounds():
    from fractions import Fraction

    census = sign_census("b5", 10000)
    assert census.zero >= Fraction(3, 10)
    assert census.positive >= Fraction(13, 25)
    assert census.negative >= Fraction(1, 10)
    report = verify("cor.census", 10000)
    assert report.ok
    assert "n=1..10000" in report.detail
    _passed(7, f"b5 sign census at N=10000: zero={census.zero} "
               f"positive={census.positive} negative={census.negative}")


def test_criterion_8_property_suites():
    # triple product equality for the whole theta corpus
    for spec in THETA_CORPUS:
        assert triple_product(spec, 500) == theta_general(spec, 500), spec
    # sum-form vs product-form constructions: phi(s q) = f(s q)^2/f2, psi(s q) = f(s q) f4/f2
    for s in (-1, 1):
        assert phi(s, 1, 2000) == evaluate_side((P(1, 0, (F(1, s), 2), (F(2), -1)),), 2000)
        assert psi(s, 1, 2000) == evaluate_side((P(1, 0, F(1, s), F(4), (F(2), -1)),), 2000)
    assert euler_f(1, 2000) == expand_pochhammer(PochhammerFactor(1, 1, 1), 2000)
    # dissection reassembly on seeded random series
    rng = random.Random(53723)
    for _ in range(10):
        a = TruncatedSeries([rng.randint(-10 ** 6, 10 ** 6) for _ in range(1001)])
        for m in (2, 4, 5, 10, 20):
            assert dissect(a, m).reassemble(1000) == a
    # ring axioms on seeded random triples
    for _ in range(20):
        a, b, c = (
            TruncatedSeries([rng.randint(-999, 999) for _ in range(60)])
            for _ in range(3)
        )
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b + c) == a.mul(b) + a.mul(c)
    _passed(8, "triple product (N=500), sum-vs-product (N=2000), reassembly, ring axioms")


def test_criterion_9_extended_tier():
    reports = verify_all("extended", 500)
    assert all(r.ok for r in reports), [r.to_line() for r in reports if not r.ok]
    assert len(reports) == 28
    _passed(9, f"extended tier: {summarize(reports)} at N=500")


def test_criterion_10_fault_injection(capsys, monkeypatch):
    monkeypatch.setitem(identities.REGISTRY, "selftest.acceptance.corrupt", SeriesEquality(
        "selftest.acceptance.corrupt", "selftest", "rhs perturbed at q^12",
        ((P(1, 0, SEQ("c5")),), (P(1, 0, SEQ("c5")), P(1, 12))),
    ))
    code = cli_main(["verify", "selftest.acceptance.corrupt", "--order", "100"])
    out = capsys.readouterr().out
    assert code == EXIT_MISMATCH
    assert "mismatch" in out and "index=12" in out
    _passed(10, "corrupted registry entry reports first bad index, exit code nonzero")


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("fault, argv, check", [
    ("--corrupt gen_b5bar:297", "verify ext.b5.before_last -N 100",
     lambda code, out, err: code == EXIT_MISMATCH and "mismatch N=100 index=11 " in out),
    ("--crash euler_f", "verify lemma.A4B -N 100",
     lambda code, out, err: code == EXIT_MISMATCH
     and err.endswith("RuntimeError: injected crash in euler_f\n")),
    ("--corrupt gen_b5bar:306", "expand b5bar 500",
     lambda code, out, err: code == 0 and out.split()[306] == "1"),
])
def test_benchmark_faults_reach_the_values_they_corrupt(fault, argv, check):
    # perfbench's self-test injects these faults by wrapping a constructor
    # wherever a qcore module holds it, SEQUENCES included: a sequence value
    # must be read through its constructor at its own index, and an F atom
    # through products.euler_f, for the fault to reach the report
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launcher.py"), *fault.split(), "--",
         *argv.split()],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert check(proc.returncode, proc.stdout, proc.stderr), (proc.returncode, proc.stdout,
                                                              proc.stderr[-500:])


def test_a_traced_verify_all_has_one_verify_span_per_record(tmp_path):
    # perfbench/run.py builds its per-record metrics from identities.verify
    # spans, so verify_all must call verify once per record; and the run
    # makes each product of its plan once, one series.mul span each
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launcher.py"), "--trace", str(trace), "--",
         "verify", "all", "-N", "100"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr[-500:]
    spans = Counter(span[0] for span in json.loads(trace.read_text())["spans"])
    ids = record_ids("all")
    assert spans["identities.verify"] == len(ids) == 74
    plan = plan_run(compared_sides(ids, 100, DEFAULT_KMAX))
    assert spans["series.mul"] == plan.products


def test_criterion_11_performance_envelope():
    # guidance, not a gate: full core tier at N=1000, single thread
    start = time.perf_counter()
    reports = verify_all("core", 1000)
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in reports)
    assert elapsed < 300.0
    _passed(11, f"core tier verify_all at N=1000 in {elapsed:.2f}s (envelope 300s)")
