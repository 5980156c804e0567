"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every criterion is executed through the experiment registry at its stated
size and tolerance; criterion 14 replays each experiment and demands
bit-identical metrics.
"""

import json
import time
from pathlib import Path

import pytest

from cylmart.harness import make_config, replay, run

EXPERIMENT_BUDGETS = {
    # seconds; sums of the stated budgets of the criteria each experiment runs
    "supmeas": 15.0,  # criteria 1 (10 s) + 2 (5 s)
    "qv": 40.0,  # criteria 3 (30 s) + 5 (10 s)
    "countex": 10.0,  # criterion 4
    "bdg": 17 * 60.0,  # criteria 6 (2 min) + 7 (15 min)
    "timechange": 5 * 60.0,  # criterion 8
    "gamma": 5 * 60.0,  # criterion 9
    "ito": 5 * 60.0,  # criterion 10
    "kw": 2 * 60.0,  # criterion 11
    "see": 10 * 60.0,  # criterion 12
    "projsel": 10.0,  # criterion 13
}


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-runs")
    results = {}
    for name in EXPERIMENT_BUDGETS:
        t0 = time.perf_counter()
        report = run(make_config(name, out=str(out)))
        results[name] = (report, time.perf_counter() - t0)
    return results


def check(runs, number, label, experiment, criterion_names):
    report, elapsed = runs[experiment]
    by_name = {c.name: c for c in report.criteria}
    missing = [n for n in criterion_names if n not in by_name]
    assert not missing, f"experiment {experiment} lost criteria {missing}"
    ok = all(by_name[n].passed for n in criterion_names)
    in_budget = elapsed <= EXPERIMENT_BUDGETS[experiment]
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    details = ", ".join(f"{n}={by_name[n].value:.4g}" for n in criterion_names)
    print(f"ACCEPTANCE {number:>2} [{verdict}] {label}: {details} ({elapsed:.1f}s)")
    assert ok, [by_name[n].to_json() for n in criterion_names if not by_name[n].passed]
    assert in_budget, f"{experiment} took {elapsed:.1f}s > {EXPERIMENT_BUDGETS[experiment]}s"


def test_criterion_01_supremum_oracle(runs):
    check(
        runs, 1, "supremum-of-measures equals partition enumeration exactly",
        "supmeas", ["supmeas-oracle-exact"],
    )


def test_criterion_02_density_supremum(runs):
    check(
        runs, 2, "density supremum equals supremum of integrated measures",
        "supmeas", ["supmeas-density-identity"],
    )


def test_criterion_03_brownian_bracket(runs):
    check(
        runs, 3, "unit driver bracket exact; partition estimate within 2%",
        "qv", ["qv-identity-exact", "qv-partition-2pct"],
    )


def test_criterion_04_countex_divergence(runs):
    check(
        runs, 4, "bracket grows linearly in truncation order, directions bounded",
        "countex", ["countex-bracket-linear", "countex-directions-bounded"],
    )


def test_criterion_05_density_normalization(runs):
    check(
        runs, 5, "operator density has unit norm; difference quotients recover it",
        "qv", ["qm-norm-one", "qm-empirical"],
    )


def test_criterion_06_isometry(runs):
    check(runs, 6, "second-moment identity |z| <= 3 on 20 instances", "bdg",
          ["bdg-isometry-z3"])


def test_criterion_07_bracket_stability(runs):
    check(
        runs, 7, "sup/kernel moment ratios in stable brackets (width <= 50, 10% seed drift)",
        "bdg", ["bdg-bracket-width", "bdg-bracket-cross-seed"],
    )


def test_criterion_08_time_change(runs):
    check(
        runs, 8, "unit-rate transported bracket; transported integral gap order >= 0.4",
        "timechange", ["timechange-unit-bracket", "timechange-dds-order"],
    )


def test_criterion_09_gamma_norms(runs):
    check(
        runs, 9, "MC vs exact within 3 sigma; ideal property; primitive bound",
        "gamma",
        ["gamma-mc-matches-exact", "gamma-ideal-property", "gamma-primitive-bound"],
    )


def test_criterion_10_ito_formula(runs):
    check(
        runs, 10, "linear residual exact zero; classical within 3 SE; order >= 0.4",
        "ito", ["ito-linear-exact", "ito-classical-z3", "ito-residual-order"],
    )


def test_criterion_11_kunita_watanabe(runs):
    check(runs, 11, "no covariation Cauchy-Schwarz violations", "kw",
          ["kw-no-violation"])


def test_criterion_12_see_solver(runs):
    check(
        runs, 12, "mild solver: flow exact, ODE oracle, OU variance, contraction, localization",
        "see",
        [
            "see-flow-exact",
            "see-ode-5dt",
            "see-ou-variance",
            "see-contraction-order",
            "see-localization",
        ],
    )


def test_criterion_13_projection_selection(runs):
    check(runs, 13, "projection-triple identities on 200 PSD draws", "projsel",
          ["projsel-identities"])


def test_criterion_14_determinism(runs):
    worst = 0.0
    for name, (report, _) in runs.items():
        t0 = time.perf_counter()
        fresh = replay(report.run_dir)  # raises ReplayMismatch on any drift
        worst = max(worst, time.perf_counter() - t0)
        assert fresh.metrics == report.metrics
    print(f"ACCEPTANCE 14 [PASS] replay of every experiment is bit-identical "
          f"(slowest {worst:.1f}s)")


def _reject_constant(name):
    raise ValueError(f"{name} is not standard JSON")


def test_reports_are_standard_json(runs):
    # JSON has no NaN or Infinity: strict parsers reject the bare tokens
    for name, (report, _) in runs.items():
        text = (Path(report.run_dir) / "report.json").read_text()
        json.loads(text, parse_constant=_reject_constant)
