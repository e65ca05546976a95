"""Acceptance gate: every verification suite at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` for one pass/fail line per
criterion (the CLI equivalent is `brwlab verify --suite all --seed 20240817`).

Two checks are expected to fail for mathematical reasons and are marked
strict-xfail with the analysis in the reason string: the as-stated Yaglom
exponential mean (the classical constant is sigma^2/2, its reciprocal), and
nothing else at criterion level.
"""

import io
import operator
import re

import pytest

from brwlab import lattice as lat
from brwlab import stats as st
from brwlab import verify as vf

SEED = 20240817
_MEMO: dict[str, list] = {}
_CELLS: dict[str, int] = {}  # each suite's stencil cell-steps, counted on its run


@pytest.fixture(scope="module")
def bank():
    return vf.SimBank(SEED)


def run_suite(name, bank):
    if name not in _MEMO:
        lat.work.steps = lat.work.cells = 0
        _MEMO[name] = vf.SUITES[name](SEED, bank)
        _CELLS[name] = lat.work.cells
        for r in _MEMO[name]:
            flag = "PASS" if r.passed else ("soft-FAIL" if r.soft else "FAIL")
            print(f"{flag} {r.theorem} {r.statistic}: {r.value:.6g} (band {r.band})")
    return _MEMO[name]


def assert_hard_rows(rows):
    bad = [r for r in rows if not r.soft and not r.passed]
    assert not bad, [f"{r.theorem}:{r.statistic}={r.value}" for r in bad]


def test_c01_fundamental_identity(bank):
    assert_hard_rows(run_suite("fundamental", bank))


def test_c02_hitting_recursion(bank):
    assert_hard_rows(run_suite("hitting", bank))


def test_c03_second_moments(bank):
    assert_hard_rows(run_suite("second-moment", bank))
    # the identity rows sweep P alone to n = 512 (sweeping f there as well
    # stores 53.9M), and the spread rows sweep f to n = 128
    assert 29e6 < _CELLS["second-moment"] < 31e6


def test_c04_kolmogorov_survival(bank):
    assert_hard_rows(run_suite("kolmogorov", bank))


@pytest.mark.xfail(strict=True, reason=(
    "the conditional law of Z_n/n given survival is exponential with mean "
    "sigma^2/2 (E[Z_n/n | G_n] = 1/(n s_n) -> 1/2 for binary by the exact "
    "survival recursion); the stated target Exp(mean 2/sigma^2) is the "
    "reciprocal constant and coincides only when sigma^2 = 2, so the "
    "as-stated KS check cannot pass"))
def test_c05_yaglom_as_stated(bank):
    assert_hard_rows(run_suite("yaglom", bank))


def test_c05_yaglom_classical_constant(bank):
    rows = run_suite("yaglom", bank)
    classical = [r for r in rows if "classical" in r.statistic]
    assert classical and all(r.passed for r in classical)


def test_c06_multiplicity_fractions_d3(bank):
    assert_hard_rows(run_suite("multiplicity", bank))


def test_c07_max_occupancy_tightness(bank):
    assert_hard_rows(run_suite("tightness", bank))


def test_c08_size_bias_exactness(bank):
    assert_hard_rows(run_suite("sizebias", bank))


def test_c09_spine_mean_identity(bank):
    assert_hard_rows(run_suite("spine-mean", bank))


def test_c10_conditioned_representation(bank):
    assert_hard_rows(run_suite("conditioned", bank))


def test_c11_supersolution_and_comparison(bank):
    assert_hard_rows(run_suite("supersolution", bank))


def test_c11_rows_carry_information(bank):
    # the margin is relative (not ~1e-104 at the box edge), the comparison
    # skips k = 0 (where u_0(0) = v_{N1}(0) = 1 makes it read 0), and the
    # n log n decay rate of u_n(0) has its own row
    rows = {r.statistic.split("-N")[0]: r.value for r in run_suite("supersolution", bank)}
    assert 0.01 < rows["relative-margin"] < 1.0
    assert rows["u-dominated-by-shift"] < -0.1
    assert 1.0 <= rows["u-times-n-log-n-ratio"] <= 2.0


def test_c12_occupied_sites_2d(bank):
    assert_hard_rows(run_suite("occupied-2d", bank))


def test_c13_clustering_soft_bands(bank):
    rows = run_suite("clustering", bank)
    # soft bands: measured to pass at the pinned seed, asserted to keep them
    # from silently regressing
    assert all(r.passed for r in rows)


def test_c14_monotonicity_and_overlap(bank):
    assert_hard_rows(run_suite("monotonicity", bank))


# the band texts, read without `Band`: an interval [lo;hi], or an optional
# |.| or |.-c|, a comparison, and a number or kSE(limit)
_BAND_TEXT = re.compile(r"\[(?P<lo>[^;]+);(?P<hi>[^]]+)\]|(?P<abs>\|\.(?:-(?P<c>[^|]+))?\|)?"
                        r"(?P<op><=|<|>=|>|==)(?P<x>[^S]+)(?:SE\((?P<limit>[^)]+)\))?")
_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt, "==": operator.eq}


def _recheck(value: float, band: str) -> bool:
    m = _BAND_TEXT.fullmatch(band)
    assert m, band
    if m["lo"]:
        return float(m["lo"]) <= value <= float(m["hi"])
    v = abs(value - float(m["c"] or 0)) if m["abs"] else value
    return _OPS[m["op"]](v, float(m["limit"] or m["x"]))


def test_report_csv_rechecks_from_its_own_text(bank):
    # every row's verdict follows from its value and band text alone, and the
    # passed, soft and expect_fail columns alone give the run's verdict
    rows = [r for name in vf.SUITES for r in run_suite(name, bank)]
    buf = io.StringIO()
    st.write_report_csv(rows, buf, header_lines=[f"seed={SEED}"])
    header, *lines = [line for line in buf.getvalue().splitlines() if not line.startswith("#")]
    columns = header.split(",")
    assert len(lines) == len(rows)
    hard_pass = True
    for line in lines:
        assert line.count(",") == len(columns) - 1, line
        row = dict(zip(columns, line.split(",")))
        assert row["passed"] == str(int(_recheck(float(row["value"]), row["band"]))), line
        if row["soft"] == "0":
            hard_pass &= row["passed"] != row["expect_fail"]
    assert hard_pass == st.summary_dict(rows)["hard_pass"]
