import io
import math

import numpy as np
import pytest

from brwlab import stats as st
from brwlab.rngstreams import substream


def test_estimate_ci_from_samples():
    x = np.arange(1, 101, dtype=np.float64)
    e = st.EstimateCI.from_samples(x)
    assert e.mean == pytest.approx(50.5)
    assert e.std_error == pytest.approx(x.std(ddof=1) / 10)
    assert e.q50 == pytest.approx(50.5)
    with pytest.raises(ValueError):
        st.EstimateCI.from_samples([1.0])


def test_ks_self_test_accepts_true_law():
    rng = substream(50, "selftest")
    x = rng.exponential(2.0, size=5000)
    out = st.ks_against_exponential(x, 2.0)
    assert out["passed"] and out["D"] < 0.03


def test_ks_rejects_constant_samples():
    out = st.ks_against_exponential(np.full(500, 1.3), 2.0)
    assert out["D"] >= 0.5 and not out["passed"]


def test_ks_needs_samples():
    with pytest.raises(ValueError):
        st.ks_against_exponential(np.ones(50), 1.0)


def test_chi_square_self_test():
    rng = substream(51, "selftest")
    probs = np.array([0.5, 0.3, 0.15, 0.05])
    draws = rng.choice(4, p=probs, size=20000)
    obs = np.bincount(draws, minlength=4)
    out = st.chi_square(obs, probs)
    assert out["p_value"] > 1e-3
    from scipy.stats import chi2
    assert out["p_value"] == pytest.approx(chi2.sf(out["stat"], out["dof"]), rel=1e-12)
    shifted = np.roll(probs, 1)
    out_bad = st.chi_square(obs, shifted)
    assert out_bad["p_value"] < 1e-6


def test_kolmogorov_sf_matches_scipy():
    from scipy import special
    y = np.linspace(0.01, 8.0, 4001)
    ours = np.array([st._kolmogorov_sf(v) for v in y])
    assert np.abs(ours / special.kolmogorov(y) - 1.0).max() <= 1e-13
    assert st._kolmogorov_sf(0.0) == st._kolmogorov_sf(-1.0) == 1.0
    assert st._kolmogorov_sf(1.0) == pytest.approx(special.kolmogorov(1.0), rel=1e-13)


def test_chi2_sf_matches_scipy():
    from scipy import special
    for dof in range(1, 201):
        stat = np.linspace(1e-3, 3 * dof + 600, 200)
        ref = special.chdtrc(dof, stat)
        keep = ref > 1e-200
        ours = np.array([st._chi2_sf(dof, s) for s in stat[keep]])
        assert np.abs(ours / ref[keep] - 1.0).max() <= 1e-12, dof
    # the closed forms at dof 1 and 2, and the far tail at large dof
    assert st._chi2_sf(1, 2.0) == pytest.approx(math.erfc(1.0), rel=1e-15)
    assert st._chi2_sf(2, 3.0) == pytest.approx(math.exp(-1.5), rel=1e-15)
    assert st._chi2_sf(5000, 9000.0) == pytest.approx(special.chdtrc(5000, 9000.0), rel=1e-10)
    for dof in (1, 2, 7):
        assert st._chi2_sf(dof, 0.0) == st._chi2_sf(dof, -1.0) == 1.0


def test_chi_square_pools_sparse_tail():
    probs = np.array([0.9, 0.05, 0.03, 0.015, 0.004, 0.001])
    obs = np.array([905, 48, 31, 13, 2, 1])
    out = st.chi_square(obs, probs)
    assert out["dof"] < len(probs) - 1
    assert out["p_value"] > 0.001


def test_tightness_table_pass_and_sanity_fail():
    rng = substream(52, "selftest")
    stable = {n: 3.0 * rng.random(2000) * math.log(n) for n in (64, 128, 256)}
    out = st.tightness_table(stable, lambda n: math.log(n), 1.5)
    assert out["passed"] and out["ratio"] < 1.2
    growing = {n: rng.random(2000) * n for n in (64, 128, 256)}
    out_bad = st.tightness_table(growing, lambda n: 1.0, 1.5)
    assert not out_bad["passed"]


def test_kappa_estimates_identity():
    rng = substream(53, "selftest")
    reps, J = 500, 8
    m = rng.integers(0, 5, size=(reps, J)).astype(np.int64)
    z = (m * np.arange(1, J + 1)).sum(axis=1) + 3
    overflow = np.full(reps, 3, dtype=np.int64)  # mass not in the histogram
    out = st.kappa_estimates(m, z, overflow)
    assert out["weighted_sum"] == pytest.approx(1.0, abs=1e-12)
    assert np.all(out["kappa"] >= 0)
    with pytest.raises(ValueError):
        st.kappa_estimates(m, np.zeros(reps), overflow)


def test_verify_budget_flags_skipped_suites():
    from brwlab import verify as vf
    lines = []
    rows, seconds = vf.run_suites(["fundamental"], 1, budget_seconds=0.0, echo=lines.append)
    assert len(rows) == 1 and rows[0].band == "not-run" and not rows[0].passed
    assert seconds == {}
    assert lines and lines[0].startswith("SKIP")
    assert st.summary_dict(rows)["hard_pass"] is False


def test_verify_lines_carry_suite_seconds():
    import re
    import time

    from brwlab import verify as vf
    lines = []
    t0 = time.monotonic()
    _, seconds = vf.run_suites(["fundamental"], 1, echo=lines.append)
    wall = time.monotonic() - t0
    m = re.match(r"PASS fundamental \((\d+\.\d) s\): ", lines[0])
    assert m, lines[0]
    assert 0.0 <= float(m.group(1)) <= wall + 0.05
    assert list(seconds) == ["fundamental"] and 0.0 <= seconds["fundamental"] <= wall
    assert f"{seconds['fundamental']:.1f}" == m.group(1)


def test_report_rows_csv_shape():
    rows = [st.ReportRow("C00-demo", 8, 2, "binary", "stat-a", 0.5, "<=1", True),
            st.ReportRow("C00-demo", 8, 2, "binary", "stat-b", 2.0, "<=1", False, soft=True)]
    buf = io.StringIO()
    st.write_report_csv(rows, buf, header_lines=["seed=1"])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1] == st.ReportRow.CSV_HEADER
    assert lines[2].endswith(",1,0") and lines[3].endswith(",0,1")
    summary = st.summary_dict(rows)
    assert summary["hard_pass"] is True
    assert summary["failed_rows"] == ["C00-demo:stat-b"]


def test_expected_failure_row_breaks_gate_only_when_it_passes():
    ok = st.ReportRow("C00-demo", 8, 2, "binary", "stat-a", 0.5, "<=1", True)
    xfail = st.ReportRow("C00-demo", 8, 2, "binary", "stat-x", 2.0, "<=1", False,
                         expect_fail=True)
    xpass = st.ReportRow("C00-demo", 8, 2, "binary", "stat-x", 0.5, "<=1", True,
                         expect_fail=True)
    assert st.summary_dict([ok, xfail])["hard_pass"] is True
    summary = st.summary_dict([ok, xpass])
    assert summary["hard_pass"] is False
    assert summary["expected_failures"] == ["C00-demo:stat-x"]
