import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import brwlab
from brwlab import conditioned as cr
from brwlab import lattice as lat
from brwlab.cli import BLOCK, main
from brwlab.rngstreams import substream


def run_cli(args):
    return main(args)


def child_env(**extra):
    """Environment under which a child interpreter imports this brwlab."""
    src = os.path.dirname(os.path.dirname(brwlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_simulate_jsonl_rows_and_sidecar(tmp_path):
    out = tmp_path / "runs.jsonl"
    rc = run_cli(["simulate", "--n", "1", "--offspring", "binary", "--reps", "10",
                  "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    rows = [json.loads(line) for line in lines]
    assert [r["rep"] for r in rows] == list(range(10))
    assert all(r["n"] == 1 and r["seed"] == 7 for r in rows)
    assert "written_at" not in out.read_text()
    meta = json.loads((tmp_path / "runs.jsonl.meta.json").read_text())
    assert meta["command"] == "simulate" and "written_at_unix" in meta


def test_simulate_requires_seed(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["simulate", "--n", "1", "--reps", "2", "--out", str(tmp_path / "x")])


def test_simulate_byte_identical_and_thread_invariant(tmp_path):
    # 1100 replicates span 5 blocks, so BRW_THREADS=3 takes the process pool
    for argv in (["simulate", "--n", "4", "--reps", "1100", "--seed", "3"],
                 ["simulate", "--n", "4", "--conditioned", "--reps", "1100", "--seed", "3"],
                 ["spine", "--n", "3", "--reps", "1100", "--ell", "2", "--seed", "3"],
                 ["conditioned", "--n", "3", "--x", "1,0", "--reps", "1100", "--seed", "3"]):
        a, b, c = (tmp_path / f"{len(argv)}-{argv[0]}-{name}"
                   for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
        run_cli(argv + ["--out", str(a)])
        run_cli(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 1100
        subprocess.run([sys.executable, "-m", "brwlab.cli", *argv, "--out", str(c)],
                       check=True, env=child_env(BRW_THREADS="3"))
        assert a.read_bytes() == c.read_bytes()


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_invalid_brw_threads_fail_fast(tmp_path, monkeypatch, value):
    monkeypatch.setenv("BRW_THREADS", value)
    with pytest.raises(SystemExit, match="BRW_THREADS"):
        run_cli(["simulate", "--n", "1", "--reps", "2", "--seed", "1",
                 "--out", str(tmp_path / "x.jsonl")])


def test_conditioned_simulate_records_attempts(tmp_path):
    out = tmp_path / "cond.jsonl"
    run_cli(["simulate", "--n", "3", "--reps", "5", "--seed", "11", "--conditioned",
             "--out", str(out)])
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["conditioned"] and r["attempts"] >= 1 and r["Z"] > 0 for r in rows)


def test_exact_u_field_contains_two_step_value(tmp_path, capsys):
    rc = run_cli(["exact", "u-field", "--n", "2", "--dim", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("# dim=2 n=2 radius=2")
    assert "0,0,0.1638" in text


@pytest.mark.parametrize("argv", [["mgf-field", "--n", "-1"], ["m2-field", "--n", "-1"],
                                  ["u-field", "--n", "3", "--clamp", "-2"],
                                  ["h-field", "--n", "3", "--clamp", "0"]])
def test_exact_fields_reject_out_of_range_input(tmp_path, argv):
    # argv ends with the offending flag and its value
    out = tmp_path / "f.csv"
    with pytest.raises(SystemExit, match=argv[-2]):
        run_cli(["exact", *argv, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--n", "-1", "--seed", "1"], "--n"),
    (["simulate", "--reps", "-3", "--seed", "1"], "--reps"),
    (["spine", "--n", "8", "--reps", "0", "--seed", "1"], "--reps"),
    (["spine", "--n", "8", "--ell", "0.5", "--seed", "1"], "--ell"),
    (["exact", "mgf-field", "--n", "3", "--theta", "-0.5"], "--theta"),
    *[(["exact", "survival", "--n", "10", "--offspring", spec], "--offspring")
      for spec in ("table:0=nan,2=0.5", "geometric:inf", "geometric:nan", "zeta:inf")],
    *[(["exact", "supersolution-verify", "--kappa", v, "--n0", "2"], "--kappa")
      for v in ("nan", "inf")],
    *[(["spine", "--n", "8", "--ell", v, "--seed", "1"], "--ell") for v in ("inf", "nan")],
    (["exact", "survival", "--n", "2", "--theta", "nan"], "--theta"),
    (["verify", "--suite", "clustering", "--budget", "nan", "--seed", "1"], "--budget"),
])
def test_out_of_range_flags_fail_fast_and_write_nothing(tmp_path, argv, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit, match=flag):
        run_cli([*argv, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "2", "--offspring", "table:0=0.5,2=0.4", "--seed", "1"],
    ["conditioned", "--n", "2", "--x", "5,0", "--seed", "1"],
    ["conditioned", "--n", "512", "--x", "500,0", "--reps", "2", "--seed", "1"],
    ["exact", "mgf-field", "--n", "20", "--theta", "50"],
])
def test_rejected_input_is_one_line_naming_the_command(tmp_path, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit, match=f"^brwlab {argv[0]}: ") as exc:
        run_cli([*argv, "--out", str(out)])
    assert "\n" not in str(exc.value)
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["exact", "p-field", "--dim", "4"], "--dim"),
    (["exact", "u-field", "--dim", "0"], "--dim"),
    (["simulate", "--dim", "4", "--seed", "1"], "--dim"),
    (["conditioned", "--n", "2", "--x", "1,0,0,0", "--seed", "1"], "--x"),
])
def test_dimension_out_of_range_names_its_flag(tmp_path, argv, flag):
    with pytest.raises(SystemExit, match=flag):
        run_cli([*argv, "--out", str(tmp_path / "o")])


def test_malformed_target_names_its_flag(tmp_path):
    out = tmp_path / "o"
    with pytest.raises(SystemExit, match="^--x .*'1,a'"):
        run_cli(["conditioned", "--n", "2", "--x", "1,a", "--seed", "1", "--out", str(out)])
    assert not out.exists()


def test_conditioned_horizon_beyond_packing_range_fails_before_any_field(tmp_path,
                                                                         monkeypatch):
    def never(*args, **kw):
        raise AssertionError("a field was built")

    monkeypatch.setattr(lat, "stencil_step", never)
    out = tmp_path / "o"
    with pytest.raises(SystemExit, match="^--n must be in"):
        run_cli(["conditioned", "--n", "20000", "--x", "1,0", "--reps", "2", "--seed", "1",
                 "--out", str(out)])
    assert not out.exists()


def test_exact_scalars_and_supersolution(tmp_path):
    out = tmp_path / "s.json"
    run_cli(["exact", "survival", "--n", "2", "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["survival"] == 0.375
    out2 = tmp_path / "v.json"
    run_cli(["exact", "supersolution-verify", "--n0", "8", "--out", str(out2)])
    rep = json.loads(out2.read_text())
    assert rep["holds"] is True and rep["min_relative_margin"] >= 0
    assert "min_margin" not in rep and rep["argmin"]["n"] >= 8


def test_degenerate_supersolution_report_is_strict_json(tmp_path):
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    out = tmp_path / "v.json"
    assert run_cli(["exact", "supersolution-verify", "--kappa", "-1", "--n0", "2",
                    "--out", str(out)]) == 0
    rep = json.loads(out.read_text(), parse_constant=refuse)
    assert rep["holds"] is False and rep["min_relative_margin"] is None


def test_exact_p_field_writes_the_full_symmetric_box(tmp_path):
    out = tmp_path / "p.csv"
    assert run_cli(["exact", "p-field", "--dim", "3", "--n", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# dim=3 n=3 radius=3 tail_bound=0.0"
    rows = {}
    for line in lines[1:]:
        *coords, value = line.split(",")
        rows[tuple(int(c) for c in coords)] = value
    assert len(rows) == len(lines) - 1 == 7 ** 3
    assert list(rows) == sorted(rows)  # lexicographic site order
    for site, value in rows.items():
        for flip in itertools.product((1, -1), repeat=3):
            assert rows[tuple(f * c for f, c in zip(flip, site))] == value
    assert sum(float(v) for v in rows.values()) == pytest.approx(1.0, abs=1e-14)


def test_spine_jsonl_schema(tmp_path):
    out = tmp_path / "spine.jsonl"
    run_cli(["spine", "--n", "8", "--reps", "6", "--seed", "5", "--ell", "3",
             "--out", str(out)])
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 6
    for r in rows:
        assert set(r) == {"rep", "n", "seed", "Tstar", "Gamma", "Delta",
                          "clamp_miss_count", "W", "ell"}
        assert r["Tstar"] >= 1 and r["W"] >= 2


def test_conditioned_cli_and_chi_square_report(tmp_path):
    out = tmp_path / "c.jsonl"
    rep = tmp_path / "chi.json"
    rc = run_cli(["conditioned", "--n", "2", "--x", "1,0", "--reps", "400",
                  "--seed", "9", "--out", str(out), "--chi-square-report", str(rep)])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 400
    assert all(r["value"] >= 1 and r["x"] == [1, 0] for r in rows)
    chi = json.loads(rep.read_text())
    assert chi["p_value"] > 1e-4
    # replaying block 0's substream reproduces its values and its paths' checksums
    rng = substream(9, "conditioned-rep", 0)
    values, paths = cr.ConditionedSampler(2, (1, 0)).sample(BLOCK, rng)
    for r, value, path in zip(rows, values, paths):
        checksum = int((np.arange(1, len(path) + 1)[:, None] * np.abs(path)).sum() % (1 << 31))
        assert (value, checksum) == (r["value"], r["path_len_checksum"])


def test_report_aggregates_jsonl(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(json.dumps({"rep": i, "value": float(i), "Z": i % 3})
                             for i in range(50)))
    out = tmp_path / "agg.csv"
    run_cli(["report", "--input", str(src), "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("statistic,mean")
    stats = {line.split(",")[0]: line for line in lines[1:]}
    assert "value" in stats and "Z" in stats and "rep" not in stats


def test_verify_suite_byte_identical(tmp_path):
    a, b = tmp_path / "r1.csv", tmp_path / "r2.csv"
    sa, sb = tmp_path / "s1.json", tmp_path / "s2.json"
    rc = run_cli(["verify", "--suite", "fundamental", "--seed", "42",
                  "--out", str(a), "--summary", str(sa)])
    assert rc == 0
    rc = run_cli(["verify", "--suite", "fundamental", "--seed", "42",
                  "--out", str(b), "--summary", str(sb)])
    assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    for out in (a, b):  # the suite's wall time goes to the sidecar only
        meta = json.loads((tmp_path / f"{out.name}.meta.json").read_text())
        assert meta["suite_seconds"]["fundamental"] >= 0.0
    assert json.loads(sa.read_text()) == json.loads(sb.read_text())
    assert json.loads(sa.read_text())["hard_pass"] is True


def test_verify_exits_zero_with_yaglom_expected_failure(tmp_path):
    # the as-stated Yaglom row fails as expected; every hard row passes
    summary = tmp_path / "s.json"
    rc = run_cli(["verify", "--suite", "yaglom", "--seed", "20240817",
                  "--out", str(tmp_path / "r.csv"), "--summary", str(summary)])
    assert rc == 0
    doc = json.loads(summary.read_text())
    assert doc["expected_failures"] == doc["failed_rows"] == ["C05-yaglom:ks-exp-mean-2-as-stated"]


def test_verify_unknown_suite_rejected(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["verify", "--suite", "nope", "--seed", "1", "--out", "-"])


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nreps = 3\nseed = 4\noffspring = binary  # comment\n")
    out = tmp_path / "o.jsonl"
    run_cli(["simulate", "--config", str(cfg), "--reps", "5", "--out", str(out)])
    rows = out.read_text().splitlines()
    assert len(rows) == 5  # flag wins over config
    assert json.loads(rows[0])["n"] == 2  # config wins over default


def test_cli_and_p_values_load_no_scipy_module(tmp_path):
    # scipy is a test-only oracle: neither import nor the two p-values load it
    code = (
        "import sys, numpy as np, brwlab.cli, brwlab.verify\n"
        "from brwlab import cli, stats\n"
        f"cli.main(['conditioned', '--n', '3', '--x', '1,0', '--reps', '200', '--seed', '7',"
        f" '--out', {str(tmp_path / 'c.jsonl')!r},"
        f" '--chi-square-report', {str(tmp_path / 'chi.json')!r}])\n"
        "stats.ks_against_exponential(np.linspace(0.01, 5.0, 500), 2.0)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=child_env())
    assert out.stdout.strip() == "[]"
    assert "p_value" in json.loads((tmp_path / "chi.json").read_text())
