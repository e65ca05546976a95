import argparse
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import brwlab
from brwlab import conditioned as cr
from brwlab import exactfields as xf
from brwlab import lattice as lat
from brwlab import cli
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


def test_stochastic_commands_byte_identical_across_reruns_and_interpreters(tmp_path):
    # 1100 replicates span 5 blocks
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
                       check=True, env=child_env())
        assert a.read_bytes() == c.read_bytes()


def test_conditioned_run_builds_one_sampler_for_all_its_blocks(tmp_path, monkeypatch):
    # 600 replicates span 3 blocks, which share one sampler and its checkpoints
    built = []

    class Counted(cr.ConditionedSampler):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cr, "ConditionedSampler", Counted)
    out = tmp_path / "c.jsonl"
    assert run_cli(["conditioned", "--n", "40", "--reps", "600", "--seed", "3",
                    "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 600
    assert built == [(40, (1, 0))]


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
                                  ["h-field", "--n", "3", "--clamp", "0"],
                                  ["h-field", "--n", "0"]])
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
    (["spine", "--n", "8", "--ell", "-0.5", "--seed", "1"], "--ell"),
    (["exact", "mgf-field", "--n", "3", "--theta", "-0.5"], "--theta"),
    *[(["exact", "survival", "--n", "10", "--offspring", spec], "--offspring")
      for spec in ("table:0=nan,2=0.5", "geometric:inf", "geometric:nan", "zeta:inf")],
    *[(["exact", "supersolution-verify", "--kappa", v, "--n0", "2"], "--kappa")
      for v in ("nan", "inf")],
    *[(["spine", "--n", "8", "--ell", v, "--seed", "1"], "--ell") for v in ("inf", "nan")],
    (["exact", "mgf-field", "--n", "2", "--theta", "nan"], "--theta"),
    (["exact", "supersolution-verify", "--n0", "-5"], "--n0"),
    # specs no offspring table can carry: a negative or repeated litter size,
    # or a family parameter past the double-precision limits
    *[(["exact", "survival", "--n", "10", "--offspring", spec], "--offspring")
      for spec in ("table:-1=0.5,3=0.5", "geometric:1e17", "zeta:1e9")],
    *[(["simulate", "--n", "2", "--offspring", spec, "--seed", "1"], "--offspring")
      for spec in ("table:-1=0.5,3=0.5", "table:0=0.5,2=0.3,2=0.5")],
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


def test_h_field_blowup_names_its_step(tmp_path):
    out = tmp_path / "h.csv"
    with pytest.raises(SystemExit, match="^brwlab exact: mgf blowup at step 35$"):
        run_cli(["exact", "h-field", "--offspring", "geometric:2", "--theta", "0.3",
                 "--n", "64", "--out", str(out)])
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


@pytest.mark.parametrize("argv,recorded", [
    (["survival", "--n", "2"], {"n": 2, "offspring": "binary"}),
    (["p-field", "--n", "2", "--clamp", "1"], {"n": 2, "dim": 2, "clamp": 1}),
    (["gamma", "--n", "4", "--dim", "3"], {"n": 4, "dim": 3}),
    (["mgf-field", "--n", "2"], {"n": 2, "dim": 2, "offspring": "binary", "theta": 0.05,
                                 "clamp": None}),
    (["supersolution-verify", "--n0", "8"], {"kappa": xf.KAPPA0, "n0": 8}),
])
def test_exact_sidecar_records_exactly_the_values_its_kind_read(tmp_path, argv, recorded):
    out = tmp_path / "o"
    assert run_cli(["exact", *argv, "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "o.meta.json").read_text())
    del meta["written_at_unix"]
    assert meta == {"command": "exact", "kind": argv[0], **recorded}


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


def test_spine_rows_describe_one_replicate(tmp_path):
    # Tstar counts the particles at the tip's site, W those within ell of it:
    # read off one construction, W >= Tstar on every row
    out = tmp_path / "spine.jsonl"
    run_cli(["spine", "--n", "16", "--reps", "2000", "--ell", "1", "--seed", "7",
             "--out", str(out)])
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 2000
    assert all(r["W"] >= r["Tstar"] for r in rows)


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
    plain = [{"rep": i, "value": float(i), "Z": i % 3} for i in range(50)]
    # T is null where a run died out; a null in the first row keeps the column
    typical = [{"rep": i, "Z": i % 3, "T": None if i % 7 == 0 else i % 4 + 1}
               for i in range(50)]
    for rows, want in ((plain, {"value", "Z"}), (typical, {"Z", "T"})):
        src = tmp_path / "in.jsonl"
        src.write_text("\n".join(json.dumps(r) for r in rows))
        out = tmp_path / "agg.csv"
        run_cli(["report", "--input", str(src), "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("statistic,mean")
        stats = {line.split(",")[0]: line for line in lines[1:]}
        assert set(stats) == want
        if "T" in want:  # the mean over the non-null rows
            t = [r["T"] for r in rows if r["T"] is not None]
            assert float(stats["T"].split(",")[1]) == pytest.approx(np.mean(t), rel=1e-12)


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
    for out in (a, b):  # the suite's wall time and memory go to the sidecar only
        meta = json.loads((tmp_path / f"{out.name}.meta.json").read_text())
        assert meta["suite_seconds"]["fundamental"] >= 0.0
        assert meta["suite_peak_rss_mb"]["fundamental"] > 1.0  # numpy alone holds more
    assert json.loads(sa.read_text()) == json.loads(sb.read_text())
    assert json.loads(sa.read_text())["hard_pass"] is True


def test_verify_sidecar_counts_each_suites_cell_steps(tmp_path):
    # the counts go to the sidecar only: the report CSV stays byte-identical
    outs = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    for out in outs:
        assert run_cli(["verify", "--suite", "supersolution", "--seed", "42",
                        "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    for out in outs:
        meta = json.loads((tmp_path / f"{out.name}.meta.json").read_text())
        # C11's sweep is clamped by mass: 1.8M cell-steps, not the full box's 22.6M
        assert 1e6 < meta["suite_cell_steps"]["supersolution"] < 2.5e6
        # the domination sweep's 512 steps are all: the margin is closed-form
        assert meta["suite_stencil_steps"]["supersolution"] == 512


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


@pytest.mark.parametrize("argv,key", [
    (["simulate", "--seed", "1"], "rep"),  # a typo for reps
    (["verify", "--suite", "fundamental", "--seed", "1"], "budget"),
    (["exact", "survival"], "seed"),
    (["simulate", "--seed", "1"], "out"),  # a flag, but not a parameter
    (["exact", "survival"], "kappa"),  # a flag of another kind
    (["exact", "p-field"], "offspring"),
])
def test_config_key_that_is_no_parameter_flag_fails_naming_it(tmp_path, argv, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 2\n{key} = 3\n")
    out = tmp_path / "o"
    with pytest.raises(SystemExit, match=f"^config key '{key}' is not a parameter flag"):
        run_cli([*argv, "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("value,conditioned", [("true", True), ("false", False),
                                               ("True", None), ("1", None), ("yes", None)])
def test_config_boolean_reads_only_true_or_false(tmp_path, value, conditioned):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 2\nreps = 3\nseed = 4\nconditioned = {value}\n")
    out = tmp_path / "o.jsonl"
    argv = ["simulate", "--config", str(cfg), "--out", str(out)]
    if conditioned is None:
        with pytest.raises(SystemExit, match="^config key conditioned = .*true or false"):
            run_cli(argv)
        assert not out.exists()
    else:
        assert run_cli(argv) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["conditioned"] for r in rows] == [conditioned] * 3


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--suite", "fundamental", "--seed", "1", "--budget", "1"], "--budget"),
    (["exact", "u-field", "--n", "2", "--seed", "1"], "--seed"),
    # each exact kind takes only the flags it reads
    (["exact", "survival", "--n", "2", "--clamp", "5"], "--clamp"),
    (["exact", "supersolution-verify", "--dim", "3", "--offspring", "geometric:2",
      "--theta", "9"], "--dim"),
])
def test_removed_options_fail_at_parse(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    # under the usage line of the command (or exact kind) given, which lists
    # the flags it does take
    command = " ".join(argv[:2] if argv[0] == "exact" else argv[:1])
    assert err.startswith(f"usage: brwlab {command} [-h]")
    assert f"brwlab {command}: error: unrecognized" in err
    assert not out.exists()


def test_one_parser_serves_every_main_call(tmp_path, capsys):
    # the parser is built once per process; calls with different subcommands
    # still parse their own flags, and an unknown flag still gets the usage
    # line of the kind given
    cli.build_parser.cache_clear()
    assert run_cli(["exact", "survival", "--offspring", "binary", "--n", "3",
                    "--out", str(tmp_path / "s.json")]) == 0
    assert run_cli(["spine", "--n", "4", "--reps", "2", "--seed", "3",
                    "--out", str(tmp_path / "spine.jsonl")]) == 0
    survival = json.loads((tmp_path / "s.json").read_text())
    assert survival["n"] == 3 and survival["survival"] == 0.3046875
    rows = [json.loads(line) for line in (tmp_path / "spine.jsonl").read_text().splitlines()]
    assert [(r["rep"], r["n"], r["seed"]) for r in rows] == [(0, 4, 3), (1, 4, 3)]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(["exact", "survival", "--n", "2", "--clamp", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: brwlab exact survival [-h]")
    assert "brwlab exact survival: error: unrecognized arguments: --clamp 5" in err
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


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


def test_a_reader_that_closes_the_pipe_early_gets_one_error_line():
    # the field's 40,401 rows overflow the pipe: the writer meets the closed end
    proc = subprocess.Popen([sys.executable, "-m", "brwlab.cli", "exact", "p-field", "--n", "100"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert proc.stdout.readline().startswith(b"# dim=2 n=100")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) != 0
    assert err.splitlines() == ["brwlab exact: output closed early (broken pipe)"]


def test_supersolution_verdict_reads_the_relative_margin(tmp_path):
    # at n = 256 the bump underflows near |x| = 3n; the verdict reads the
    # relative margin's sign, which holds there, not the absolute margin's
    out = tmp_path / "v.json"
    assert run_cli(["exact", "supersolution-verify", "--n0", "64", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["holds"] is True and rep["n_range"] == [64, 256]
    assert 0.0079 < rep["min_relative_margin"] < 0.008


# the flags that are no parameters: what a command reads and writes, and what it runs
NOT_PARAMETERS = {"help", "config", "out", "suite", "summary", "chi-square-report"}
# what a sidecar records beyond the command, the kind, the parameters and the time
SIDECAR_EXTRAS = {"verify": {"suite", "suite_seconds", "suite_peak_rss_mb", "suite_stencil_steps",
                             "suite_cell_steps"}}
SMALL_RUNS = {"simulate": ["--n", "1", "--reps", "2", "--seed", "1"],
              "spine": ["--n", "2", "--reps", "1", "--seed", "1"],
              "conditioned": ["--n", "1", "--reps", "1", "--seed", "1"],
              "verify": ["--suite", "fundamental", "--seed", "1"]}
COMMANDS = [*[(c,) for c in SMALL_RUNS], *[("exact", k) for k in cli._PARAMETERS["exact"]]]


def leaf_parser(path):
    q = cli.build_parser()
    for name in path:
        q = next(a for a in q._actions if isinstance(a, argparse._SubParsersAction)).choices[name]
    return q


def readme_exact_flags(kind):
    """The flags that README's `exact` table lists for this kind."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    rows = [line.split("|")[1:3] for line in readme.read_text().splitlines()
            if line.startswith("| `") and f"`{kind}`" in line.split("|")[1]]
    assert len(rows) == 1, kind
    return set(re.findall(r"`--([\w-]+)`", rows[0][1]))


@pytest.mark.parametrize("path", COMMANDS, ids=" ".join)
def test_one_table_gives_the_flags_the_config_keys_and_the_sidecar(tmp_path, path):
    flags = {s[2:] for a in leaf_parser(path)._actions for s in a.option_strings
             if s.startswith("--")} - NOT_PARAMETERS
    # every name any command knows, tried one at a time as a config key
    names = set(cli._FLAGS) | NOT_PARAMETERS | {"command", "kind", "rep", "budget"}
    cfg, accepted = tmp_path / "run.cfg", set()
    for name in names:
        cfg.write_text(f"{name} = 1\n")
        args, _ = cli.build_parser().parse_known_args([*path, "--config", str(cfg)])
        try:
            cli.load_config(args)
            accepted.add(name)
        except SystemExit as exc:
            assert str(exc).startswith(f"config key {name!r} is not a parameter flag")
    out = tmp_path / "o"
    assert run_cli([*path, *SMALL_RUNS.get(path[0], []), "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "o.meta.json").read_text())
    recorded = set(meta) - {"command", "kind", "written_at_unix"} - SIDECAR_EXTRAS.get(path[0], set())
    assert flags and flags == accepted == recorded
    assert meta["command"] == path[0] and meta.get("kind") == (path[1:] or [None])[0]
    if path[0] == "exact":  # the docs list the same flags
        assert readme_exact_flags(path[1]) == flags
