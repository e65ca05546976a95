"""The benchmark's workloads: named lists of operations with output checks.

An operation is one verify suite or one CLI command.  Each has a `run`
callable and a `check` that validates the output and returns a hash of the
primary output (report rows, or the JSONL/CSV/JSON files the command wrote,
never the `.meta.json` sidecars).

Why these workloads (each layer has one where it does most of the work and
one where it does almost none):

* exact -- stencil sweeps (full d=2 box to R=513 in C11, d=2/3 octant to
  n=512 in C03, the spectral oracle) with almost no particle simulation.
* forward-bank -- the particle engine at scale: evolve_particles on 1e5-1e6
  particle arrays, batched rejection, BatchStats, 1M-4M population arrays; no
  spine or conditioned code.
* spine -- the same engine on arrays of a few hundred particles: the O(n^2)
  spine constructions of C13 (a fresh walk of age j for every height j <= n,
  n = 1024) plus size-biased population batches.
* cli-readme -- the README commands through `cli.main`, the only workload
  that reaches the per-replicate CLI dispatch (offspring parsing per
  replicate, `run`/`run_conditioned`, one-replicate spine batches), the
  offspring table build and the conditioned walk's per-step Python loop.

The heaviest suites (spine-mean, conditioned, tightness, occupied-2d) are left
out so that every run of all four workloads fits the benchmark's time budget;
their layers are covered above and by the traced per-unit costs.
"""

from __future__ import annotations

import hashlib
import json
import os

DEFAULT_SEED = {"verify": 20240817, "cli": 7}

VERIFY_WORKLOADS = {
    "exact": ("fundamental", "hitting", "second-moment", "supersolution", "monotonicity"),
    "forward-bank": ("kolmogorov", "yaglom", "multiplicity"),
    "spine": ("sizebias", "clustering"),
}

# a row that must fail: the as-stated Yaglom target is the reciprocal constant
# (strict expected failure in tests/test_acceptance.py)
EXPECTED_FAIL = {("C05-yaglom", "ks-exp-mean-2-as-stated")}
# soft rows that must still pass
REQUIRED_SOFT_THEOREMS = {"C13-clustering"}

FORWARD_KEYS = {"rep", "n", "d", "seed", "conditioned", "attempts", "Z", "V", "Omega",
                "M", "overflow", "T", "S"}
SPINE_KEYS = {"rep", "n", "seed", "Tstar", "Gamma", "Delta", "W", "ell", "clamp_miss_count"}
CONDITIONED_KEYS = {"n", "x", "rep", "value", "path_len_checksum"}
CHI_SQUARE_MIN_P = 1e-4

def kind(workload: str) -> str:
    if workload in VERIFY_WORKLOADS:
        return "verify"
    if workload == "cli-readme":
        return "cli"
    raise KeyError(workload)


NAMES = tuple(VERIFY_WORKLOADS) + ("cli-readme",)


def op_names(workload: str) -> list[str]:
    """Operation names in run order, each prefixed by its layer."""
    if kind(workload) == "verify":
        return [f"verify.{s}" for s in VERIFY_WORKLOADS[workload]]
    return [f"cli.{name}" for name, _, _ in CLI_COMMANDS]


class Op:
    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else c.encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# verify


def check_rows(rows) -> tuple[list[str], str]:
    """Problems with a suite's report rows, and the hash of the rows."""
    problems = []
    for r in rows:
        key = (r.theorem, r.statistic)
        if key in EXPECTED_FAIL:
            if r.passed:
                problems.append(f"{r.theorem}:{r.statistic} passed but must fail")
        elif (not r.soft or r.theorem in REQUIRED_SOFT_THEOREMS) and not r.passed:
            problems.append(f"{r.theorem}:{r.statistic}={r.value!r} failed (band {r.band})")
    if not rows:
        problems.append("no report rows")
    return problems, _digest(r.to_csv() for r in rows)


def verify_ops(workload: str, seed: int) -> list[Op]:
    from brwlab import verify as vf

    bank = vf.SimBank(seed)
    ops = []
    for suite in VERIFY_WORKLOADS[workload]:
        # resolved at call time, so a traced run calls the wrapped suite
        ops.append(Op(f"verify.{suite}", lambda s=suite: vf.SUITES[s](seed, bank), check_rows))
    return ops


# ---------------------------------------------------------------------------
# cli


def _jsonl(path, keys, reps) -> tuple[list[str], list[dict]]:
    """Problems with a JSONL output (one row per replicate, README keys), and its rows."""
    problems = []
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if [r.get("rep") for r in rows] != list(range(reps)):
        problems.append(f"expected replicates 0..{reps - 1}, got {len(rows)} rows")
    bad = [r.get("rep") for r in rows if set(r) != keys]
    if bad:
        problems.append(f"rows {bad[:5]} lack the README keys")
    return problems, rows


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def check_simulate(paths, reps):
    return _jsonl(paths[0], FORWARD_KEYS, reps)[0]


def check_simulate_conditioned(paths, reps):
    problems, rows = _jsonl(paths[0], FORWARD_KEYS, reps)
    if not all(r.get("Z", 0) > 0 and (r.get("attempts") or 0) >= 1 for r in rows):
        problems.append("a conditioned replicate did not survive")
    return problems


def check_spine(paths, reps):
    problems, rows = _jsonl(paths[0], SPINE_KEYS, reps)
    if not all(r.get("Tstar", 0) >= 1 for r in rows):
        problems.append("Tstar < 1")
    return problems


def check_conditioned(paths, reps):
    problems = _jsonl(paths[0], CONDITIONED_KEYS, reps)[0]
    p = _load(paths[1]).get("p_value", 0.0)
    if not p > CHI_SQUARE_MIN_P:
        problems.append(f"chi-square p = {p} <= {CHI_SQUARE_MIN_P}")
    return problems


def check_u_field(paths, reps):
    with open(paths[0]) as fh:
        lines = fh.read().splitlines()
    head = dict(kv.split("=") for kv in lines[0].lstrip("# ").split())
    values = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    if len(values) != (2 * int(head["radius"]) + 1) ** int(head["dim"]) \
            or not all(0.0 <= v <= 1.0 for v in values):
        return ["u-field CSV has the wrong row count or values outside [0, 1]"]
    return []


def check_survival(paths, reps):
    doc = _load(paths[0])
    if set(doc) != {"n", "offspring", "survival", "n_times_survival"} \
            or not 0.0 < doc["survival"] <= 1.0:
        return [f"bad survival report {doc}"]
    return []


def check_supersolution(paths, reps):
    return [] if _load(paths[0]).get("holds") is True else ["the super-solution margin fails"]


def check_report(paths, reps):
    with open(paths[0]) as fh:
        lines = fh.read().splitlines()
    if lines[:1] != ["statistic,mean,std_error,reps,q10,q50,q90"] \
            or not any(line.startswith("Z,") for line in lines[1:]):
        return ["aggregate CSV lacks its header or the Z row"]
    return []


# (operation name, argv with {out} for the output directory, output check).
# Stochastic commands get --seed; the files after --out and
# --chi-square-report are the primary outputs that are checked and hashed.
CLI_COMMANDS = (
    ("simulate-binary", "simulate --n 256 --dim 2 --offspring binary --reps 1000 "
     "--out {out}/runs.jsonl", check_simulate),
    ("simulate-zeta2", "simulate --n 256 --dim 2 --offspring zeta:2 --reps 20 "
     "--out {out}/zeta.jsonl", check_simulate),
    ("simulate-conditioned", "simulate --n 128 --conditioned --reps 80 "
     "--out {out}/cond.jsonl", check_simulate_conditioned),
    ("spine", "spine --n 512 --reps 5 --ell 7 --out {out}/spine.jsonl", check_spine),
    ("conditioned", "conditioned --n 3 --x 1,0 --reps 10000 --out {out}/c.jsonl "
     "--chi-square-report {out}/chi.json", check_conditioned),
    ("exact-u-field", "exact u-field --n 2 --dim 2 --out {out}/u.csv", check_u_field),
    ("exact-survival-geometric50", "exact survival --offspring geometric:50 --n 10000 "
     "--out {out}/survival.json", check_survival),
    ("exact-supersolution-verify", "exact supersolution-verify --kappa 1.3e7 "
     "--out {out}/supersolution.json", check_supersolution),
    ("report", "report --input {out}/runs.jsonl --out {out}/aggregate.csv", check_report),
)
STOCHASTIC = {"simulate", "spine", "conditioned"}


def cli_ops(seed: int, out: str) -> list[Op]:
    from brwlab import cli

    ops = []
    for name, template, check_outputs in CLI_COMMANDS:
        argv = template.format(out=out).split()
        if argv[0] in STOCHASTIC:
            argv += ["--seed", str(seed)]
        reps = int(argv[argv.index("--reps") + 1]) if "--reps" in argv else None
        paths = [a for prev, a in zip(argv, argv[1:]) if prev in ("--out", "--chi-square-report")]

        def check(rc, check_outputs=check_outputs, reps=reps, paths=paths):
            problems = [] if rc == 0 else [f"exit code {rc}"]
            problems += check_outputs(paths, reps)
            chunks = []
            for path in paths:
                with open(path, "rb") as fh:
                    chunks.append(fh.read())
            return problems, _digest(chunks)
        ops.append(Op(f"cli.{name}", lambda argv=argv: cli.main(argv), check))
    return ops


def build(workload: str, seed: int, out: str) -> list[Op]:
    if kind(workload) == "verify":
        return verify_ops(workload, seed)
    os.makedirs(out, exist_ok=True)
    return cli_ops(seed, out)
