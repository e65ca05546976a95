"""Command-line surface.

Subcommands: simulate | spine | exact | conditioned | verify | report.

Reproducibility contract: every stochastic command requires --seed.
`simulate`, `spine` and `conditioned` run replicates in fixed blocks of BLOCK
on the batched engines, block b drawing from the substream (seed, stream id,
b).  Outputs are sorted by replicate index, so reruns are byte-identical and
independent of the worker count (BRW_THREADS, a positive integer; the pool
never has more workers than blocks).  Primary outputs carry no timestamps;
wall-clock metadata goes to a `<out>.meta.json` sidecar.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import conditioned as cr
from . import exactfields as xf
from . import forward as fw
from . import spine as sp
from . import stats as st
from . import verify as vf
from .lattice import field_to_csv, transition_field
from .offspring import parse_offspring
from .rngstreams import substream

BLOCK = 256  # replicates per block (and per substream) in every stochastic command


def load_config(path: str | None) -> dict[str, str]:
    """Flat key = value file; # starts a comment."""
    cfg: dict[str, str] = {}
    if not path:
        return cfg
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"config line without '=': {line!r}")
            k, v = line.split("=", 1)
            cfg[k.strip()] = v.strip()
    return cfg


def resolve(args, cfg: dict, key: str, cast, default):
    """Precedence: explicit flag > config file > default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        return cast(cfg[key])
    return default


def _open_out(path: str | None):
    return open(path, "w") if path and path != "-" else sys.stdout


def _write_sidecar(path: str | None, resolved: dict) -> None:
    if not path or path == "-":
        return
    meta = dict(resolved)
    meta["written_at_unix"] = time.time()
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)


def _provenance(resolved: dict) -> str:
    return " ".join(f"{k}={resolved[k]}" for k in sorted(resolved))


def _check_range(value, flag: str, lo=-math.inf, hi=math.inf):
    """Fail fast, naming the flag, unless value is finite and lo <= value <= hi
    (written so that NaN fails every comparison)."""
    if not (lo <= value <= hi and abs(value) < math.inf):
        bound = ("finite" if lo == -math.inf else f">= {lo}" if hi == math.inf
                 else f"in [{lo}, {hi}]")
        if isinstance(value, float) and lo > -math.inf:
            bound = f"finite and {bound}"
        raise SystemExit(f"{flag} must be {bound}, got {value}")
    return value


def _offspring(spec: str):
    """parse_offspring, naming the flag when the spec is rejected."""
    try:
        return parse_offspring(spec)
    except ValueError as exc:
        raise ValueError(f"--offspring {spec}: {exc}") from None


def _workers() -> int:
    raw = os.environ.get("BRW_THREADS", "1")
    try:
        w = int(raw)
    except ValueError:
        w = 0
    if w < 1:
        raise SystemExit(f"BRW_THREADS must be a positive integer, got {raw!r}")
    return w


# ---------------------------------------------------------------------------
# simulate


def _blocks(reps: int) -> list[tuple[int, int, int]]:
    """(block index, first replicate, replicate count) covering 0..reps-1."""
    return [(b, first, min(BLOCK, reps - first))
            for b, first in enumerate(range(0, reps, BLOCK))]


def _simulate_block(task):
    seed, block, first, count, spec, n, d, survival = task
    dist = _offspring(spec)
    if survival is None:
        stats = fw.run_batch(dist, n, d, count, substream(seed, "simulate", block),
                             want_typical=True)
    else:
        rng = substream(seed, "conditioned-sim", block)
        stats = fw.run_conditioned_batch(dist, n, d, count, rng, survival, want_typical=True)
        # the free runs rejection would have needed per survivor, from its exact law
        attempts = rng.geometric(survival[n], size=count)
    lines = []
    for i in range(count):
        kw = {} if survival is None else {"conditioned": True, "attempts": int(attempts[i])}
        row = stats.genstats(i, n, rep=first + i, seed=seed, **kw).to_json_dict()
        lines.append(json.dumps(row, sort_keys=True))
    return lines


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    n = _check_range(resolve(args, cfg, "n", int, 32), "--n", 0)
    d = _check_range(resolve(args, cfg, "dim", int, 2), "--dim", 1, 3)
    spec = resolve(args, cfg, "offspring", str, "binary")
    reps = _check_range(resolve(args, cfg, "reps", int, 10), "--reps", 1)
    seed = resolve(args, cfg, "seed", int, None)
    conditioned = bool(resolve(args, cfg, "conditioned", lambda s: s == "true", False))
    if seed is None:
        raise SystemExit("--seed is required for stochastic commands")
    resolved = {"command": "simulate", "n": n, "dim": d, "offspring": spec,
                "reps": reps, "seed": seed, "conditioned": conditioned}
    survival = xf.survival_sequence(_offspring(spec), n) if conditioned else None
    tasks = [(seed, *blk, spec, n, d, survival) for blk in _blocks(reps)]
    _write_blocks(args.out, _parallel_map(_simulate_block, tasks))
    _write_sidecar(args.out, resolved)
    return 0


def _write_blocks(path: str | None, blocks) -> None:
    out = _open_out(path)
    for lines in blocks:
        for line in lines:
            out.write(line + "\n")
    if out is not sys.stdout:
        out.close()


def _parallel_map(fn, tasks):
    w = min(_workers(), len(tasks))
    if w == 1 or len(tasks) < 4:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * w))))


# ---------------------------------------------------------------------------
# spine


def _spine_block(task):
    seed, block, first, count, n, d, ell = task
    rng = substream(seed, "spine", block)
    out = sp.spine_typical_batch(n, count, rng, d)
    w = sp.spine_ball_batch(n, ell, count, rng, d)["W"] if ell is not None else None
    lines = []
    for i in range(count):
        row = {
            "rep": first + i, "n": n, "seed": seed,
            "Tstar": int(out["Tstar"][i]),
            "Gamma": float(out["Gamma"][i]),
            "Delta": float(out["Delta"][i]),
            "clamp_miss_count": int(out["clamp_misses"][i]),
        }
        if w is not None:
            row["W"] = int(w[i])
            row["ell"] = ell
        lines.append(json.dumps(row, sort_keys=True))
    return lines


def cmd_spine(args) -> int:
    cfg = load_config(args.config)
    n = _check_range(resolve(args, cfg, "n", int, 64), "--n", 2)
    reps = _check_range(resolve(args, cfg, "reps", int, 10), "--reps", 1)
    seed = resolve(args, cfg, "seed", int, None)
    ell = resolve(args, cfg, "ell", float, None)
    if ell is not None:
        _check_range(ell, "--ell", 1)
    if seed is None:
        raise SystemExit("--seed is required for stochastic commands")
    resolved = {"command": "spine", "n": n, "reps": reps, "seed": seed,
                "ell": ell, "dim": 2, "offspring": "binary"}
    tasks = [(seed, *blk, n, 2, ell) for blk in _blocks(reps)]
    _write_blocks(args.out, _parallel_map(_spine_block, tasks))
    _write_sidecar(args.out, resolved)
    return 0


# ---------------------------------------------------------------------------
# exact


def cmd_exact(args) -> int:
    cfg = load_config(args.config)
    kind = args.kind
    n = _check_range(resolve(args, cfg, "n", int, 8), "--n", 0)
    d = _check_range(resolve(args, cfg, "dim", int, 2), "--dim", 1, 3)
    spec = resolve(args, cfg, "offspring", str, "binary")
    theta = _check_range(resolve(args, cfg, "theta", float, 0.05), "--theta", 0)
    clamp = resolve(args, cfg, "clamp", int, None)
    if clamp is not None:
        _check_range(clamp, "--clamp", 1)
    dist = _offspring(spec)
    resolved = {"command": "exact", "kind": kind, "n": n, "dim": d,
                "offspring": spec, "theta": theta, "clamp": clamp}
    # a field or a JSON document, computed before --out is opened so that a
    # failure leaves no file behind
    if kind == "p-field":
        result = transition_field(n, d, clamp=clamp)
    elif kind == "u-field":
        result = xf.hitting_field(dist, n, d, clamp=clamp)
    elif kind == "mgf-field":
        result = xf.mgf_field(dist, n, theta, d, clamp=clamp)
    elif kind == "h-field":
        result = xf.dominating_field(dist, n, theta, d, clamp=clamp)
    elif kind == "m2-field":
        result = xf.second_moment_field(dist, n, d, clamp=clamp)
    elif kind == "survival":
        s_n = xf.survival_prob(dist, n)
        result = {"n": n, "offspring": spec, "survival": s_n, "n_times_survival": n * s_n}
    elif kind == "mean-occupied":
        total, tail = xf.mean_occupied(dist, n, d, clamp=clamp)
        result = {"n": n, "dim": d, "offspring": spec, "mean_occupied": total,
                  "tail_bound": tail}
    elif kind == "gamma":
        result = {"n": n, "exact_mean_gamma": sp.exact_mean_gamma(n, d)}
    elif kind == "supersolution-verify":
        kappa = _check_range(resolve(args, cfg, "kappa", float, xf.KAPPA0), "--kappa")
        n0 = resolve(args, cfg, "n0", int, None)
        if n0 is None:
            n0 = xf.find_supersolution_start(kappa)
        result = xf.verify_supersolution(xf.SuperSolutionParams(kappa),
                                         range(n0, 4 * n0 + 1))
    else:
        raise SystemExit(f"unknown exact kind {kind!r}")
    out = _open_out(args.out)
    if isinstance(result, dict):
        json.dump(result, out, sort_keys=True)
        out.write("\n")
    else:
        field_to_csv(result, n, out)
    if out is not sys.stdout:
        out.close()
    _write_sidecar(args.out, resolved)
    return 0


# ---------------------------------------------------------------------------
# conditioned


def _conditioned_block(task):
    seed, block, first, count, n, x = task
    rng = substream(seed, "conditioned-rep", block)
    values, paths = cr.ConditionedSampler(n, x).sample(count, rng)
    checksums = (np.arange(1, n + 2)[:, None] * np.abs(paths)).sum(axis=(1, 2)) % (1 << 31)
    lines = [json.dumps({"n": n, "x": list(x), "rep": first + i, "value": int(values[i]),
                         "path_len_checksum": int(checksums[i])}, sort_keys=True)
             for i in range(count)]
    return lines, values


def cmd_conditioned(args) -> int:
    cfg = load_config(args.config)
    n = _check_range(resolve(args, cfg, "n", int, 2), "--n", 1, fw.COORD_OFF - 1)
    reps = _check_range(resolve(args, cfg, "reps", int, 100), "--reps", 1)
    seed = resolve(args, cfg, "seed", int, None)
    if seed is None:
        raise SystemExit("--seed is required for stochastic commands")
    raw_x = resolve(args, cfg, "x", str, "1,0")
    try:
        x = tuple(int(c) for c in raw_x.split(","))
    except ValueError:
        raise SystemExit(f"--x must be comma-separated integers, got {raw_x!r}") from None
    _check_range(len(x), "--x dimension", 1, 3)
    blocks = _parallel_map(_conditioned_block, [(seed, *blk, n, x) for blk in _blocks(reps)])
    _write_blocks(args.out, [lines for lines, _ in blocks])
    resolved = {"command": "conditioned", "n": n, "x": ",".join(map(str, x)),
                "reps": reps, "seed": seed}
    _write_sidecar(args.out, resolved)
    if args.chi_square_report:
        pf = xf.pmf_oracle(parse_offspring("binary"), n, len(x), degree=64)
        cond = pf.conditional_pmf_at(x)
        values = np.concatenate([v for _, v in blocks])
        obs = np.bincount(values, minlength=len(cond) + 1)[1:]
        chi = st.chi_square(obs, cond)
        with open(args.chi_square_report, "w") as fh:
            json.dump({"n": n, "x": list(x), "reps": reps, **chi}, fh, sort_keys=True)
    return 0


# ---------------------------------------------------------------------------
# verify / report


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    seed = resolve(args, cfg, "seed", int, None)
    if seed is None:
        raise SystemExit("--seed is required for stochastic commands")
    budget = resolve(args, cfg, "budget", float, None)
    if budget is not None:
        _check_range(budget, "--budget", 0)
    names = list(vf.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in vf.SUITES:
            raise SystemExit(f"unknown suite {name!r}; choose from {sorted(vf.SUITES)}")
    rows, suite_seconds = vf.run_suites(names, seed, budget_seconds=budget, echo=print)
    resolved = {"command": "verify", "suite": ",".join(names), "seed": seed,
                "budget": budget}
    out = _open_out(args.out)
    st.write_report_csv(rows, out, header_lines=[_provenance(resolved)])
    if out is not sys.stdout:
        out.close()
    _write_sidecar(args.out, {**resolved, "suite_seconds": suite_seconds})
    summary = st.summary_dict(rows)
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=1)
    return 0 if summary["hard_pass"] else 1


def cmd_report(args) -> int:
    rows = []
    with open(args.input) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    if not rows:
        raise SystemExit("empty input")
    numeric = [k for k, v in rows[0].items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)
               and k not in ("rep", "seed")]
    out = _open_out(args.out)
    out.write("statistic,mean,std_error,reps,q10,q50,q90\n")
    for k in sorted(numeric):
        vals = np.array([r[k] for r in rows if r.get(k) is not None], dtype=np.float64)
        if len(vals) < 2:
            continue
        e = st.EstimateCI.from_samples(vals)
        out.write(f"{k},{e.mean!r},{e.std_error!r},{e.reps},{e.q10!r},{e.q50!r},{e.q90!r}\n")
    if out is not sys.stdout:
        out.close()
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="brwlab",
                                description="critical branching random walk laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--config", help="flat key=value config file")
        q.add_argument("--seed", type=int)
        q.add_argument("--out", help="output path ('-' for stdout)", default="-")

    q = sub.add_parser("simulate", help="forward occupancy runs (JSONL)")
    common(q)
    q.add_argument("--n", type=int)
    q.add_argument("--dim", type=int)
    q.add_argument("--offspring")
    q.add_argument("--reps", type=int)
    q.add_argument("--conditioned", action="store_const", const=True, default=None)
    q.set_defaults(fn=cmd_simulate)

    q = sub.add_parser("spine", help="size-biased spine samples (JSONL)")
    common(q)
    q.add_argument("--n", type=int)
    q.add_argument("--reps", type=int)
    q.add_argument("--ell", type=float)
    q.set_defaults(fn=cmd_spine)

    q = sub.add_parser("exact", help="deterministic fields and scalars")
    common(q)
    q.add_argument("kind", choices=["p-field", "u-field", "mgf-field", "h-field",
                                    "m2-field", "survival", "mean-occupied", "gamma",
                                    "supersolution-verify"])
    q.add_argument("--n", type=int)
    q.add_argument("--dim", type=int)
    q.add_argument("--offspring")
    q.add_argument("--theta", type=float)
    q.add_argument("--clamp", type=int)
    q.add_argument("--kappa", type=float)
    q.add_argument("--n0", type=int)
    q.set_defaults(fn=cmd_exact)

    q = sub.add_parser("conditioned", help="conditional single-site law (JSONL)")
    common(q)
    q.add_argument("--n", type=int)
    q.add_argument("--x")
    q.add_argument("--reps", type=int)
    q.add_argument("--chi-square-report", help="write a chi-square JSON report here")
    q.set_defaults(fn=cmd_conditioned)

    q = sub.add_parser("verify", help="run verification suites")
    common(q)
    q.add_argument("--suite", default="all")
    q.add_argument("--budget", type=float, help="wall-clock budget in seconds")
    q.add_argument("--summary", help="write a pass/fail summary JSON here")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("report", help="aggregate a JSONL file into a stats CSV")
    q.add_argument("--input", required=True)
    q.add_argument("--out", default="-")
    q.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, xf.MgfBlowupError) as exc:  # bad input found past the flag checks
        raise SystemExit(f"brwlab {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
