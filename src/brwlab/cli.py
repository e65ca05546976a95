"""Command-line surface.

Subcommands: simulate | spine | exact | conditioned | verify | report.

Reproducibility contract: every stochastic command requires --seed, and
`exact`, which draws nothing, takes none.  `simulate`, `spine` and
`conditioned` run replicates through one block runner, `_run_blocks`, in one
process: fixed blocks of BLOCK on the batched engines, in replicate order,
block b drawing from the substream (seed, stream id, b), so reruns are
byte-identical.  Primary outputs carry no timestamps; wall-clock metadata
goes to a `<out>.meta.json` sidecar.  Each `exact` kind takes only the flags
it reads.  A `--config` file may set only the command's (or the kind's)
parameter flags; any other key fails, naming it, and a boolean reads `true`
or `false`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from contextlib import contextmanager

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
_json_row = json.JSONEncoder(sort_keys=True).encode  # `json.dumps` builds one per row


# dests a config file cannot set: the command, the files it reads and writes,
# and what it runs
_NOT_PARAMETERS = {"command", "fn", "config", "out", "kind", "suite", "summary",
                   "chi_square_report"}


def load_config(args) -> dict[str, str]:
    """Flat key = value file (# starts a comment) at --config; every key must
    be a parameter flag of the subcommand."""
    cfg: dict[str, str] = {}
    if not args.config:
        return cfg
    with open(args.config) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"config line without '=': {line!r}")
            k, v = line.split("=", 1)
            cfg[k.strip()] = v.strip()
    unknown = sorted(set(cfg) - (set(vars(args)) - _NOT_PARAMETERS))
    if unknown:
        raise SystemExit(f"config key {unknown[0]!r} is not a parameter flag of {args.command}")
    return cfg


def resolve(args, cfg: dict, key: str, cast, default):
    """Precedence: explicit flag > config file > default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError as exc:
            raise SystemExit(f"config key {key} = {cfg[key]!r}: {exc}") from None
    return default


def _boolean(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("must be true or false")
    return text == "true"


def _seed(args, cfg: dict) -> int:
    seed = resolve(args, cfg, "seed", int, None)
    if seed is None:
        raise SystemExit("--seed is required for stochastic commands")
    return seed


@contextmanager
def _output(path: str | None):
    """The file at `path`, opened for writing, or stdout (left open) for none or '-'."""
    if not path or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


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


def _run_blocks(args, resolved: dict, stream: str, block) -> None:
    """Call block(rng, first replicate, count), which returns the block's
    JSONL lines, on each block of BLOCK replicates that covers
    resolved["reps"], in order, block b drawing from substream(seed, stream,
    b); then write every line to --out, and the sidecar."""
    seed, reps = resolved["seed"], resolved["reps"]
    blocks = [block(substream(seed, stream, b), first, min(BLOCK, reps - first))
              for b, first in enumerate(range(0, reps, BLOCK))]
    with _output(args.out) as out:
        for lines in blocks:
            for line in lines:
                out.write(line + "\n")
    _write_sidecar(args.out, resolved)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cfg = load_config(args)
    n = _check_range(resolve(args, cfg, "n", int, 32), "--n", 0)
    d = _check_range(resolve(args, cfg, "dim", int, 2), "--dim", 1, 3)
    spec = resolve(args, cfg, "offspring", str, "binary")
    reps = _check_range(resolve(args, cfg, "reps", int, 10), "--reps", 1)
    conditioned = resolve(args, cfg, "conditioned", _boolean, False)
    seed = _seed(args, cfg)
    resolved = {"command": "simulate", "n": n, "dim": d, "offspring": spec,
                "reps": reps, "seed": seed, "conditioned": conditioned}
    dist = _offspring(spec)
    survival = xf.survival_sequence(dist, n) if conditioned else None

    def block(rng, first, count):
        if survival is None:
            stats = fw.run_batch(dist, n, d, count, rng, want_typical=True)
        else:
            stats = fw.run_conditioned_batch(dist, n, d, count, rng, survival, want_typical=True)
            # the free runs rejection would have needed per survivor, from its exact law
            attempts = rng.geometric(survival[n], size=count)
        lines = []
        for i in range(count):
            kw = {} if survival is None else {"conditioned": True, "attempts": int(attempts[i])}
            lines.append(_json_row(stats.row(i, n, rep=first + i, seed=seed, **kw)))
        return lines

    _run_blocks(args, resolved, "conditioned-sim" if conditioned else "simulate", block)
    return 0


# ---------------------------------------------------------------------------
# spine


def cmd_spine(args) -> int:
    cfg = load_config(args)
    n = _check_range(resolve(args, cfg, "n", int, 64), "--n", 2)
    reps = _check_range(resolve(args, cfg, "reps", int, 10), "--reps", 1)
    ell = resolve(args, cfg, "ell", float, None)
    if ell is not None:
        _check_range(ell, "--ell", 0)
    seed = _seed(args, cfg)
    resolved = {"command": "spine", "n": n, "reps": reps, "seed": seed,
                "ell": ell, "dim": 2, "offspring": "binary"}

    def block(rng, first, count):
        out = sp.spine_typical_batch(n, count, rng, 2, ell=0 if ell is None else ell)
        split = sp.gamma_split(out)
        lines = []
        for i in range(count):
            row = {
                "rep": first + i, "n": n, "seed": seed,
                "Tstar": int(out["Tstar"][i]),
                "Gamma": float(split["Gamma"][i]),
                "Delta": float(split["Delta"][i]),
                "clamp_miss_count": int(split["clamp_misses"][i]),
            }
            if ell is not None:
                row["W"] = int(out["W"][i])
                row["ell"] = ell
            lines.append(_json_row(row))
        return lines

    _run_blocks(args, resolved, "spine", block)
    return 0


# ---------------------------------------------------------------------------
# exact


# the flags each kind reads, which its sidecar records, in the order they are checked
_EXACT_KINDS = {
    "p-field": ("n", "dim", "clamp"),
    "u-field": ("n", "dim", "offspring", "clamp"),
    "mgf-field": ("n", "dim", "offspring", "theta", "clamp"),
    "h-field": ("n", "dim", "offspring", "theta", "clamp"),
    "m2-field": ("n", "dim", "offspring", "clamp"),
    "survival": ("n", "offspring"),
    "mean-occupied": ("n", "dim", "offspring", "clamp"),
    "gamma": ("n", "dim"),
    "supersolution-verify": ("kappa", "n0"),
}
# flag: (type, default, range for `_check_range` or None); a None value is not checked
_EXACT_FLAGS = {"n": (int, 8, (0,)), "dim": (int, 2, (1, 3)), "offspring": (str, "binary", None),
                "theta": (float, 0.05, (0,)), "clamp": (int, None, (1,)),
                "kappa": (float, xf.KAPPA0, ()), "n0": (int, None, (2,))}


def cmd_exact(args) -> int:
    cfg = load_config(args)
    kind = args.kind
    resolved = {"command": "exact", "kind": kind}
    for flag in _EXACT_KINDS[kind]:
        cast, default, bounds = _EXACT_FLAGS[flag]
        value = resolved[flag] = resolve(args, cfg, flag, cast, default)
        if value is not None and bounds is not None:
            _check_range(value, f"--{flag}", *bounds)
    if kind == "supersolution-verify" and resolved["n0"] is None:
        resolved["n0"] = xf.find_supersolution_start(resolved["kappa"])
    n, d, spec, theta, clamp = (resolved.get(flag)
                                for flag in ("n", "dim", "offspring", "theta", "clamp"))
    dist = None if spec is None else _offspring(spec)
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
        result = {"n": n, "exact_mean_gamma": float(sp.exact_mean_gamma(n, d)[-1])}
    else:  # supersolution-verify
        n0 = resolved["n0"]
        result = xf.verify_supersolution(xf.SuperSolutionParams(resolved["kappa"]),
                                         range(n0, 4 * n0 + 1))
    with _output(args.out) as out:
        if isinstance(result, dict):
            json.dump(result, out, sort_keys=True)
            out.write("\n")
        else:
            field_to_csv(result, n, out)
    _write_sidecar(args.out, resolved)
    return 0


# ---------------------------------------------------------------------------
# conditioned


def cmd_conditioned(args) -> int:
    cfg = load_config(args)
    n = _check_range(resolve(args, cfg, "n", int, 2), "--n", 1, fw.COORD_OFF - 1)
    reps = _check_range(resolve(args, cfg, "reps", int, 100), "--reps", 1)
    seed = _seed(args, cfg)
    raw_x = resolve(args, cfg, "x", str, "1,0")
    try:
        x = tuple(int(c) for c in raw_x.split(","))
    except ValueError:
        raise SystemExit(f"--x must be comma-separated integers, got {raw_x!r}") from None
    _check_range(len(x), "--x dimension", 1, 3)
    resolved = {"command": "conditioned", "n": n, "x": ",".join(map(str, x)),
                "reps": reps, "seed": seed}
    sampler = cr.ConditionedSampler(n, x)
    drawn = []  # each block's values, for the chi-square report

    def block(rng, first, count):
        values, paths = sampler.sample(count, rng)
        drawn.append(values)
        checksums = (np.arange(1, n + 2)[:, None] * np.abs(paths)).sum(axis=(1, 2)) % (1 << 31)
        return [_json_row({"n": n, "x": list(x), "rep": first + i, "value": int(values[i]),
                           "path_len_checksum": int(checksums[i])})
                for i in range(count)]

    _run_blocks(args, resolved, "conditioned-rep", block)
    if args.chi_square_report:
        pf = xf.pmf_oracle(parse_offspring("binary"), n, len(x), degree=64)
        cond = pf.conditional_pmf_at(x)
        obs = np.bincount(np.concatenate(drawn), minlength=len(cond) + 1)[1:]
        chi = st.chi_square(obs, cond)
        with open(args.chi_square_report, "w") as fh:
            json.dump({"n": n, "x": list(x), "reps": reps, **chi}, fh, sort_keys=True)
    return 0


# ---------------------------------------------------------------------------
# verify / report


def cmd_verify(args) -> int:
    seed = _seed(args, load_config(args))
    names = list(vf.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in vf.SUITES:
            raise SystemExit(f"unknown suite {name!r}; choose from {sorted(vf.SUITES)}")
    rows, per_suite = vf.run_suites(names, seed, echo=print)
    resolved = {"command": "verify", "suite": ",".join(names), "seed": seed}
    with _output(args.out) as out:
        st.write_report_csv(rows, out, header_lines=[_provenance(resolved)])
    _write_sidecar(args.out, {**resolved, **per_suite})
    summary = st.summary_dict(rows)
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=1)
    return 0 if summary["hard_pass"] else 1


def cmd_report(args) -> int:
    with open(args.input) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if not rows:
        raise SystemExit("empty input")
    # over all rows: a key that is null in the first row (T of an extinct run) stays
    numeric = {k for r in rows for k, v in r.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)
               and k not in ("rep", "seed")}
    with _output(args.out) as out:
        out.write("statistic,mean,std_error,reps,q10,q50,q90\n")
        for k in sorted(numeric):
            vals = np.array([r[k] for r in rows if r.get(k) is not None], dtype=np.float64)
            if len(vals) < 2:
                continue
            e = st.EstimateCI.from_samples(vals)
            out.write(f"{k},{e.mean!r},{e.std_error!r},{e.reps},{e.q10!r},{e.q50!r},{e.q90!r}\n")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing does not change it,
    and argparse makes a help formatter for every argument it adds."""
    p = argparse.ArgumentParser(prog="brwlab",
                                description="critical branching random walk laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q, seed=True):
        q.add_argument("--config", help="flat key=value config file")
        if seed:
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
    kinds = q.add_subparsers(dest="kind", required=True)
    for kind, flags in _EXACT_KINDS.items():
        k = kinds.add_parser(kind)
        common(k, seed=False)
        for flag in flags:
            k.add_argument(f"--{flag}", type=_EXACT_FLAGS[flag][0])
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
    q.add_argument("--summary", help="write a pass/fail summary JSON here")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("report", help="aggregate a JSONL file into a stats CSV")
    q.add_argument("--input", required=True)
    q.add_argument("--out", default="-")
    q.set_defaults(fn=cmd_report)
    # each leaf parser names itself, so that an unknown flag is reported with
    # its usage line (a subcommand's default overrides its parent's)
    for q in [*sub.choices.values(), *kinds.choices.values()]:
        q.set_defaults(parser=q)
    return p


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    leaf = vars(args).pop("parser")
    if unknown:
        leaf.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return status
    except (ValueError, xf.MgfBlowupError) as exc:  # bad input found past the flag checks
        raise SystemExit(f"brwlab {args.command}: {exc}") from None
    except BrokenPipeError:  # nothing more reaches the reader; the exit flush must not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(f"brwlab {args.command}: output closed early (broken pipe)") from None


if __name__ == "__main__":
    sys.exit(main())
