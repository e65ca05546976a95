"""Command-line surface.

Subcommands: simulate | spine | exact | conditioned | verify | report.

Reproducibility contract: every stochastic command requires --seed, and
`exact`, which draws nothing, takes none.  `simulate`, `spine` and
`conditioned` run replicates through one block runner, `_run_blocks`, in one
process: fixed blocks of BLOCK on the batched engines, in replicate order,
block b drawing from the substream (seed, stream id, b), so reruns are
byte-identical.  Primary outputs carry no timestamps; wall-clock metadata
goes to a `<out>.meta.json` sidecar.  One table, `_PARAMETERS`, declares
each command's (and each `exact` kind's) parameter flags with their
defaults, and `_FLAGS` their casts and ranges: the parser takes exactly those
flags, a `--config` file may set exactly those keys (any other fails, naming
it; a boolean reads `true` or `false`), `_resolve` range-checks every value
before any work and the sidecar records them.
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


def _boolean(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("must be true or false")
    return text == "true"


def _site(text: str) -> tuple[int, ...]:
    """A target site such as `1,0`: one to three comma-separated integers."""
    try:
        x = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ValueError(f"must be comma-separated integers, got {text!r}") from None
    if not 1 <= len(x) <= 3:
        raise ValueError(f"dimension must be in [1, 3], got {len(x)}")
    return x


# flag: (cast, range); a range is (lo,) or (lo, hi) for `_check_range`, () for
# finite only, or None for no check
_FLAGS = {"n": (int, (0,)), "dim": (int, (1, 3)), "offspring": (str, None),
          "reps": (int, (1,)), "conditioned": (_boolean, None), "seed": (int, None),
          "ell": (float, (0,)), "x": (_site, None), "theta": (float, (0,)),
          "clamp": (int, (1,)), "kappa": (float, ()), "n0": (int, (2,))}
_FIELD = {"n": 8, "dim": 2, "offspring": "binary", "clamp": None}
_MGF = {"n": 8, "dim": 2, "offspring": "binary", "theta": 0.05, "clamp": None}
# command (or exact kind): {flag: default, or (default, range) where the range
# overrides the flag's}, in the order the values are checked.  These are the
# flags its parser takes, the keys its config file may set and the values its
# sidecar records; a command that lists seed requires it.
_PARAMETERS = {
    "simulate": {"n": 32, "dim": 2, "offspring": "binary", "reps": 10, "conditioned": False,
                 "seed": None},
    "spine": {"n": (64, (2,)), "reps": 10, "ell": None, "seed": None},
    "conditioned": {"n": (2, (1, fw.COORD_OFF - 1)), "reps": 100, "seed": None, "x": "1,0"},
    "verify": {"seed": None},
    "exact": {"p-field": {"n": 8, "dim": 2, "clamp": None}, "u-field": _FIELD, "mgf-field": _MGF,
              "h-field": {**_MGF, "n": (8, (1,))},  # H_n is defined from n = 1
              "m2-field": _FIELD, "survival": {"n": 8, "offspring": "binary"},
              "mean-occupied": _FIELD, "gamma": {"n": 8, "dim": 2},
              "supersolution-verify": {"kappa": xf.KAPPA0, "n0": None}},
}


def _parameters(args) -> dict:
    """The table's {flag: default} of the command (or exact kind) parsed into args."""
    table = _PARAMETERS[args.command]
    return table[args.kind] if args.command == "exact" else table


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
    unknown = sorted(set(cfg) - set(_parameters(args)))
    if unknown:
        raise SystemExit(f"config key {unknown[0]!r} is not a parameter flag of {args.command}")
    return cfg


def _resolve(args) -> dict:
    """The command's parameters, which its sidecar records: each value from
    its flag, else the config file, else the table's default (precedence flag
    > config > default), cast if it is still text and range-checked in table
    order; a listed --seed must be given."""
    cfg = load_config(args)
    resolved = {k: v for k, v in vars(args).items() if k in ("command", "kind")}
    for flag, entry in _parameters(args).items():
        cast, bounds = _FLAGS[flag]
        default, bounds = entry if isinstance(entry, tuple) else (entry, bounds)
        value, where = getattr(args, flag), f"--{flag}"
        if value is None and flag in cfg:
            value, where = cfg[flag], f"config key {flag} = {cfg[flag]!r}:"
        elif value is None:
            value = default
        if isinstance(value, str):
            try:
                value = cast(value)
            except ValueError as exc:
                raise SystemExit(f"{where} {exc}") from None
        if value is None and flag == "seed":
            raise SystemExit("--seed is required for stochastic commands")
        if value is not None and bounds is not None:
            _check_range(value, f"--{flag}", *bounds)
        resolved[flag] = value
    return resolved


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
    with open(path + ".meta.json", "w") as fh:
        json.dump({**resolved, "written_at_unix": time.time()}, fh, sort_keys=True, indent=1)


def _check_range(value, flag: str, lo=-math.inf, hi=math.inf):
    """Fail fast, naming the flag, unless value is finite and lo <= value <= hi
    (written so that NaN fails every comparison)."""
    if not (lo <= value <= hi and abs(value) < math.inf):
        bound = ("finite" if lo == -math.inf else f">= {lo}" if hi == math.inf
                 else f"in [{lo}, {hi}]")
        if isinstance(value, float) and lo > -math.inf:
            bound = f"finite and {bound}"
        raise SystemExit(f"{flag} must be {bound}, got {value}")


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
        out.writelines(line + "\n" for lines in blocks for line in lines)
    _write_sidecar(args.out, resolved)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    resolved = _resolve(args)
    n, d, seed, conditioned = (resolved[k] for k in ("n", "dim", "seed", "conditioned"))
    dist = _offspring(resolved["offspring"])
    survival = xf.survival_sequence(dist, n) if conditioned else None

    def block(rng, first, count):
        stats = fw.run_batch(dist, n, d, count, rng, survival)
        if survival is not None:
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
    resolved = _resolve(args)
    n, ell, seed = resolved["n"], resolved["ell"], resolved["seed"]

    def block(rng, first, count):
        out = sp.spine_typical_batch(n, count, rng, 2, ell=0 if ell is None else ell)
        split = sp.gamma_split(out)
        lines = []
        for i in range(count):
            row = {"rep": first + i, "n": n, "seed": seed, "Tstar": int(out["Tstar"][i]),
                   "Gamma": float(split["Gamma"][i]), "Delta": float(split["Delta"][i]),
                   "clamp_miss_count": int(split["clamp_misses"][i])}
            if ell is not None:
                row["W"] = int(out["W"][i])
                row["ell"] = ell
            lines.append(_json_row(row))
        return lines

    _run_blocks(args, resolved, "spine", block)
    return 0


# ---------------------------------------------------------------------------
# exact


def cmd_exact(args) -> int:
    resolved = _resolve(args)
    kind = args.kind
    n, d, spec, theta, clamp = map(resolved.get, ("n", "dim", "offspring", "theta", "clamp"))
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
        s_n = float(xf.survival_sequence(dist, n)[n])
        result = {"n": n, "offspring": spec, "survival": s_n, "n_times_survival": n * s_n}
    elif kind == "mean-occupied":
        total, tail = xf.mean_occupied(dist, n, d, clamp=clamp)
        result = {"n": n, "dim": d, "offspring": spec, "mean_occupied": total,
                  "tail_bound": tail}
    elif kind == "gamma":
        result = {"n": n, "exact_mean_gamma": float(sp.exact_mean_gamma(n, d)[-1])}
    else:  # supersolution-verify; the start search gives --n0's default
        n0 = resolved["n0"] = resolved["n0"] or xf.find_supersolution_start(resolved["kappa"])
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
    resolved = _resolve(args)
    n, x = resolved["n"], resolved["x"]
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
            json.dump({"n": n, "x": list(x), "reps": resolved["reps"], **chi}, fh, sort_keys=True)
    return 0


# ---------------------------------------------------------------------------
# verify / report


def cmd_verify(args) -> int:
    resolved = _resolve(args)
    names = list(vf.SUITES) if args.suite == "all" else [args.suite]
    if not set(names) <= set(vf.SUITES):
        raise SystemExit(f"unknown suite {args.suite!r}; choose from {sorted(vf.SUITES)}")
    rows, per_suite = vf.run_suites(names, resolved["seed"], echo=print)
    resolved["suite"] = ",".join(names)
    with _output(args.out) as out:
        provenance = " ".join(f"{k}={resolved[k]}" for k in sorted(resolved))
        st.write_report_csv(rows, out, header_lines=[provenance])
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

    def parameters(q, table):
        """--config, --out and the table's parameter flags; a text cast (--x)
        runs in `_resolve`, where a failure names the flag."""
        q.add_argument("--config", help="flat key=value config file")
        q.add_argument("--out", help="output path ('-' for stdout)", default="-")
        for flag in table:
            cast = _FLAGS[flag][0]
            if cast is _boolean:
                q.add_argument(f"--{flag}", action="store_const", const=True)
            else:
                q.add_argument(f"--{flag}", type=cast if cast in (int, float) else None)

    for name, fn, text in (("simulate", cmd_simulate, "forward occupancy runs (JSONL)"),
                           ("spine", cmd_spine, "size-biased spine samples (JSONL)"),
                           ("exact", cmd_exact, "deterministic fields and scalars"),
                           ("conditioned", cmd_conditioned, "conditional single-site law (JSONL)"),
                           ("verify", cmd_verify, "run verification suites")):
        q = sub.add_parser(name, help=text)
        q.set_defaults(fn=fn)
        if name != "exact":
            parameters(q, _PARAMETERS[name])
    kinds = sub.choices["exact"].add_subparsers(dest="kind", required=True)
    for kind, table in _PARAMETERS["exact"].items():
        parameters(kinds.add_parser(kind), table)
    sub.choices["conditioned"].add_argument(
        "--chi-square-report", help="write a chi-square JSON report here")
    sub.choices["verify"].add_argument("--suite", default="all")
    sub.choices["verify"].add_argument("--summary", help="write a pass/fail summary JSON here")

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
