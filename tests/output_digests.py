"""Compare the primary outputs of two source trees, byte for byte.

    python3 tests/output_digests.py PARENT_TREE CHANGE_TREE

Runs, in a fresh interpreter per tree that imports that tree's `src/brwlab`:

* `brwlab verify --suite all --seed S` for S = 20240817 and 1, keeping the
  report CSV (`--out`) and the summary JSON (`--summary`);
* the README commands of `perfbench/workloads.py` `CLI_COMMANDS` (read from
  CHANGE_TREE), in order, the stochastic ones with `--seed 7`, keeping the
  files after `--out` and `--chi-square-report`.

Sidecars (`.meta.json`) carry wall-clock data and are not compared.  Prints
one line per output, its sha256 in each tree and `same` or `DIFFERS`, and
one line per command with its exit status in each tree.  Exit status 1 if an
output differs or is missing, or a command's exit status differs.

Not a test module (no `test_` prefix): pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VERIFY_SEEDS = (20240817, 1)
CLI_SEED = 7
STOCHASTIC = ("simulate", "spine", "conditioned")
OUTPUT_FLAGS = ("--out", "--chi-square-report", "--summary")

# runs each argv of a JSON list through cli.main and prints the exit statuses
_CHILD = """
import contextlib, io, json, sys
import brwlab
from brwlab.cli import main
status = []
for argv in json.loads(sys.argv[1]):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status.append(main(argv))
    except SystemExit as exc:
        status.append(exc.code if isinstance(exc.code, int) else 1)
print(json.dumps({"brwlab": brwlab.__file__, "status": status}))
"""


def cli_commands(tree: Path) -> list[tuple[str, str]]:
    """(name, argv template) of each README command in the tree's benchmark."""
    spec = importlib.util.spec_from_file_location("workloads", tree / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(name, template) for name, template, _ in mod.CLI_COMMANDS]


def commands(templates, out: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every run, its outputs under `out`."""
    runs = [(f"verify-seed{seed}",
             ["verify", "--suite", "all", "--seed", str(seed),
              "--out", str(out / f"report-{seed}.csv"),
              "--summary", str(out / f"summary-{seed}.json")])
            for seed in VERIFY_SEEDS]
    for name, template in templates:
        argv = template.format(out=out).split()
        if argv[0] in STOCHASTIC:
            argv += ["--seed", str(CLI_SEED)]
        runs.append((name, argv))
    return runs


def outputs(argv: list[str]) -> list[str]:
    return [a for prev, a in zip(argv, argv[1:]) if prev in OUTPUT_FLAGS]


def run_tree(tree: Path, templates, out: Path) -> dict:
    """Exit status of each run and sha256 of each output, from `tree`."""
    runs = commands(templates, out)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    # one interpreter per verify seed, one for the README commands in order
    k = len(VERIFY_SEEDS)
    groups = [[run] for run in runs[:k]] + [runs[k:]]
    status = {}
    for group in groups:
        proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps([a for _, a in group])],
                              cwd=tree, env=env, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{tree}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(result["brwlab"]).resolve().parents[1] != (tree / "src").resolve():
            raise RuntimeError(f"{tree}: imported {result['brwlab']}")
        status.update({name: s for (name, _), s in zip(group, result["status"])})
    digests = {}
    for name, argv in runs:
        for path in outputs(argv):
            key = f"{name}:{Path(path).name}"
            p = Path(path)
            digests[key] = hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
    return {"status": status, "digests": digests}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    templates = cli_commands(args.change)
    sides = {}
    for label, tree in (("parent", args.parent), ("change", args.change)):
        with tempfile.TemporaryDirectory(prefix=f"digests-{label}-") as out:
            sides[label] = run_tree(tree.resolve(), templates, Path(out))
    parent, change = sides["parent"], sides["change"]
    bad = 0
    for key in parent["digests"]:
        a, b = parent["digests"][key], change["digests"][key]
        same = a is not None and a == b
        bad += not same
        print(f"{key:45s} {a or 'missing':64s} {b or 'missing':64s} "
              f"{'same' if same else 'DIFFERS'}")
    for name in parent["status"]:
        a, b = parent["status"][name], change["status"][name]
        bad += a != b
        print(f"exit {name:40s} parent {a} change {b}{'' if a == b else '  DIFFERS'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
