"""brwlab benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload exact --seed 20240817 --seconds 15 --trace 0
    python3 perfbench/run.py                      # every workload, default seeds

Run it from the repository root or anywhere else; brwlab is imported from
`src/` next to this directory, not from an installed copy.  Every pass runs in
a fresh single process with BRW_THREADS unset (one worker).  The seed
defaults to 20240817 for the verify workloads and 7 for cli-readme.

--trace 0 (end-to-end): whole passes of the workload are run, each in its own
process, while the next one is predicted to end within --seconds (at least
one).  Set-up is timed from spawning a process until it can start its first
operation; extra set-up-only processes bring the set-up samples to three.
Reported as medians:
  wall_s       first operation start to the last operation's check, per pass
  setup_s      interpreter start, imports and input generation
  peak_rss_mb  peak resident set of a pass process
  pass_frac    operations passed / attempted, i.e. 1 - fail_frac (fail_frac
               is 0 when all is well, and a gated metric must never read 0)

--trace 1 (per layer): one untraced pass, one traced pass (spans written to
perfbench/.work/spans-<workload>-<seed>.json) and one process measuring the
per-unit kernel costs.  Reports per-operation times, per-module self time and
calls, evolve_particles self time by input size, rejection accept ratios,
spine/conditioned evolve counts, import times, unit costs and
trace.overhead_s (traced minus untraced wall time).

Correctness: each operation's output is checked (see workloads.py) and
hashed.  Hashes must agree between the passes of a run, between the traced
and untraced pass, and with earlier runs of the same source tree and seed
(kept in perfbench/.work/hashes.json, keyed by a hash of src/ and
workloads.py).  A mismatch counts as a failed operation.  No hash is stored
in the repository: a change to an engine's RNG call pattern legitimately
changes the outputs.

A verify suite judges Monte Carlo estimates with bands of a few standard
errors, so at an arbitrary seed a correct program fails one of its rows now
and then (a 3-SE row about once in 370 seeds).  When a suite's rows fail at
the run seed without an exception, the suite is run once more, untimed and in
a separate process, at a confirmation seed derived from the run seed.  The
operation fails only if the suite fails there too: a biased estimator, or an
exact row, fails at both seeds.  The first failure is still printed.

The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402  (stdlib only)

RUN_LIMIT_S = 170.0      # a run must end within 180 s
SETUP_SAMPLES = 3


# ---------------------------------------------------------------------------
# child processes


class Child:
    """Outcome of one worker process."""

    def __init__(self, doc, setup_s, elapsed_s, error):
        self.doc, self.setup_s, self.elapsed_s, self.error = doc, setup_s, elapsed_s, error


def _wait_ready(proc, deadline) -> bool:
    line = b""
    while not line.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            return False
        chunk = os.read(proc.stdout.fileno(), 64)
        if not chunk:
            return False
        line += chunk
    return line.strip() == b"READY"


def spawn(mode, workload, seed, deadline, trace=False, spans=None, only=None) -> Child:
    WORK.mkdir(parents=True, exist_ok=True)
    tag = WORK / f"{workload}-{seed}-{mode}-{os.getpid()}-{time.monotonic_ns()}"
    result, log = f"{tag}.json", f"{tag}.log"
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
            "--seed", str(seed), "--result", result]
    if trace:
        cmd += ["--trace", "--spans", str(spans)]
    if only:
        cmd += ["--only", ",".join(only)]
    env = {k: v for k, v in os.environ.items() if k != "BRW_THREADS"}
    setup_s, error = None, None
    t0 = time.perf_counter()
    with open(log, "w") as log_fh:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log_fh, cwd=ROOT, env=env)
        try:
            if _wait_ready(proc, deadline):
                setup_s = time.perf_counter() - t0
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            error = "timed out"
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    elapsed = time.perf_counter() - t0
    doc = None
    if error is None and proc.returncode == 0 and os.path.exists(result):
        with open(result) as fh:
            doc = json.load(fh)
    elif error is None:
        error = f"exit code {proc.returncode}"
    with open(log) as fh:
        log_text = fh.read()
    if doc is None:
        tail = "\n".join(log_text.strip().splitlines()[-5:])
        print(f"worker {mode} {workload} failed ({error}):\n{tail}", file=sys.stderr)
    elif trace:
        doc["importtime"] = log_text
    for path in (result, log):
        if os.path.exists(path):
            os.remove(path)
    return Child(doc, setup_s, elapsed, error)


# ---------------------------------------------------------------------------
# determinism


def source_id() -> str:
    """Hash of the program source and of the workload definitions (the inputs)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_against_earlier_runs(workload, seed, hashes: dict) -> list[str]:
    """Ops whose hash differs from an earlier run of this source tree and seed."""
    path = WORK / "hashes.json"
    code = source_id()
    store = {"source": code, "runs": {}}
    if path.exists():
        with open(path) as fh:
            loaded = json.load(fh)
        if loaded.get("source") == code:
            store = loaded
    key = f"{workload}:{seed}"
    earlier = store["runs"].setdefault(key, {})
    mismatched = [op for op, h in hashes.items()
                  if h is not None and earlier.get(op) not in (None, h)]
    for op, h in hashes.items():
        if h is not None:
            earlier.setdefault(op, h)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return mismatched


def confirmation_seed(seed: int) -> int:
    digest = hashlib.sha256(f"confirm:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def confirm(passes, workload, seed, deadline) -> set[str]:
    """Verify operations whose report rows failed at `seed` (no exception) but
    whose suite passes at the confirmation seed: false alarms of the suite's
    own statistical bands."""
    suspects = sorted({o["name"] for p in passes for o in (p.doc or {}).get("ops", [])
                       if not o["ok"] and not o.get("error")})
    if wl.kind(workload) != "verify" or not suspects:
        return set()
    cseed = confirmation_seed(seed)
    rerun = spawn("pass", workload, cseed, deadline, only=suspects)
    refuted = {o["name"] for o in (rerun.doc or {}).get("ops", []) if o["ok"]}
    for name in suspects:
        verdict = "passes: not counted as a failure" if name in refuted \
            else "fails too" if rerun.doc else f"did not finish ({rerun.error})"
        print(f"  confirm: {name} failed at seed {seed}; at seed {cseed} it {verdict}")
    return refuted


def score(passes, workload, seed, refuted=frozenset()):
    """(attempted, failed, per-op problem lines) over all passes; a pass that
    produced no result fails every operation.  Row failures of an operation in
    `refuted` are reported but not counted."""
    names = wl.op_names(workload)
    ok = {}          # (pass index, op) -> bool
    problems = []
    first_hash = {}
    for i, p in enumerate(passes):
        ops = {o["name"]: o for o in (p.doc or {}).get("ops", [])}
        for name in names:
            o = ops.get(name)
            if o is None:
                ok[i, name] = False
                problems.append(f"pass {i}: {name}: no result ({p.error})")
                continue
            unconfirmed = name in refuted and not o.get("error")
            ok[i, name] = o["ok"] or unconfirmed
            note = " (not confirmed)" if unconfirmed else ""
            problems += [f"pass {i}: {name}: {msg}{note}" for msg in o["problems"]]
            if o["hash"] is not None:
                if first_hash.setdefault(name, o["hash"]) != o["hash"]:
                    ok[i, name] = False
                    problems.append(f"pass {i}: {name}: output hash differs from pass 0")
    for name in check_against_earlier_runs(workload, seed, first_hash):
        problems.append(f"{name}: output hash differs from an earlier run of this source")
        for i in range(len(passes)):
            ok[i, name] = False
    failed = sum(1 for v in ok.values() if not v)
    return len(ok), failed, problems


# ---------------------------------------------------------------------------
# environment


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment(seed) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **caches,
            "BRW_THREADS": os.environ.get("BRW_THREADS", "unset") + " (unset for workers)",
            "seed": seed, "src_lines": lines}


# ---------------------------------------------------------------------------
# runs


def _m(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, deadline):
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn("pass", workload, seed, deadline))
        longest = max(p.elapsed_s for p in passes)
        now = time.monotonic()
        if passes[-1].doc is None or now - start + longest > seconds \
                or now + 1.5 * longest > deadline:
            break
    setups = [p.setup_s for p in passes if p.setup_s is not None]
    while len(setups) < SETUP_SAMPLES and time.monotonic() + 10 < deadline:
        probe = spawn("setup", workload, seed, deadline)
        if probe.setup_s is None:
            break
        setups.append(probe.setup_s)
    good = [p.doc for p in passes if p.doc is not None]
    if not good or not setups:
        return None
    refuted = confirm(passes, workload, seed, deadline)
    attempted, failed, problems = score(passes, workload, seed, refuted)
    for p in passes:
        for o in (p.doc or {}).get("ops", []):
            verdict = "ok" if o["ok"] else "not confirmed" if o["name"] in refuted else "FAIL"
            print(f"  {o['name']:<40} {o['seconds']:9.3f} s  {verdict}")
    metrics = {
        "wall_s": _m(statistics.median(d["wall_s"] for d in good), "s"),
        "setup_s": _m(statistics.median(setups), "s"),
        "peak_rss_mb": _m(statistics.median(d["peak_rss_mb"] for d in good), "MB"),
        "pass_frac": _m((attempted - failed) / attempted, "ratio"),
    }
    counts = {"wall_s": len(good), "setup_s": len(setups), "peak_rss_mb": len(good)}
    for name, m in metrics.items():
        print(f"  {name:<12} {m['value']:12.4f} {m['unit']:<6}"
              + (f" median of {counts[name]}" if name in counts else ""))
    print(f"  {'fail_frac':<12} {failed / attempted:12.4f} ratio  ({failed}/{attempted})")
    return attempted, failed, problems, report_declared(metrics, "end_to_end")


def import_seconds(importtime_log: str) -> dict:
    """Self import time by top-level package from `python -X importtime`."""
    out = {"numpy": 0.0, "scipy": 0.0, "brwlab": 0.0, "total": 0.0}
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        try:
            self_us, _, name = line[len("import time:"):].split("|")
            us = int(self_us)
        except ValueError:
            continue
        top = name.strip().split(".")[0]
        out["total"] += us / 1e6
        if top in out:
            out[top] += us / 1e6
    return {f"import.{k}_s": v for k, v in out.items()}


def declared(kind: str) -> dict:
    """{metric name: unit} declared under `kind` in BENCHMARK.json, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def report_declared(metrics: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json declares, in its order; a declared metric the
    run could not measure reads 0.0 and is named on stdout."""
    names = declared(kind)
    if not names:
        return metrics
    out = {}
    for name, unit in names.items():
        if name not in metrics:
            print(f"  not measured: {name}")
        out[name] = metrics.get(name, _m(0.0, unit))
    return out


def traced(workload, seed, deadline):
    spans = WORK / f"spans-{workload}-{seed}.json"
    plain = spawn("pass", workload, seed, deadline)
    if plain.doc is None:
        return None
    traced_pass = spawn("pass", workload, seed, deadline, trace=True, spans=spans)
    unit_run = spawn("units", workload, seed, deadline)
    passes = [plain, traced_pass]
    refuted = confirm(passes, workload, seed, deadline)
    attempted, failed, problems = score(passes, workload, seed, refuted)
    metrics = {}
    own_ops = {o["name"]: o["seconds"] for o in plain.doc["ops"]}
    for w in wl.NAMES:
        for op in wl.op_names(w):
            metrics[f"{op}.s"] = _m(own_ops.get(op, 0.0), "s")
    tdoc = traced_pass.doc or {}
    trace = tdoc.get("trace", {"modules": {}, "layers": {}, "missing": [], "private_calls": {}})
    unit_of_suffix = {"calls": "count", "accept_ratio": "ratio",
                      "evolve_calls": "count", "evolves_per_draw": "ratio"}
    for name, value in {**trace["modules"], **trace["layers"]}.items():
        metrics[name] = _m(value, unit_of_suffix.get(name.rsplit(".", 1)[-1], "s"))
    for name, value in import_seconds(tdoc.get("importtime", "")).items():
        metrics[name] = _m(value, "s")
    unit_doc = unit_run.doc or {}
    metrics.update(unit_doc.get("metrics", {}))
    metrics["trace.overhead_s"] = _m(tdoc.get("wall_s", plain.doc["wall_s"])
                                     - plain.doc["wall_s"], "s")
    print(f"  traced pass {tdoc.get('wall_s', float('nan')):.3f} s, untraced "
          f"{plain.doc['wall_s']:.3f} s, unit costs {unit_doc.get('seconds', float('nan')):.1f} s")
    for name in trace["missing"] + unit_doc.get("missing", []):
        print(f"  missing (skipped): {name}")
    for fn, targets in trace["private_calls"].items():
        print(f"  untraced private call: {fn} -> {', '.join(targets)} "
              "(its time is the caller's self time)")
    print(f"  spans: {spans.relative_to(ROOT)}")
    for name in sorted(metrics):
        print(f"  {name:<58} {metrics[name]['value']:14.6g} {metrics[name]['unit']}")
    return attempted, failed, problems, report_declared(metrics, "per_layer")


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    if seed is None:
        seed = wl.DEFAULT_SEED[wl.kind(workload)]
    print(f"workload {workload} seed {seed} trace {int(trace)}")
    print("  env " + json.dumps(environment(seed), sort_keys=True))
    result = traced(workload, seed, deadline) if trace else \
        end_to_end(workload, seed, seconds, deadline)
    if result is not None:
        for line in result[2]:
            print(f"  problem: {line}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=wl.NAMES + ("all",))
    ap.add_argument("--seed", type=int, help="default: 20240817 (verify), 7 (cli-readme)")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "brwlab" / "__init__.py").is_file():
        print(f"no brwlab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = wl.NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            print(f"workload {name}: no pass completed", file=sys.stderr)
            return 1
        a, f, _, m = result
        attempted += a
        failed += f
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
