"""One fresh benchmark process, started by run.py.

Modes:
  pass   set up (imports, input generation), print READY, run every operation
         of the workload once (or only those named by --only) and check it;
         with --trace, under the tracer
  setup  set up, print READY and exit (an extra set-up time sample)
  units  set up, print READY, measure the per-unit kernel costs

The parent times set-up from spawning this process to reading READY.  The
result is written as JSON to --result; nothing else goes to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))   # brwlab is imported from the source tree


def _ready() -> None:
    print("READY", flush=True)
    os.dup2(2, 1)   # keep anything the program prints off the parent's pipe


def run_pass(ops, tracer) -> dict:
    results = []
    t0 = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        problems, digest, error = [], None, False
        ctx = tracer.operation(op.name) if tracer is not None else contextlib.nullcontext()
        try:
            with ctx:
                problems, digest = op.check(op.run())
        except (Exception, SystemExit) as exc:   # a failed operation is counted, not fatal
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problems = [f"{type(exc).__name__}: {exc} (at {os.path.basename(where.filename)}"
                        f":{where.lineno} in {where.name})"]
            error = True
        results.append({"name": op.name, "seconds": time.perf_counter() - t,
                        "ok": not problems, "error": error, "problems": problems,
                        "hash": digest})
    return {"wall_s": time.perf_counter() - t0, "ops": results}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("pass", "setup", "units"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="with --trace: write the spans here")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--only", help="comma-separated operation names to run (default: all)")
    args = ap.parse_args()

    if args.mode == "units":
        import units
        _ready()
        doc = units.measure(args.seed)
    else:
        import workloads
        out = args.result + ".out"
        ops = workloads.build(args.workload, args.seed, out)
        if args.only:
            ops = [op for op in ops if op.name in args.only.split(",")]
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        _ready()
        try:
            doc = run_pass(ops, tracer) if args.mode == "pass" else {}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            doc["trace"] = {"modules": tracer.module_metrics(),
                            "layers": tracer.layer_metrics(),
                            "missing": tracer.missing,
                            "private_calls": tracer.private_calls()}
            if args.spans:
                tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed})
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tmp = args.result + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
