"""In-memory span tracer installed from the benchmark's own files.

`Tracer.install()` wraps every public function at every binding in the loaded
`brwlab.*` modules: module-level functions (including `from .x import y`
re-bindings, which share one wrapper with the original), functions stored as
values of module-level dicts (`verify.SUITES`), and the public methods and
hand-written `__init__` of every brwlab class.  Private helpers are not
wrapped; `private_calls()` lists the public functions that call another
module's private helper directly (such as `exactfields._pmean`), whose time
therefore counts as the caller's self time.

Each span has a name, start, end, parent span and operation id.  Every span
feeds the per-function aggregates (calls, total and self time); spans of at
least KEEP_MIN_S are also kept whole and written out by `dump()`.  Names
the benchmark's per-layer metrics rely on are listed in EXPECTED; one that is
missing at a later commit is skipped and reported, never an error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "brwlab"
MODULES = ("lattice", "exactfields", "offspring", "rngstreams", "forward", "spine",
           "conditioned", "stats", "verify", "cli")

EVOLVE = "forward.evolve_particles"
RUN_COND = "forward.run_conditioned_batch"
POP_BATCH = "forward.population_batch"
POP_COND = "forward.population_conditioned_batch"
COND_SAMPLE = "conditioned.ConditionedSampler.sample"

EXPECTED = (
    EVOLVE, RUN_COND, POP_BATCH, POP_COND, COND_SAMPLE,
    "conditioned.ConditionedSampler.sample_path",
    "offspring.OffspringDist.population_step",
    "forward.BatchStats.__init__",
    "spine.spine_typical_batch",
    "cli.main",
)

# evolve_particles input-array size bands: (metric suffix, upper bound)
BANDS = (("lt1e3", 1e3), ("1e3-1e5", 1e5), ("ge1e5", float("inf")))

# argument read from a span at entry, by traced name
ARGS = {EVOLVE: "keys", RUN_COND: "want", POP_BATCH: "reps", POP_COND: "want"}

KEEP_MIN_S = 1e-3      # spans at least this long are kept whole for dump()
MAX_KEPT = 200_000     # past this many, kept spans are only counted


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _arg_reader(fn, pname):
    """Fast reader of one named argument from (args, kwargs), or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if pname not in params:
        return None
    pos = params.index(pname)

    def read(args, kwargs):
        return args[pos] if len(args) > pos else kwargs.get(pname)
    return read


class Tracer:
    def __init__(self):
        self.stack: list[list] = []        # open frames
        self.kept: list[tuple] = []        # (id, parent, op, name, start, end)
        self.dropped = 0                   # spans past max_kept
        self.next_id = 1
        self.op = None
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.module_of: dict[str, str] = {}
        self.open_spine = 0                # open spans of spine functions
        self.open_samples = 0              # open ConditionedSampler.sample spans
        self.band_s = {b: 0.0 for b, _ in BANDS}
        self.band_calls = {b: 0 for b, _ in BANDS}
        self.spine_evolves = 0
        self.sample_evolves = 0
        self.accept = {RUN_COND: [0, 0], POP_COND: [0, 0]}  # [wanted, started]
        self._wrappers: dict[int, object] = {}
        self.originals: dict[str, object] = {}   # traced name -> unwrapped function
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name, module, extra):
        parent = self.stack[-1] if self.stack else None
        if name == EVOLVE:
            size = int(getattr(extra, "size", 0))
            extra = size
            if self.open_spine:
                self.spine_evolves += 1
            if self.open_samples:
                self.sample_evolves += 1
            if parent is not None and parent[0] == RUN_COND:
                parent[6][1] += size
        elif name == POP_BATCH and parent is not None and parent[0] == POP_COND:
            parent[6][1] += int(extra or 0)
        elif name in self.accept:
            extra = [int(extra or 0), 0]
        elif name == COND_SAMPLE:
            self.open_samples += 1
        if module == "spine":
            self.open_spine += 1
        span_id = self.next_id
        self.next_id += 1
        self.stack.append([name, module, time.perf_counter(), 0.0, span_id,
                           parent[4] if parent is not None else 0, extra])

    def _exit(self):
        end = time.perf_counter()
        name, module, start, child, span_id, parent_id, extra = self.stack.pop()
        dur = end - start
        own = dur - child
        if self.stack:
            self.stack[-1][3] += dur
        if module == "spine":
            self.open_spine -= 1
        self.calls[name] += 1
        self.total[name] += dur
        self.self_s[name] += own
        if name == EVOLVE:
            for band, upper in BANDS:
                if extra < upper:
                    self.band_s[band] += own
                    self.band_calls[band] += 1
                    break
        elif name in self.accept:
            self.accept[name][0] += extra[0]
            self.accept[name][1] += extra[1]
        elif name == COND_SAMPLE:
            self.open_samples -= 1
        if dur >= KEEP_MIN_S:
            if len(self.kept) < MAX_KEPT:
                self.kept.append((span_id, parent_id, self.op, name, start, end))
            else:
                self.dropped += 1

    @contextlib.contextmanager
    def operation(self, op_name: str):
        """One benchmark operation, the root span of everything it calls."""
        self.op = op_name
        self.module_of["op:" + op_name] = "op"
        self._enter("op:" + op_name, "op", None)
        try:
            yield
        finally:
            while self.stack:   # an exception may leave inner frames open
                self._exit()
            self.op = None

    # -- installation --------------------------------------------------------

    def _wrap(self, fn, name: str, module: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        enter, exit_ = self._enter, self._exit
        reader = _arg_reader(fn, ARGS[name]) if name in ARGS else None

        if reader is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(name, module, None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(name, module, reader(args, kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        self._wrappers[key] = wrapper
        self._wrappers[id(wrapper)] = wrapper
        self.originals[name] = fn
        self.module_of[name] = module
        return wrapper

    def _wrap_function(self, fn):
        module = _short(fn.__module__)
        return self._wrap(fn, f"{module}.{fn.__qualname__}", module)

    def _wrap_class(self, cls):
        module = _short(cls.__module__)
        generated_init = dataclasses.is_dataclass(cls)
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and not generated_init):
                continue
            raw = val.__func__ if isinstance(val, (classmethod, staticmethod)) else val
            if not inspect.isfunction(raw):
                continue
            wrapped = self._wrap(raw, f"{module}.{raw.__qualname__}", module)
            setattr(cls, attr, type(val)(wrapped) if raw is not val else wrapped)

    def _ours(self, obj) -> bool:
        return (getattr(obj, "__module__", None) or "").startswith(PACKAGE + ".")

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    self._wrap_class(val)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and self._ours(val):
                    setattr(mod, attr, self._wrap_function(val))
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if inspect.isfunction(v) and self._ours(v):
                            val[k] = self._wrap_function(v)
        loaded = {_short(m.__name__) for m in modules}
        self.missing = [n for n in EXPECTED
                        if n.split(".")[0] in loaded and n not in self.originals]

    def private_calls(self) -> dict[str, list[str]]:
        """Public brwlab functions that call another module's private function,
        through a module alias (`xf._pmean`) or a private re-binding (`_pmean`)."""
        out = {}
        for traced, fn in sorted(self.originals.items()):
            code, glb = fn.__code__, fn.__globals__
            names = set(code.co_names)
            for const in code.co_consts:   # nested code objects (closures, lambdas)
                if inspect.iscode(const):
                    names |= set(const.co_names)
            hits = set()
            for n in names:
                val = glb.get(n)
                if n.startswith("_") and inspect.isfunction(val) and self._ours(val) \
                        and val.__module__ != fn.__module__:
                    hits.add(f"{_short(val.__module__)}.{n}")
                if inspect.ismodule(val) and val.__name__.startswith(PACKAGE + ".") \
                        and val.__name__ != fn.__module__:
                    for p in names:
                        target = vars(val).get(p)
                        if p.startswith("_") and not p.startswith("__") \
                                and inspect.isfunction(target) and target.__module__ == val.__name__:
                            hits.add(f"{_short(val.__name__)}.{p}")
            if hits:
                out[traced] = sorted(hits)
        return out

    # -- results -------------------------------------------------------------

    def module_metrics(self) -> dict[str, float]:
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for name, module in self.module_of.items():
            self_s[module] += self.self_s.get(name, 0.0)
            calls[module] += self.calls.get(name, 0)
        out = {}
        for m in MODULES:
            out[f"{m}.self_s"] = self_s[m]
            out[f"{m}.calls"] = calls[m]
        return out

    def layer_metrics(self) -> dict[str, float]:
        out = {f"forward.evolve_particles.self_s.{b}": s for b, s in self.band_s.items()}
        for name, (wanted, started) in self.accept.items():
            out[f"{name}.accept_ratio"] = wanted / started if started else 0.0
        out["spine.evolve_calls"] = self.spine_evolves
        draws = self.calls.get(COND_SAMPLE, 0)
        out["conditioned.sample.evolves_per_draw"] = self.sample_evolves / draws if draws else 0.0
        return out

    def dump(self, path, extra: dict) -> None:
        functions = {name: {"module": self.module_of[name], "calls": self.calls[name],
                            "total_s": self.total[name], "self_s": self.self_s[name]}
                     for name in sorted(self.calls)}
        doc = dict(extra)
        doc.update({
            "span_fields": ["id", "parent", "op", "name", "start", "end"],
            "spans": self.kept,
            "spans_dropped": self.dropped,
            "keep_min_s": KEEP_MIN_S,
            "functions": functions,
            "evolve_band_calls": self.band_calls,
            "missing": self.missing,
            "private_calls": self.private_calls(),
        })
        with open(path, "w") as fh:
            json.dump(doc, fh)
