import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "brwlab"


def _defined_and_referenced():
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update({node.name, node.asname})
    return defined, referenced


def test_every_function_and_class_is_referenced_in_the_package():
    # a definition that only tests (or nothing) reach is dead code: delete it,
    # or move it into the tests as a helper
    defined, referenced = _defined_and_referenced()
    dead = {name: where for name, where in defined.items()
            if not (name.startswith("__") and name.endswith("__")) and name not in referenced}
    assert dead == {}


def test_every_field_recursion_runs_on_the_one_sweep():
    # P f is computed by `lattice._sweep` alone: the super-solution margin
    # reads P of its Gaussian bump in closed form
    callers = Counter()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "stencil_step" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers[(path.name, getattr(top, "name", "<module>"))] += 1
    assert callers == Counter({("lattice.py", "_sweep"): 1})


def test_every_clamp_comes_whole_from_the_schedule():
    # radii are derived in `lattice` alone: no module outside it names the
    # old one-radius helpers, and no call site reads a single radius off
    # `clamp_schedule` to clamp every step with it
    names, indexed = set(), []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lattice.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                names.add(getattr(node, "id", None) or getattr(node, "attr", None)
                          or getattr(node, "name", None))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call) and \
                    "clamp_schedule" in ast.dump(node.value.func):
                indexed.append(f"{path.name}:{node.lineno}")
    assert not names & {"clamp_radius", "escape_bound"}
    assert indexed == []


def test_the_package_starts_no_second_thread():
    # the stencil is memory-bound, so a second thread buys nothing, and the
    # CLI runs its replicate blocks in one process; no module may import the
    # means to start another thread or process
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert not imported & {"threading", "queue", "_thread", "concurrent", "multiprocessing"}


def test_every_report_row_takes_its_rule_from_one_band():
    # `verify._row` decides pass from its Band: no call states a threshold
    # twice, as a comparison beside a hand-written band string
    tree = ast.parse((SRC / "verify.py").read_text())

    def is_band(node):
        return isinstance(node, ast.Call) and "Band" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    bands = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign) and is_band(node.value)
             for t in node.targets if isinstance(t, ast.Name)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_row"]
    assert len(calls) >= 36  # the 36 call sites of 45 report rows
    for call in calls:
        band = call.args[3] if len(call.args) > 3 else next(
            k.value for k in call.keywords if k.arg == "band")
        assert is_band(band) or (isinstance(band, ast.Name) and band.id in bands), call.lineno
        assert not any(isinstance(n, ast.Compare) for n in ast.walk(call)), call.lineno


def test_no_report_fold_calls_the_builtin_max_or_min():
    # builtin max(0.0, nan) is 0.0, so a Python fold drops the NaN that a
    # band would fail: a row's terms are folded by numpy in `verify._row`.
    # The one call left reads the largest integer horizon of the bank
    calls = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) in ("max", "min"):
                calls.append(f"{path.name}:{scope}:{child.func.id}")
            visit(child, path, scope)

    for name in ("verify.py", "stats.py"):
        visit(ast.parse((SRC / name).read_text()), SRC / name, "")
    assert calls == ["verify.py:SimBank.survival:max"]
