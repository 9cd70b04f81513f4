"""Every top-level function and class of ``tsgp`` has a caller in ``src/``
or in the benchmark under ``perfbench/``; code that only tests use lives
beside the tests. A reference to ``module.name``, outside the definition
itself, is an attribute ``name`` of a name an import binds to ``module``,
a ``from module import name``, or a loaded bare ``name`` in the module's
own file (docstrings and comments do not count), or an entry of the
benchmark tracer's ``TARGETS``. An attribute of another object with the
same name is not a reference.
The few names kept without such a caller are pinned below."""

import ast
import importlib.util
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

UNREFERENCED = {
    # click runs the commands through the group; nothing names them
    "tsgp.cli.gen_corpus", "tsgp.cli.mine_pairs_cmd", "tsgp.cli.train_cmd",
    "tsgp.cli.search_cmd", "tsgp.cli.bench_cmd", "tsgp.cli.fetch_data",
    "tsgp.cli.verify_model",
    # kept for measuring a trained model's teacher-forced accuracy
    "tsgp.model.training.token_accuracy",
    # tape ops that only the tests' tape-built transformer uses
    "tsgp.model.autodiff.mul", "tsgp.model.autodiff.scale",
    "tsgp.model.autodiff.concat", "tsgp.model.autodiff.relu",
    "tsgp.model.autodiff.embedding", "tsgp.model.autodiff.add_const",
    "tsgp.model.autodiff.add", "tsgp.model.autodiff.transpose",
    "tsgp.model.autodiff.reshape", "tsgp.model.autodiff.cross_entropy",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _traced() -> set:
    """``module.name`` of every module-level function the tracer wraps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {f"{owner.__name__}.{attr}"
            for owner, attr, _, _ in tracing.TARGETS
            if isinstance(owner, types.ModuleType)}


def _imported_from(path: Path, stmt: ast.ImportFrom) -> str:
    """The absolute module a ``from ... import`` in ``path`` reads."""
    if not stmt.level:
        return stmt.module
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[:len(package) - stmt.level + 1]
    return ".".join(base + ([stmt.module] if stmt.module else []))


def _references(trees: dict, modules: set) -> dict:
    """``module.name`` -> [(file, line)] of every reference to that name: an
    attribute of a name an import binds to the module, a ``from module
    import name``, or a loaded bare name in the module's own file."""
    refs = {}
    for path, tree in trees.items():
        own = _module_name(path) if SRC in path.parents else None
        bound = {}  # local name -> the module an import binds it to
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.asname:
                        bound[alias.asname] = alias.name
            elif isinstance(stmt, ast.ImportFrom):
                source = _imported_from(path, stmt)
                for alias in stmt.names:
                    target = f"{source}.{alias.name}"
                    if target in modules:
                        bound[alias.asname or alias.name] = target
                    else:
                        refs.setdefault(target, []).append(
                            (path, stmt.lineno))
        for ref in ast.walk(tree):
            if (isinstance(ref, ast.Attribute)
                    and isinstance(ref.value, ast.Name)
                    and ref.value.id in bound):
                name = f"{bound[ref.value.id]}.{ref.attr}"
            elif (isinstance(ref, ast.Name) and isinstance(ref.ctx, ast.Load)
                  and own):
                name = f"{own}.{ref.id}"
            else:
                continue
            refs.setdefault(name, []).append((path, ref.lineno))
    return refs


def test_every_top_level_name_has_a_caller():
    files = sorted(SRC.rglob("*.py")) + sorted(
        (ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    modules = {_module_name(path) for path in files if SRC in path.parents}
    refs, traced = _references(trees, modules), _traced()
    unreferenced = set()
    for path in sorted((SRC / "tsgp").rglob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            qualified = f"{_module_name(path)}.{node.name}"
            outside = [(where, line) for where, line in refs.get(qualified, ())
                       if not (where == path
                               and node.lineno <= line <= node.end_lineno)]
            if qualified not in traced and not outside:
                unreferenced.add(qualified)
    assert sorted(unreferenced - UNREFERENCED) == [], \
        "no caller in src/ or perfbench/: delete it or move it to tests/"
    assert sorted(UNREFERENCED - unreferenced) == [], \
        "has a caller now: drop it from UNREFERENCED"
