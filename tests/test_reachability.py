"""Every top-level function and class of ``tsgp`` has a caller in ``src/``
or in the benchmark under ``perfbench/``; code that only tests use lives
beside the tests. A reference is a loaded name or an attribute in the
syntax tree (docstrings and comments do not count), outside the
definition itself, or an entry of the benchmark tracer's ``TARGETS``.
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
}


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _traced() -> set:
    """``module.name`` of every module-level function the tracer wraps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {f"{owner.__name__}.{attr}"
            for owner, attr, _, _ in tracing.TARGETS
            if isinstance(owner, types.ModuleType)}


def _references(trees: dict) -> dict:
    """name -> [(file, line)] of every attribute with that name, and of
    every loaded bare name in the file that defines or imports it."""
    refs = {}
    for path, tree in trees.items():
        imported = {alias.asname or alias.name for stmt in ast.walk(tree)
                    if isinstance(stmt, ast.ImportFrom)
                    for alias in stmt.names}
        bare = imported | {node.name for node in tree.body
                           if isinstance(node, (ast.FunctionDef,
                                                ast.ClassDef))}
        for ref in ast.walk(tree):
            if isinstance(ref, ast.Attribute):
                name = ref.attr
            elif (isinstance(ref, ast.Name) and isinstance(ref.ctx, ast.Load)
                  and ref.id in bare):
                name = ref.id
            else:
                continue
            refs.setdefault(name, []).append((path, ref.lineno))
    return refs


def test_every_top_level_name_has_a_caller():
    files = sorted(SRC.rglob("*.py")) + sorted(
        (ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    refs, traced = _references(trees), _traced()
    unreferenced = set()
    for path in sorted((SRC / "tsgp").rglob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            qualified = f"{_module_name(path)}.{node.name}"
            outside = [(where, line) for where, line in refs.get(node.name, ())
                       if not (where == path
                               and node.lineno <= line <= node.end_lineno)]
            if qualified not in traced and not outside:
                unreferenced.add(qualified)
    assert sorted(unreferenced - UNREFERENCED) == [], \
        "no caller in src/ or perfbench/: delete it or move it to tests/"
    assert sorted(UNREFERENCED - unreferenced) == [], \
        "has a caller now: drop it from UNREFERENCED"
