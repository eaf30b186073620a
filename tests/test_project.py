"""Checks on the project as shipped: the README's examples run as documented,
the package exports exactly what its `__init__` imports, and no package
module imports a name it never uses."""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

import decoygraph
from decoygraph.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "decoygraph"


def _readme_python_block() -> str:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    return blocks[0]


def test_readme_example_prints_the_counts_its_comment_states():
    source = _readme_python_block()
    stated = re.search(r"^# .*: (\d+) and (\d+)\nprint\(len\(problem\.candidates\)", source, flags=re.MULTILINE)
    assert stated is not None, "the comment above the candidate counts no longer states them"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {"__name__": "readme_example"})
    assert out.getvalue().splitlines()[0] == f"{stated.group(1)} {stated.group(2)}"


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Command line\n.*?^```\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    assert block is not None, "README.md has no command block under 'Command line'"
    commands = [shlex.split(line) for line in block.group(1).splitlines()]
    assert [args[:2] for args in commands] == [
        ["decoygraph", "generate"],
        ["decoygraph", "obfuscate"],
        ["decoygraph", "simulate"],
        ["decoygraph", "evaluate"],
    ]
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for args in commands:
        res = runner.invoke(main, args[1:])
        assert res.exit_code == 0, (args, res.output)


# the reference search tree and the planner's oracles, which live beside the tests
MOVED_TO_TESTS = (
    "Candidate",
    "SearchNode",
    "expand",
    "h1",
    "h2",
    "order_candidates",
    "brute_force_plan",
    "plan_violations",
    "derivable",
    "derivable_facts",
)


def test_star_import_gives_every_exported_name():
    namespace: dict = {}
    exec("from decoygraph import *", namespace)
    assert set(decoygraph.__all__) <= set(namespace)


def test_all_lists_exactly_the_names_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(imported) == len(set(imported))
    assert sorted(decoygraph.__all__) == sorted(imported)


def test_no_package_module_defines_a_name_moved_to_the_tests():
    modules = [importlib.import_module(f"decoygraph.{info.name}") for info in pkgutil.iter_modules(decoygraph.__path__)]
    assert len(modules) >= 8
    found = [
        f"{module.__name__}.{name}"
        for module in [decoygraph, *modules]
        for name in MOVED_TO_TESTS
        if hasattr(module, name)
    ]
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_module_level_name_is_used():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    defined = [(module, name) for module, tree in trees.items() for name in _private_definitions(tree)]
    assert len(defined) >= 20
    assert [f"{module}: {name}" for module, name in defined if name not in used] == []
