"""The package re-exports nothing: each module states its public names once,
in its ``__all__``, and importing one module loads only what it imports."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "gloss"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _public_names(module: str) -> set[str]:
    """A module's public names: its ``__all__`` if it has one, else the
    non-underscore names it defines itself, not those it imports."""
    defined = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in defined if not name.startswith("_")}


def _gloss_imports():
    """(file, module, name) for each name imported from a gloss module in the
    package, the scripts, the benchmark and the tests."""
    for root in ("src/gloss", "scripts", "perfbench", "tests"):
        for path in sorted((REPO / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if node.level and path.parent == PACKAGE:
                    module = node.module or ""
                elif node.level == 0 and (node.module or "").split(".")[0] == "gloss":
                    module = node.module[len("gloss.") :]
                else:
                    continue
                for alias in node.names:
                    yield path.relative_to(REPO).as_posix(), module, alias.name


def test_the_package_defines_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert [type(node) for node in tree.body] == [ast.Expr]  # the docstring


def test_every_imported_name_is_in_its_modules_public_names():
    public = {module: _public_names(module) for module in MODULES}
    imports = list(_gloss_imports())
    assert len(imports) > 100, "the scan found too few imports to mean anything"
    stray = []
    for path, module, name in imports:
        if module == "":  # from gloss import <submodule>
            if name not in MODULES:
                stray.append((path, "gloss", name))
        elif not name.startswith("_") and name not in public[module]:
            stray.append((path, module, name))
    assert stray == []


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("errors", ["gloss", "gloss.errors"]),
        ("temporal", ["gloss", "gloss.errors", "gloss.temporal"]),
    ],
)
def test_importing_a_module_loads_only_what_it_imports(module, loaded):
    done = subprocess.run(
        [
            sys.executable,
            "-I",
            "-S",
            "-c",
            f"import sys; sys.path.insert(0, {str(REPO / 'src')!r}); import gloss.{module}; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'gloss'))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == loaded


def test_the_cli_and_the_ingest_node_load_no_statistics():
    # only distill_archetypal needs it, and it pulls in fractions and decimal
    code = (
        f"import sys; sys.path.insert(0, {str(REPO / 'src')!r}); import gloss.cli, gloss.eventd; "
        "print(*sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
