"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "forsample"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_sources_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def test_cli_knows_no_config_section():
    # the config sections are checked by the classes that consume them; the
    # CLI names no noise family, case tag or planner constant
    from dataclasses import fields

    from forsample.constants import PlanConstants
    from forsample.core import CASE_TAGS
    from forsample.oracles import NOISE_FAMILIES

    names = set(NOISE_FAMILIES) | set(CASE_TAGS) | {f.name for f in fields(PlanConstants)}
    tree = ast.parse((SRC / "cli.py").read_text())
    found = sorted({n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and n.value in names})
    assert found == []
