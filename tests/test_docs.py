"""The names the docs cite must exist: every backticked ``module.name`` that
README.md or a docstring of the package cites is an attribute of that
cosetlab module (a dotted tail is followed attribute by attribute)."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cosetlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(cosetlab.__path__))
CITATION = re.compile(r"`(?:cosetlab\.)?(" + "|".join(MODULES) + r")\.(\w+(?:\.\w+)*)")
ROOT = Path(__file__).resolve().parents[1]


def _docstrings(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield ast.get_docstring(node, clean=False) or ""


def _citations(text):
    return {match.groups() for match in CITATION.finditer(text)}


def _resolves(module, dotted):
    obj = importlib.import_module(f"cosetlab.{module}")
    for name in dotted.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


SOURCES = {"README.md": _citations((ROOT / "README.md").read_text())}
for _path in sorted(Path(cosetlab.__file__).parent.glob("*.py")):
    SOURCES[f"src/cosetlab/{_path.name}"] = set().union(*map(_citations, _docstrings(_path)))


def test_readme_cites_names():
    # the pattern finds README's citations, so the guard below cannot pass
    # by reading none
    assert len(SOURCES["README.md"]) >= 10


@pytest.mark.parametrize("source", SOURCES)
def test_cited_names_exist(source):
    missing = sorted(f"{m}.{name}" for m, name in SOURCES[source] if not _resolves(m, name))
    assert not missing, f"{source} cites names that do not exist: {missing}"
