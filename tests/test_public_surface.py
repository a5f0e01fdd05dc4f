"""The public surface: exports match definitions, the traced benchmark resolves, no
module imports a name it never uses, and no library module loads mpmath at import."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

LIBRARY_MODULES = ["bounds", "threshold_solver", "constructions", "random_models", "arrow_checker"]
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
CAP_NAME = re.compile(r"\b[A-Z][A-Z0-9_]*_CAP\b")


def _is_definition(obj) -> bool:
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    mod = importlib.import_module(f"ramsey_lab.{name}")
    for export in mod.__all__:
        assert hasattr(mod, export), export
    exported = {e for e in mod.__all__ if _is_definition(getattr(mod, e))}
    defined = {
        attr for attr, obj in vars(mod).items()
        if not attr.startswith("_") and _is_definition(obj) and obj.__module__ == mod.__name__
    }
    assert exported == defined


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for mod_name, fn_name, _, _ in spans.TRACED:
        mod = importlib.import_module(f"ramsey_lab.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), (mod_name, fn_name)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_no_public_function_takes_a_cap(name):
    """Caps are module constants, never keywords a caller could lift."""
    mod = importlib.import_module(f"ramsey_lab.{name}")
    for export in mod.__all__:
        obj = getattr(mod, export)
        if inspect.isclass(obj):
            functions = [f for f in vars(obj).values() if inspect.isfunction(f)]
        else:
            functions = [obj] if inspect.isfunction(obj) else []
        for fn in functions:
            capped = [p for p in inspect.signature(fn).parameters if p.endswith("_cap")]
            assert not capped, (name, fn.__qualname__, capped)


def test_readme_names_every_cap():
    """README's "Guarantees and caps" names each module-level *_CAP constant, and no other."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Guarantees and caps\n", 1)[1].split("\n## ", 1)[0]
    defined = {
        attr
        for name in LIBRARY_MODULES
        for attr in vars(importlib.import_module(f"ramsey_lab.{name}"))
        if CAP_NAME.fullmatch(attr)
    }
    assert defined
    assert set(CAP_NAME.findall(section)) == defined


def _unused_imports(path: Path) -> list[str]:
    """Names that ``path`` imports and neither references nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_no_module_imports_an_unused_name():
    library = sorted((ROOT / "src" / "ramsey_lab").glob("*.py"))
    paths = library + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in _unused_imports(path)] == []


def _mpmath_imports(tree: ast.Module) -> tuple[list[int], list[int]]:
    """Lines of the mpmath imports that run at module load, and of those inside a def."""
    at_load, deferred = [], []
    stack = [(node, False) for node in tree.body]
    while stack:
        node, in_def = stack.pop()
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(n == "mpmath" or n.startswith("mpmath.") for n in names):
            (deferred if in_def else at_load).append(node.lineno)
        in_def = in_def or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        stack.extend((child, in_def) for child in ast.iter_child_nodes(node))
    return at_load, deferred


def test_no_library_module_imports_mpmath_at_load():
    """mpmath costs ~25 ms to load, so it is imported only inside the functions that use it."""
    at_load, deferred = [], 0
    for path in sorted((ROOT / "src" / "ramsey_lab").glob("*.py")):
        lines, inner = _mpmath_imports(ast.parse(path.read_text(encoding="utf-8")))
        at_load += [f"{path.name}:{line}" for line in lines]
        deferred += len(inner)
    assert at_load == []
    assert deferred  # the scan sees the deferred imports, so it would see a module-level one


def _mpmath_iv_imports(tree: ast.Module) -> list[int]:
    """Lines that import ``mpmath.iv``, in any of its three spellings, anywhere in the module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name == "mpmath.iv" or a.name.startswith("mpmath.iv.") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = (module == "mpmath.iv" or module.startswith("mpmath.iv.")
                   or module == "mpmath" and any(a.name == "iv" for a in node.names))
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


def test_no_library_module_imports_mpmath_iv():
    """src/ has one interval implementation, on mpmath.libmp; mpmath.iv stays a test oracle."""
    spellings = ["import mpmath.iv", "import mpmath.iv as i", "from mpmath import mp, iv",
                 "from mpmath import iv as i", "from mpmath.iv import mpf",
                 "def f():\n    from mpmath import iv"]
    assert all(_mpmath_iv_imports(ast.parse(s)) for s in spellings)
    clean = ["import mpmath", "from mpmath import mp", "from mpmath.libmp import mpi_add"]
    assert not any(_mpmath_iv_imports(ast.parse(s)) for s in clean)
    hits = [f"{path.name}:{line}"
            for path in sorted((ROOT / "src" / "ramsey_lab").glob("*.py"))
            for line in _mpmath_iv_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert hits == []
