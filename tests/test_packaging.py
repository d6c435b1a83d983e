"""The runtime needs the standard library and numpy, nothing else, every
import is used, and README's library layout names every module."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def absolute_imports(path: Path) -> set[str]:
    """Top-level package of every absolute import anywhere in `path`."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_sources_import_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    sources = sorted((ROOT / "src" / "pamr").glob("*.py"))
    assert len(sources) > 1
    outside = {p.name: sorted(absolute_imports(p) - allowed) for p in sources}
    assert {name: mods for name, mods in outside.items() if mods} == {}


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_readme_layout_has_one_row_per_module():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `pamr\.(\w+)` \|", table, flags=re.M)
    modules = [p.stem for p in (ROOT / "src" / "pamr").glob("*.py") if p.stem != "__init__"]
    assert sorted(rows) == sorted(modules)


def unused_imports(path: Path) -> list[str]:
    """Every name an import in `path` binds that the module never reads: not
    as a name, not as an attribute's base, and not listed in `__all__`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_sources_import_no_name_they_never_use():
    sources = sorted((ROOT / "src" / "pamr").glob("*.py"))
    unused = {p.name: unused_imports(p) for p in sources}
    assert {name: names for name, names in unused.items() if names} == {}


def test_importing_the_cli_leaves_multiprocessing_unimported():
    """The pack pool imports it when it starts, so a run that never starts one does not pay for it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pamr.cli; print('multiprocessing' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def pamr_imports(path: Path) -> set[str]:
    """Every `pamr` module an import in `path`, a module of the package, names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([f"pamr.{node.module}"] if node.module else (f"pamr.{a.name}" for a in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "pamr":
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[0] == "pamr")
    return names


def test_the_pool_imports_no_pamr_module_but_errors():
    """`pamr.pool` runs the jobs it is handed and knows nothing of what they compute."""
    assert pamr_imports(ROOT / "src" / "pamr" / "pool.py") == {"pamr.errors"}


def callers(path: Path, name: str) -> list[str | None]:
    """The top-level definition of `path` (None: module level) around each
    call of `name`, bare or as an attribute, once per call."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        found += [
            getattr(top, "name", None) for node in ast.walk(top)
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    return found


def test_only_the_pool_reads_the_cpu_affinity():
    """`pamr.pool` alone reads `os.sched_getaffinity`, so it alone sizes a
    run, and `training._session` builds every `pool.Session`."""
    readers = set()
    for path in (ROOT / "src" / "pamr").glob("*.py"):
        if any(getattr(node, "attr", None) == "sched_getaffinity" for node in ast.walk(ast.parse(path.read_text()))):
            readers.add(path.stem)
    assert readers == {"pool"}
    builders = {p.stem: callers(p, "Session") for p in (ROOT / "src" / "pamr").glob("*.py")}
    assert {stem: found for stem, found in builders.items() if found} == {"training": ["_session"]}


def test_only_the_pool_keeps_the_rule_that_starts_it():
    """`pamr.pool` alone defines and reads `_SPREAD_AFTER_S` and `_unspread_s`,
    so `Session.run` alone decides whether a run's items go to workers."""
    names, users = {"_SPREAD_AFTER_S", "_unspread_s"}, set()
    for path in (ROOT / "src" / "pamr").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if getattr(node, "id", None) in names or getattr(node, "attr", None) in names:
                users.add(path.stem)
    assert users == {"pool"}


def test_only_the_checkpoint_knows_the_encoder_prefix():
    """`pamr.checkpoint` alone holds the string constant `"encoder."`, so
    `load_encoder_weights` alone knows how a checkpoint names the encoder."""
    holders = set()
    for path in (ROOT / "src" / "pamr").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and node.value == "encoder.":
                holders.add(path.stem)
    assert holders == {"checkpoint"}
