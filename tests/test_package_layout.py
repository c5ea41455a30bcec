"""Package-wide guards: no helper in src/ that only the tests call, one
text encoding, and no heavy import that every run would pay for."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import seqal

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "seqal"


def names_in(node) -> set[str]:
    """Every name node reads: bare names, attribute names and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def test_every_src_definition_has_a_user_outside_the_tests():
    """Each module-level def and class in src/seqal is named in src/seqal
    outside its own body, exported in seqal.__all__, or named by the
    benchmark in perfbench/."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    statements = [node for tree in trees.values() for node in tree.body]
    exported = set(seqal.__all__)
    bench = set().union(
        *(names_in(ast.parse(p.read_text())) for p in (ROOT / "perfbench").glob("*.py"))
    )
    unused = []
    for module, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if top.name in exported or top.name in bench:
                continue
            if not any(top.name in names_in(node) for node in statements if node is not top):
                unused.append(f"{module}:{top.name}")
    assert len(trees) > 10
    assert unused == []


def text_io_without_encoding(tree) -> list[int]:
    """Lines of the text-mode open, read_text and write_text calls in tree
    that pass no encoding; an open whose mode is not a literal counts as
    text mode."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        keywords = {k.arg: k.value for k in node.keywords}
        if name not in ("open", "read_text", "write_text") or "encoding" in keywords:
            continue
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            if isinstance(mode, ast.Constant) and "b" in mode.value:
                continue
        lines.append(node.lineno)
    return lines


def test_every_text_read_and_write_names_its_encoding():
    """One text encoding: each text-mode file access in src/seqal passes
    encoding=, so a run reads and writes UTF-8 whatever the locale."""
    missing = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := text_io_without_encoding(ast.parse(path.read_text())))
    }
    assert missing == {}
    guard = ast.parse(
        "open(p)\nopen(p, 'w')\nopen(p, mode)\np.read_text()\np.write_text(t)\n"
        "open(p, 'rb')\nopen(p, encoding='utf-8')\np.read_bytes()\n"
    )
    assert text_io_without_encoding(guard) == [1, 2, 3, 4, 5]


def test_import_leaves_scipy_stats_out():
    """seqal depends on numpy alone: scipy.ndimage would add about 28 MB and
    scipy.stats about 44 MB to the peak RSS of every process that imports
    seqal, so the package labels components and computes correlations itself.
    No scipy module may load, and no module in src/seqal may import scipy,
    not even lazily inside a function, which the first probe cannot see."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    probe = "import seqal, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    importers = {
        path.name: roots
        for path in sorted(SRC.glob("*.py"))
        if "scipy" in (roots := imported_roots(ast.parse(path.read_text())))
    }
    assert importers == {}
    guard = ast.parse(
        "import numpy as np\nfrom . import flowproxy\n"
        "def f():\n    import scipy.ndimage\n    from scipy import stats\n"
    )
    assert imported_roots(guard) == {"numpy", "scipy"}


def imported_roots(tree) -> set[str]:
    """The top-level packages that tree's absolute imports name, at any depth."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


def package_imports(tree) -> set[str]:
    """The seqal modules that tree's import nodes name, relative or absolute."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["seqal" if node.level else "", node.module]))
            dotted += [f"{module}.{a.name}" for a in node.names] if module == "seqal" else [module]
    return {d.split(".")[1] for d in dotted if d.startswith("seqal.")}


def test_acquisition_ranks_arrays_alone():
    """acquisition.py ranks arrays the runner builds: from the package it
    imports only errors, neither pool nor flowproxy."""
    assert package_imports(ast.parse((SRC / "acquisition.py").read_text())) == {"errors"}
    guard = ast.parse(
        "from .errors import A\nfrom .pool import PoolState\nfrom . import flowproxy\n"
        "import seqal.synth\nfrom seqal.metrics import x\nimport numpy\nfrom scipy import y\n"
    )
    assert package_imports(guard) == {"errors", "pool", "flowproxy", "synth", "metrics"}
