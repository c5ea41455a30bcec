"""Package-wide guard: no helper in src/ that only the tests call."""

import ast
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
