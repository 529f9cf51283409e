"""Every top-level function and class of the package has a use."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_top_level_name_is_used():
    """A top-level function or class of src/toricface/ must be named in
    src/, tests/ or bench/ outside its own def or class line: one that
    nothing names is dead code."""
    texts = {p: p.read_text() for d in ("src", "tests", "bench")
             for p in sorted((ROOT / d).rglob("*.py"))}
    words = Counter(w for t in texts.values() for w in re.findall(r"\w+", t))
    defs = 0
    orphans = []
    for path in sorted((ROOT / "src" / "toricface").glob("*.py")):
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs += 1
            own = re.findall(r"\w+", lines[node.lineno - 1]).count(node.name)
            if words[node.name] == own:
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert defs > 100
    assert not orphans, orphans
