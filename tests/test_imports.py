"""Every imported name is read somewhere in its module.

No linter ships with the project, so this scans `src/` and `tests/`
with `ast`.  Exempt are `from __future__` imports, names listed in the
module's `__all__`, and import statements marked `# noqa: F401`
(re-exports).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    imported = {}
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            span = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return ["%s:%d: %s" % (path.relative_to(ROOT), line, name)
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read and name not in exported]


def test_no_unused_imports():
    found = [hit for top in ("src", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))
             for hit in unused_imports(path)]
    assert found == []
