"""Every function the benchmark's per-layer tracer patches still exists.

`perfbench/tracer.py` replaces program functions by (module, attribute)
name; a refactor that moves one makes `--trace 1` fail at install.  The
names are read from the tracer's source with `ast`, so this neither
imports nor edits the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names() -> list[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "WRAPS"
                        for t in node.targets)):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("no WRAPS list in %s" % TRACER)


def test_every_traced_name_resolves():
    names = traced_names()
    assert len(names) >= 20
    missing = ["%s.%s" % (module, attr) for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
