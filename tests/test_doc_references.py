"""Every dotted ``repro.`` reference in docstrings and docs resolves.

Covers Sphinx roles (``:func:``, ``:class:``, ``:mod:`` ...) in ``src/``,
and in ``README.md``, ``DESIGN.md`` and ``docs/*.md`` both backticked
``repro.…`` paths and ``from repro… import …`` lines of code blocks.
"""

import importlib
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "DESIGN.md",
    *sorted((REPO_ROOT / "docs").glob("*.md")),
]

ROLE = re.compile(
    r":(?:py:)?(?:func|class|mod|meth|attr|data|exc|obj|const):`~?(repro(?:\.\w+)+)"
)
BACKTICKED = re.compile(r"`(repro(?:\.\w+)+)")
FROM_IMPORT = re.compile(r"^\s*from (repro(?:\.\w+)*) import ([\w, ]+)$")

#: Paths that name example code, not this package.
EXEMPT = {
    # sample lint output for a snippet in docs/static-analysis.md
    "repro.serve.session.SessionStore._lock",
}


def resolves(dotted: str) -> bool:
    """Import the longest module prefix, then walk the attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def _references():
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for match in ROLE.finditer(line):
                yield path, number, match.group(1)
    for path in DOCS:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for match in BACKTICKED.finditer(line):
                yield path, number, match.group(1)
            imported = FROM_IMPORT.match(line)
            if imported:
                for name in imported.group(2).split(","):
                    yield path, number, f"{imported.group(1)}.{name.strip()}"


REFERENCES = sorted(
    {(str(path.relative_to(REPO_ROOT)), number, dotted)
     for path, number, dotted in _references()
     if dotted not in EXEMPT}
)


def test_references_are_found():
    assert len(REFERENCES) > 100
    assert {path for path, _, _ in REFERENCES} >= {"README.md", "DESIGN.md"}


def test_no_broken_references():
    broken = [f"{path}:{number}: {dotted}"
              for path, number, dotted in REFERENCES if not resolves(dotted)]
    assert not broken, "unresolved repro references:\n" + "\n".join(broken)
