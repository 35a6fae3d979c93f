"""The lint target: parsed source files with real module names.

A :class:`Project` is a set of parsed Python files under one root.
Each file knows its dotted module name (derived from the
``__init__.py`` chain above it, exactly as the import system would
name it), so rules can reason about packages — "is this function in
``repro.netsim``?" — instead of path prefixes.  The root also anchors
project-level artifacts rules check against (the observability
catalog, the baseline file).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator


class ProjectError(Exception):
    """The lint target could not be loaded (bad path, unparseable file)."""


@dataclass
class SourceFile:
    """One parsed Python file of the project."""

    path: Path  # absolute
    relpath: str  # posix, relative to the project root
    module: str  # dotted module name, e.g. "repro.netsim.simulator"
    text: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @property
    def package(self) -> str:
        """The module's package (the module itself for ``__init__``)."""
        if self.path.name == "__init__.py":
            return self.module
        return self.module.rpartition(".")[0]

    def in_package(self, prefixes: Iterable[str]) -> bool:
        """Whether the module lives under any of the given packages."""
        for prefix in prefixes:
            if self.module == prefix or self.module.startswith(prefix + "."):
                return True
        return False


def module_name_for(path: Path) -> str:
    """The dotted module name the import system would give ``path``.

    Walks up the directory tree for as long as ``__init__.py`` exists,
    the same rule the import machinery applies.  A file outside any
    package is its own single-segment module.
    """
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:  # a bare __init__.py with no package directory above
        parts = [path.stem]
    return ".".join(parts)


@dataclass
class Project:
    """Every parsed file under the lint root, indexed by module name."""

    root: Path
    files: list[SourceFile] = field(default_factory=list)
    modules: dict[str, SourceFile] = field(default_factory=dict)

    @classmethod
    def load(
        cls,
        root: Path | str,
        paths: Iterable[Path | str] | None = None,
    ) -> "Project":
        """Parse every ``*.py`` under ``paths`` (default: the root).

        ``root`` anchors relative paths in findings and project-level
        artifacts (``docs/observability.md``).  A file that does not
        parse raises :class:`ProjectError` — the lint target is
        expected to be syntactically valid code.
        """
        root = Path(root).resolve()
        if paths is None:
            paths = [root]
        project = cls(root=root)
        targets: list[Path] = []
        for path in paths:
            path = Path(path)
            if not path.is_absolute():
                path = root / path
            if not path.exists():
                raise ProjectError(f"no such lint target: {path}")
            targets.extend(sorted(_iter_python_files(path)))
        for file_path in targets:
            source = _parse_file(file_path, root)
            project.files.append(source)
            project.modules[source.module] = source
        return project

    def artifact(self, relpath: str) -> Path:
        """A project-level artifact path (docs, baseline), root-relative."""
        return self.root / relpath


def _parse_file(path: Path, root: Path) -> SourceFile:
    path = path.resolve()
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        raise ProjectError(f"{path}: does not parse: {exc}") from exc
    try:
        relpath = path.relative_to(root).as_posix()
    except ValueError:
        relpath = path.as_posix()
    return SourceFile(
        path=path,
        relpath=relpath,
        module=module_name_for(path),
        text=text,
        tree=tree,
        lines=text.splitlines(),
    )


def _iter_python_files(path: Path) -> Iterator[Path]:
    if path.is_file():
        if path.suffix == ".py":
            yield path
        return
    for candidate in path.rglob("*.py"):
        # Editable-install metadata and caches are not lint targets.
        if "__pycache__" in candidate.parts:
            continue
        if any(part.endswith(".egg-info") for part in candidate.parts):
            continue
        yield candidate
