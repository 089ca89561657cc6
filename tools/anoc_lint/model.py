"""Source model: files and the include graph.

The include graph exists for scope propagation: a header is covered by
the determinism rules not because of where it sits but because of who
includes it — common/stats.h is deterministic-path code the moment
noc/network.h pulls it in. Scope is therefore computed as "lives in a
scoped directory, or is (transitively) included by a file that does".
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from . import lexer

CPP_EXTS = (".h", ".hpp", ".cc", ".cpp")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"])([^">]+)[">]', re.M)


@dataclass
class Include:
    line: int
    target: str      # include path as written
    system: bool     # <...> include


@dataclass
class SourceFile:
    path: str        # repo-relative, forward slashes
    text: str
    sanitized: str = ""
    suppressions: list[lexer.Suppression] = field(default_factory=list)
    includes: list[Include] = field(default_factory=list)
    in_scope: bool = False   # determinism (D-rule) scope

    def __post_init__(self) -> None:
        self.sanitized = lexer.sanitize(self.text)
        self.suppressions = lexer.parse_suppressions(self.text)
        for m in INCLUDE_RE.finditer(self.sanitized):
            line = self.sanitized.count("\n", 0, m.start()) + 1
            self.includes.append(
                Include(line, m.group(2), m.group(1) == "<"))


class Tree:
    """Every C++ source under the repo root, plus the include graph."""

    def __init__(self, root: str, scoped_dirs: tuple[str, ...],
                 source_dirs: tuple[str, ...]):
        self.root = root
        self.files: dict[str, SourceFile] = {}
        for d in source_dirs:
            base = os.path.join(root, d)
            if not os.path.isdir(base):
                continue
            for dirpath, _dirnames, filenames in os.walk(base):
                for fn in sorted(filenames):
                    if not fn.endswith(CPP_EXTS):
                        continue
                    full = os.path.join(dirpath, fn)
                    rel = os.path.relpath(full, root).replace(os.sep, "/")
                    with open(full, encoding="utf-8") as f:
                        self.files[rel] = SourceFile(rel, f.read())
        self._compute_scope(scoped_dirs)

    def resolve_include(self, target: str) -> str | None:
        """Repo includes are rooted at src/ (see CMake include dirs)."""
        for cand in ("src/" + target, target):
            if cand in self.files:
                return cand
        return None

    def _compute_scope(self, scoped_dirs: tuple[str, ...]) -> None:
        """Seed from scoped directories, then pull in every repo file a
        scoped file (transitively) includes."""
        work = [p for p in self.files
                if p.startswith(scoped_dirs)]
        for p in work:
            self.files[p].in_scope = True
        while work:
            cur = work.pop()
            for inc in self.files[cur].includes:
                if inc.system:
                    continue
                dep = self.resolve_include(inc.target)
                if dep is not None and not self.files[dep].in_scope:
                    self.files[dep].in_scope = True
                    work.append(dep)
