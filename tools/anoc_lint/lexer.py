"""Lexical layer: comment/string blanking and suppression parsing.

Everything downstream (include graph, rule scans) works on
*sanitized* text: the original file with every comment and string/char
literal replaced by spaces, byte for byte, so offsets and line numbers
in findings always refer to the real file. Suppression comments are the
one thing read from the raw text, before blanking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


# `// anoc-lint: allow(D1) -- reason`  (also accepts /* ... */ bodies).
SUPPRESS_RE = re.compile(
    r"anoc-lint:\s*allow\(\s*([A-Za-z0-9_,\s]*?)\s*\)"
    r"(?:\s*--\s*(.*?))?\s*(?:\*/.*)?$"
)


@dataclass
class Suppression:
    """One `anoc-lint: allow(...)` comment."""

    line: int                 # 1-based line the comment sits on
    rules: tuple[str, ...]    # rule ids it allows, upper-cased
    reason: str               # mandatory justification ("" = missing)
    own_line: bool            # comment-only line => applies to line+1
    used: bool = field(default=False, compare=False)

    def applies_to(self, rule: str, line: int) -> bool:
        if rule.upper() not in self.rules:
            return False
        if line == self.line:
            return True
        return self.own_line and line == self.line + 1


def sanitize(text: str) -> str:
    """Blank comments and string/char literals, preserving layout.

    Replaced characters become spaces; newlines inside block comments
    and raw strings survive so line numbers stay aligned.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            _blank(out, i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            _blank(out, i, j)
            i = j
        elif c == '"' and text[i - 1 : i + 2] == 'R"(':
            # Only the common R"( ... )" form appears in this codebase.
            j = text.find(')"', i + 2)
            j = n if j < 0 else j + 2
            _blank(out, i, j)
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j = j + 2 if text[j] == "\\" else j + 1
            j = min(j + 1, n)
            # Keep the quotes themselves; blank the contents — except
            # in `#include "..."`, whose target the include graph needs.
            if not _is_include_target(text, i):
                _blank(out, i + 1, j - 1)
            i = j
        else:
            i += 1
    return "".join(out)


def _blank(out: list[str], start: int, end: int) -> None:
    for k in range(start, end):
        if out[k] != "\n":
            out[k] = " "


_INCLUDE_PREFIX_RE = re.compile(r"^\s*#\s*include\s*$")


def _is_include_target(text: str, quote_idx: int) -> bool:
    """True when the `"` at @p quote_idx opens an #include target."""
    line_start = text.rfind("\n", 0, quote_idx) + 1
    return bool(_INCLUDE_PREFIX_RE.match(text[line_start:quote_idx]))


def parse_suppressions(text: str) -> list[Suppression]:
    """Extract every allow() comment with its placement semantics."""
    sups: list[Suppression] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = SUPPRESS_RE.search(raw)
        if not m:
            continue
        rules = tuple(
            r.strip().upper() for r in m.group(1).split(",") if r.strip()
        )
        reason = (m.group(2) or "").strip()
        before = raw[: raw.find("anoc-lint:")]
        # Comment-only line: nothing but whitespace and the comment
        # opener precedes the directive.
        own_line = before.strip() in ("//", "/*", "")
        sups.append(Suppression(lineno, rules, reason, own_line))
    return sups
