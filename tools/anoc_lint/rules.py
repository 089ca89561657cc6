"""The codified rule set.

Each rule is derived from a documented-but-previously-unchecked
contract; docs/static-analysis.md carries the catalog with rationale
and links each rule to its contract section. Rules emit Finding
objects; the driver applies suppressions and renders reports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import SourceFile, Tree


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    reason: str = ""

    def to_json(self) -> dict:
        d = {
            "rule": self.rule,
            "file": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
        }
        if self.suppressed:
            d["reason"] = self.reason
        return d


RULES = {
    "D1": "no nondeterminism sources on deterministic paths",
    "D2": "no unordered-container iteration (order-dependent output)",
    "C2": "API hygiene (double probes, notify_delay)",
    "S1": "AVX2 guards need a scalar twin and a named differential test",
    "SUP": "suppressions must carry a reason and name real rules",
}

# ---------------------------------------------------------------- D1 --

# Each entry: (compiled pattern, what to say). Scanned over sanitized
# text of in-scope files, line by line.
_D1_PATTERNS = [
    (re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\("),
     "C rand()/srand() is nondeterministic across libcs and seeds "
     "globally; use common/rng.h (explicit seed) instead"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device draws entropy from the host; deterministic "
     "paths must seed from the experiment spec (common/rng.h)"),
    (re.compile(r"\b(?:system_clock|high_resolution_clock|steady_clock)\b"),
     "wall-clock reads are nondeterministic; simulated time comes from "
     "Cycle parameters, and profiling belongs behind the "
     "telemetry::PhaseProfiler wall-clock boundary"),
    (re.compile(r"\b(?:gettimeofday|localtime|strftime|mktime|ctime)\b"),
     "calendar/wall-clock call on a deterministic path"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time() reads the host clock on a deterministic path"),
    (re.compile(r"^\s*#\s*include\s*<random>"),
     "<random> on a deterministic path; engines must be explicitly "
     "seeded via common/rng.h so draws replay"),
    (re.compile(r"\bstd\s*::\s*(?:map|set|multimap|multiset)\s*<[^<>,;]*\*"),
     "ordered container keyed by pointer: iteration order follows the "
     "allocator, not the program; key by a stable id instead"),
]


def check_d1(sf: SourceFile) -> list[Finding]:
    if not sf.in_scope:
        return []
    out = []
    for lineno, line in enumerate(sf.sanitized.splitlines(), start=1):
        for pat, why in _D1_PATTERNS:
            if pat.search(line):
                out.append(Finding("D1", sf.path, lineno, why))
    return out


# ---------------------------------------------------------------- D2 --

_UNORDERED_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")

_RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(([^;{}]*?):([^;{})]*)\)")

_ITER_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?r?begin\s*\(")


def _unordered_names(sf: SourceFile, tree: Tree) -> set[str]:
    """Identifiers declared (here or in a directly-included repo
    header) with an unordered container type."""
    names = _scan_unordered_decls(sf.sanitized)
    for inc in sf.includes:
        dep = tree.resolve_include(inc.target) if not inc.system else None
        if dep is not None:
            names |= _scan_unordered_decls(tree.files[dep].sanitized)
    return names


def _scan_unordered_decls(sanitized: str) -> set[str]:
    names: set[str] = set()
    for m in _UNORDERED_RE.finditer(sanitized):
        i = m.end()  # just past '<'
        depth = 1
        while i < len(sanitized) and depth:
            if sanitized[i] == "<":
                depth += 1
            elif sanitized[i] == ">":
                depth -= 1
            i += 1
        tail = sanitized[i : i + 120]
        dm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*(?:[;,={(\[)]|$)", tail)
        if dm:
            names.add(dm.group(1))
    return names


def check_d2(sf: SourceFile, tree: Tree) -> list[Finding]:
    if not sf.in_scope:
        return []
    names = _unordered_names(sf, tree)
    if not names:
        return []
    out = []
    for lineno, line in enumerate(sf.sanitized.splitlines(), start=1):
        for m in _RANGE_FOR_RE.finditer(line):
            expr = m.group(2).strip()
            root = re.match(r"[(*&\s]*([A-Za-z_]\w*)", expr)
            if root and root.group(1) in names:
                out.append(Finding(
                    "D2", sf.path, lineno,
                    f"iteration over unordered container "
                    f"'{root.group(1)}': order is hash-seed dependent "
                    f"and must not reach artifacts, merges or traces; "
                    f"use an ordered container or sort explicitly"))
        for m in _ITER_CALL_RE.finditer(line):
            if m.group(1) in names:
                out.append(Finding(
                    "D2", sf.path, lineno,
                    f"iterator walk over unordered container "
                    f"'{m.group(1)}': order is hash-seed dependent; "
                    f"use an ordered container or sort explicitly"))
    return out


# ---------------------------------------------------------------- C2 --

_SEARCH_RE = re.compile(
    r"([A-Za-z_][\w.\->]*?)\s*(?:\.|->)\s*search(?:Visit)?\s*\(")
_REPROBE_RE_TMPL = r"{recv}\s*(?:\.|->)\s*(?:peek|searchAll|findPattern)\s*\("

_HOT_PATH_DIRS = ("src/compression/", "src/approx/", "src/tcam/")
_DOUBLE_PROBE_WINDOW = 12  # lines

_NOTIFY_DELAY_RE = re.compile(r"\bnotify_delay\s*(?:=|\{)\s*0\b")


def check_c2(sf: SourceFile) -> list[Finding]:
    out = []
    lines = sf.sanitized.splitlines()
    if sf.path.startswith(_HOT_PATH_DIRS):
        out.extend(_check_double_probe(sf, lines))

    for lineno, line in enumerate(lines, start=1):
        if _NOTIFY_DELAY_RE.search(line):
            out.append(Finding(
                "C2", sf.path, lineno,
                "notify_delay = 0 constructs a dictionary whose "
                "update notifications apply within the issuing cycle, "
                "which the consistency protocol forbids "
                "(compression/dictionary.h requires notify_delay >= 1)"))
    return out


def _check_double_probe(sf: SourceFile, lines: list[str]) -> list[Finding]:
    """A counted search() immediately re-probed with peek()/searchAll()
    on the same receiver pays two match-engine probes for one lookup;
    Tcam::searchVisit visits the full match set in one probe."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        for m in _SEARCH_RE.finditer(line):
            recv = m.group(1)
            reprobe = re.compile(
                _REPROBE_RE_TMPL.format(recv=re.escape(recv)))
            upper = min(len(lines), lineno + _DOUBLE_PROBE_WINDOW)
            for nxt in range(lineno, upper):
                if reprobe.search(lines[nxt]):
                    out.append(Finding(
                        "C2", sf.path, nxt + 1,
                        f"double probe: '{recv}' is re-probed after a "
                        f"counted search() at line {lineno}; use "
                        f"searchVisit() to walk the match set in one "
                        f"probe (see docs/perf.md, bit-sliced TCAM)"))
                    break
    return out


# ---------------------------------------------------------------- S1 --

# Any preprocessor conditional whose condition mentions AVX2 — the
# literal __AVX2__ feature macro or a derived guard like
# ANOC_HAVE_AVX2_KERNEL. Matched against the *logical* directive line
# (backslash continuations joined).
_S1_GUARD_RE = re.compile(r"^\s*#\s*(el)?if(?:n?def)?\b.*AVX2")
_S1_IF_RE = re.compile(r"^\s*#\s*if(?:n?def)?\b")
_S1_ELSE_RE = re.compile(r"^\s*#\s*(?:else\b|elif\b)")
_S1_ENDIF_RE = re.compile(r"^\s*#\s*endif\b")

# `// anoc-simd-test: Suite.Name` — names the differential test that
# exercises both sides of the guard. Read from raw text (it is a
# comment, which sanitization blanks).
_S1_MARKER_RE = re.compile(
    r"anoc-simd-test:\s*([A-Za-z_]\w*)\s*\.\s*([A-Za-z_]\w*)")

# How many raw lines above the #if the marker may sit.
_S1_MARKER_LOOKBACK = 3


def _logical_lines(text: str) -> list[tuple[int, str]]:
    """(first_lineno, joined_text) pairs with backslash continuations
    folded, so a wrapped #if condition is matched as one line."""
    out: list[tuple[int, str]] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        start = i
        cur = lines[i]
        while cur.rstrip().endswith("\\") and i + 1 < len(lines):
            i += 1
            cur = cur.rstrip()[:-1] + " " + lines[i]
        out.append((start + 1, cur))
        i += 1
    return out


def _s1_test_exists(tree: Tree, suite: str, name: str) -> bool:
    """Does TEST/TEST_F/TEST_P(suite, name) exist under tests/?"""
    pat = re.compile(
        r"TEST(?:_F|_P)?\s*\(\s*" + re.escape(suite)
        + r"\s*,\s*" + re.escape(name) + r"\s*[,)]")
    for path, dep in tree.files.items():
        if path.startswith("tests/") and pat.search(dep.sanitized):
            return True
    return False


def check_s1(sf: SourceFile, tree: Tree) -> list[Finding]:
    """Every AVX2-conditional compilation site must carry (a) a scalar
    `#else`/`#elif` twin at the guard's own nesting depth, so non-AVX2
    builds get a real fallback rather than a hole, and (b) an
    `anoc-simd-test: Suite.Name` marker naming an existing differential
    test in tests/, so the twin pair is provably exercised
    bit-identically (see docs/perf.md, SIMD match kernels)."""
    logical = _logical_lines(sf.text)
    raw_lines = sf.text.splitlines()
    out = []
    for idx, (lineno, text) in enumerate(logical):
        if not _S1_GUARD_RE.match(text):
            continue
        # Walk to the guard's matching #endif, noting a same-depth
        # #else/#elif. A flagged #elif starts inside its #if, which
        # the same depth-1 bookkeeping handles.
        depth = 1
        has_twin = False
        end_lineno = logical[-1][0]
        for nxt_lineno, nxt in logical[idx + 1:]:
            if _S1_IF_RE.match(nxt):
                depth += 1
            elif _S1_ENDIF_RE.match(nxt):
                depth -= 1
                if depth == 0:
                    end_lineno = nxt_lineno
                    break
            elif depth == 1 and _S1_ELSE_RE.match(nxt):
                has_twin = True
        if not has_twin:
            out.append(Finding(
                "S1", sf.path, lineno,
                "AVX2-guarded block has no scalar #else/#elif twin; "
                "every SIMD site needs a portable fallback compiled on "
                "non-AVX2 builds"))
        # Marker: inside the guarded span, or just above the #if.
        lo = max(0, lineno - 1 - _S1_MARKER_LOOKBACK)
        window = "\n".join(raw_lines[lo:end_lineno])
        markers = _S1_MARKER_RE.findall(window)
        if not markers:
            out.append(Finding(
                "S1", sf.path, lineno,
                "AVX2-guarded block has no 'anoc-simd-test: Suite.Name' "
                "marker naming the differential test that locks the "
                "SIMD/scalar pair together"))
            continue
        for suite, name in markers:
            if not _s1_test_exists(tree, suite, name):
                out.append(Finding(
                    "S1", sf.path, lineno,
                    f"anoc-simd-test marker names '{suite}.{name}', "
                    f"but no TEST/TEST_F/TEST_P({suite}, {name}) exists "
                    f"under tests/"))
    return out


# --------------------------------------------------------------- SUP --

def check_sup(sf: SourceFile) -> list[Finding]:
    out = []
    for sup in sf.suppressions:
        if not sup.reason:
            out.append(Finding(
                "SUP", sf.path, sup.line,
                "suppression without a reason: write "
                "'// anoc-lint: allow(<rule>) -- <why this is safe>'"))
        for r in sup.rules:
            if r not in RULES or r == "SUP":
                out.append(Finding(
                    "SUP", sf.path, sup.line,
                    f"suppression names unknown rule '{r}' "
                    f"(known: {', '.join(k for k in RULES if k != 'SUP')})"))
    return out


# ------------------------------------------------------------ driver --

def run_all(tree: Tree, paths: list[str] | None = None) -> list[Finding]:
    findings: list[Finding] = []
    for path in sorted(tree.files):
        if paths and not any(path == p or path.startswith(p.rstrip("/") + "/")
                             for p in paths):
            continue
        sf = tree.files[path]
        file_findings = (check_d1(sf) + check_d2(sf, tree) + check_c2(sf)
                         + check_s1(sf, tree) + check_sup(sf))
        _apply_suppressions(sf, file_findings)
        findings.extend(file_findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _apply_suppressions(sf: SourceFile, findings: list[Finding]) -> None:
    for f in findings:
        if f.rule == "SUP":
            continue  # suppression hygiene itself cannot be waived
        for sup in sf.suppressions:
            if sup.applies_to(f.rule, f.line):
                sup.used = True
                if sup.reason:
                    f.suppressed = True
                    f.reason = sup.reason
                break
