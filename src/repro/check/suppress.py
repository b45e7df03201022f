"""``noqa`` suppression handling for ``repro-lint``.

A finding is suppressed by a ``# noqa`` or ``# noqa: REPRO502`` marker
on the offending line, ideally followed by a justification comment.
This module parses those markers, applies them to raw findings, and
detects markers that no longer suppress anything so the baseline can
be pruned (``repro-lint --prune-baseline``) and CI can fail on stale
suppressions (``REPRO507``).

A code whose rule was skipped for a file (``REPRO506`` outside the
volume kernel, say) cannot be judged there.  Any other ``REPRO`` code
that suppressed nothing is stale — including one that no rule emits,
such as a leftover from a deleted rule.  Codes belonging to other
tools (``B018``, ``E501``, ...) are never repro-lint's business.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

__all__ = [
    "NoqaMarker",
    "find_markers",
    "apply_suppressions",
    "stale_codes",
    "prune_markers",
]

#: Matches a noqa marker and its optional code list: bare, one code
#: ("noqa: REPRO501"), or several ("noqa: REPRO501, B018").
_MARKER_RE = re.compile(
    r"#\s*noqa(?P<codes>:[^#]*)?(?![\w-])", re.IGNORECASE
)

_REPRO_CODE_RE = re.compile(r"^REPRO\d{3}$")


@dataclass
class NoqaMarker:
    """One ``# noqa`` marker found on a source line.

    ``codes`` is empty for a bare ``# noqa`` (suppresses everything).
    ``used`` collects the REPRO codes the marker actually suppressed
    when findings were applied against it.
    """

    lineno: int
    start: int            # character offset of the marker in its line
    end: int              # offset one past the marker's code list
    codes: List[str]      # empty == bare noqa
    used: Set[str]

    @property
    def bare(self) -> bool:
        return not self.codes

    def suppresses(self, code: str) -> bool:
        return self.bare or code in self.codes

    def repro_codes(self) -> List[str]:
        return [c for c in self.codes if _REPRO_CODE_RE.match(c)]


def _marker_from_match(
    lineno: int, offset: int, match: "re.Match[str]"
) -> NoqaMarker:
    raw = match.group("codes")
    codes: List[str] = []
    end = match.end()
    if raw:
        codes = [
            c.strip().upper()
            for c in raw.lstrip(":").split(",")
            if c.strip()
        ]
        # The code list runs up to the next "#"; the whitespace before a
        # trailing justification comment is not part of it.
        end = match.start("codes") + len(raw.rstrip())
    return NoqaMarker(
        lineno=lineno,
        start=offset + match.start(),
        end=offset + end,
        codes=codes,
        used=set(),
    )


def find_markers(source: str) -> Dict[int, NoqaMarker]:
    """lineno -> marker for every ``# noqa`` comment in the source.

    Tokenizes so that ``noqa`` text inside string literals (lint-rule
    test fixtures are full of it) is not mistaken for a marker; falls
    back to a plain line scan when the source does not tokenize.
    """
    markers: Dict[int, NoqaMarker] = {}
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        tokens = None
    if tokens is not None:
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _MARKER_RE.search(token.string)
            if match is None:
                continue
            lineno, column = token.start
            markers[lineno] = _marker_from_match(lineno, column, match)
        return markers
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _MARKER_RE.search(line)
        if match is not None:
            markers[lineno] = _marker_from_match(lineno, 0, match)
    return markers


def apply_suppressions(
    findings: Sequence[Tuple[str, int]],
    markers: Dict[int, NoqaMarker],
) -> List[bool]:
    """Decide, per ``(code, lineno)`` finding, whether it survives.

    Returns a parallel list of booleans (``True`` = keep).  Markers that
    suppress a finding record the code in their ``used`` set, which is
    what stale-marker detection inspects afterwards.
    """
    keep: List[bool] = []
    for code, lineno in findings:
        marker = markers.get(lineno)
        if marker is not None and marker.suppresses(code):
            marker.used.add(code)
            keep.append(False)
        else:
            keep.append(True)
    return keep


def stale_codes(
    marker: NoqaMarker, skipped_codes: Set[str]
) -> List[str]:
    """The marker's REPRO codes that suppressed nothing.

    Codes in ``skipped_codes`` — registered rules that did not run over
    the file — cannot be judged and are never stale.  For a bare marker
    the answer is ``["noqa"]`` when it suppressed nothing at all (bare
    markers are repo policy-violating anyway; prefer coded ones).
    """
    if marker.bare:
        return [] if marker.used else ["noqa"]
    return [
        code
        for code in marker.repro_codes()
        if code not in skipped_codes and code not in marker.used
    ]


def prune_markers(
    source: str,
    markers: Dict[int, NoqaMarker],
    skipped_codes: Set[str],
) -> Tuple[str, int]:
    """Rewrite the source with stale suppression entries removed.

    * A marker whose REPRO codes are all stale (or a bare marker that
      suppressed nothing) is stripped to the end of the line — the
      trailing justification comment exists only to justify it.
    * A partially stale code list is rewritten keeping the codes that
      still suppress something plus any non-REPRO codes (other tools'
      suppressions are not ours to touch).

    Returns ``(new_source, pruned_marker_count)``.
    """
    lines = source.splitlines(keepends=True)
    pruned = 0
    for lineno, marker in markers.items():
        stale = stale_codes(marker, skipped_codes)
        if not stale:
            continue
        index = lineno - 1
        line = lines[index]
        newline = line[len(line.rstrip("\r\n")):]
        body = line.rstrip("\r\n")
        keep_codes = [
            c for c in marker.codes
            if not (_REPRO_CODE_RE.match(c) and c in stale)
        ]
        if marker.bare or not keep_codes:
            body = body[:marker.start].rstrip()
        else:
            head = body[:marker.start]
            tail = body[marker.end:]
            body = f"{head}# noqa: {', '.join(keep_codes)}{tail}"
        lines[index] = body + newline
        pruned += 1
    return "".join(lines), pruned
