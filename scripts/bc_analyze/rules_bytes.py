"""Byte-accounting rule B2 (narrowing casts on Bytes belong to V3).

B2 float-equality: reputation values and simulation times are doubles;
   ==/!= on them is almost never the comparison intended, and the two
   deliberate exceptions (exact tie checks in total-order comparators) are
   better written with </> so they self-document.
"""

from __future__ import annotations

import re

from bc_analyze.model import Finding
from bc_analyze.source import FLOAT_LITERAL_RE, IDENT_RE, SourceFile


def _typed_identifier(expr: str, local: set[str], other_typed: set[str],
                      global_names: set[str]) -> str | None:
    """First identifier in `expr` that resolves to the tracked type.

    Resolution order, designed to keep a heuristic frontend quiet rather
    than clever:
      - called names (identifier followed by `(` anywhere in the
        expression's line context) never match: call names like `.end()`
        and `.size()` collide with variable names from other files;
      - a file-local (or companion-header) declaration of the identifier
        with a *different* type (int/PeerId/... vs float, or vice versa)
        vetoes the match (`other_typed`);
      - file-local declarations of the tracked type match directly;
      - cross-file (global) names match only through a member access
        (`obj.name` / `ptr->name`): that is the shape by which another
        file's struct fields legitimately appear here, while a bare short
        local that happens to share a name with some other file's variable
        does not.
    """
    for m in IDENT_RE.finditer(expr):
        ident = m.group(0)
        rest = expr[m.end():].lstrip()
        if rest.startswith("("):
            continue  # a call, not a value
        if rest.startswith(".") or rest.startswith("->"):
            # `x.size()`, `h->total`: the value is the member (or call
            # result), which this loop examines on its own next.
            continue
        if ident in local:
            return ident
        if ident in other_typed:
            continue
        prefix = expr[:m.start()].rstrip()
        accessed = prefix.endswith(".") or prefix.endswith("->")
        if accessed and ident in global_names:
            return ident
    return None


# --- B2 ---------------------------------------------------------------------

EQUALITY_RE = re.compile(r"(?<![<>=!&|^+\-*/%])(==|!=)(?!=)")


def _operand(text: str, reverse: bool) -> str:
    """Text of the operand adjacent to an ==/!= occurrence.

    Walks outward from the operator, keeping balanced (...) / [...] groups
    together so call parentheses stay attached to their callee names.
    """
    if reverse:
        depth = 0
        i = len(text)
        while i > 0:
            c = text[i - 1]
            if c in ")]":
                depth += 1
            elif c in "([":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and (c in ";,{}?" or
                                 text[max(0, i - 2):i] in ("&&", "||")):
                break
            i -= 1
        out = text[i:]
        # Strip a leading keyword (return/if) left over from the statement.
        return re.sub(r"^\s*(?:return|if|while)\b", "", out)
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and (c in ";,{}?" or text[i:i + 2] in ("&&", "||")):
            break
        i += 1
    return text[:i]


def check_b2(sf: SourceFile, local_floats: set[str], other_typed: set[str],
             global_floats: set[str]) -> list[Finding]:
    out: list[Finding] = []
    for lineno, code in enumerate(sf.code_lines, start=1):
        if "operator==" in code or "operator!=" in code:
            continue
        for m in EQUALITY_RE.finditer(code):
            left = _operand(code[:m.start()], reverse=True).strip()
            right = _operand(code[m.end():], reverse=False).strip()
            culprit = None
            for side in (left, right):
                if FLOAT_LITERAL_RE.search(side):
                    culprit = f"float literal in `{side}`"
                    break
                hit = _typed_identifier(side, local_floats, other_typed,
                                        global_floats)
                if hit is not None:
                    culprit = f"`{hit}` is floating-point"
                    break
            if culprit is None:
                continue
            out.append(Finding(
                rule="B2", slug="float-equality", path=sf.rel, line=lineno,
                message=(f"{m.group(1)} on floating-point value ({culprit}):"
                         " use an explicit threshold, std::isnan, or"
                         " restructure the comparator around </> so exact"
                         " ties are impossible by construction"),
            ))
    return out
