"""Value-analysis rules V1-V4 (absint.py over callgraph.py).

V1 possible-overflow    an unguarded `+`/`*`/`+=`/`*=` on Bytes / int64
                        accounting values whose *derived* interval exceeds
                        [INT64_MIN, INT64_MAX]: signed overflow is UB and
                        silently corrupts reputations. Conversions through
                        src/util/checked.hpp (checked_add / checked_mul /
                        saturating_add) and dominating BC_ASSERT bounds
                        discharge the proof obligation.
V2 maybe-zero-divisor   `/` or `%` whose divisor interval contains zero
                        (Eq. 1 denominators, histogram bucket math, rate
                        computations) with no dominating guard proving it
                        nonzero.
V3 value-narrowing      a Bytes / loop-carried / int64-derived value cast
                        or stored into a narrower type (int, uint32_t,
                        NodeIndex, short, ... or double past 2^53) whose
                        interval does not fit the target range, including
                        *implicit* conversions a cast scan cannot see.
V4 unbounded-index      subscript arithmetic (`v[i + 1]`, `buf[cursor++]`,
                        `out[n - 1]`) with no dominating `size()` bound or
                        interval proof that the index stays in range.

All four evaluate over the interval domain with widening (absint.py) and
the whole-program summary table, and report evidence chains in the D4/C5
style: the derived interval, where it came from, and the sanctioned fix.
"""

from __future__ import annotations

import re

from bc_analyze.absint import (
    ASSIGN_RE,
    DOUBLE_EXACT_MAX,
    FunctionEval,
    I64_RANGE,
    INF,
    INT_LITERAL_RE,
    Interval,
    Summaries,
    _negate,
    eval_expr,
    guards_at,
    refine,
    split_top_level,
    type_range,
)
from bc_analyze.callgraph import FunctionDef, Program
from bc_analyze.model import Finding
from bc_analyze.source import SourceFile, final_identifier, match_paren

#: Additions below this magnitude cannot reach int64 overflow in any
#: physically realizable run (2^31 additions of 2^32 stay under 2^63):
#: `counter += 1` and `sum += uniform_int(1, kMiB)` are not V1 evidence,
#: an unbounded Bytes amount is.
V1_SMALL = 1 << 32

I64_DECL_RE = re.compile(
    r"(?:^|[(,;{<]|\s)(?:const\s+|constexpr\s+|static\s+)*"
    r"(?:Bytes|(?:std::)?int64_t|long\s+long)\s+(&?\s*[A-Za-z_]\w*)")
NARROW_DECL_RE = re.compile(
    r"(?:^|[;{(]\s*)((?:std::)?(?:u?int(?:8|16|32)_t)|int|short"
    r"|unsigned(?:\s+int)?|NodeIndex|PeerId|float|double)"
    r"\s+([A-Za-z_]\w*)\s*=([^=][^;]*);")
#: Plain narrow declarations without an initializer (`PeerId peer;`,
#: struct members, parameters): typing evidence for the tables, though
#: not a V3 narrowing site by themselves.
NARROW_PLAIN_RE = re.compile(
    r"(?:^\s*|[;{(,]\s*)(?:const\s+)?((?:std::)?(?:u?int(?:8|16|32)_t)|int"
    r"|short|unsigned(?:\s+int)?|NodeIndex|PeerId|float|double)"
    r"\s+([A-Za-z_]\w*)\s*[;,)=]")
DIV_RE = re.compile(r"(?<![/*])([/%])(?![/*=])")
SUBSCRIPT_RE = re.compile(r"([A-Za-z_]\w*)\s*\[([^\[\]]+)\]")
SIZE_FACT_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*(?:resize|assign)"
                          r"\s*\(\s*([^,()]+?)\s*[),]")
#: `std::vector<T> name(n)` / `std::array`-style sized construction: the
#: same size fact as a resize, one statement earlier.
SIZED_CTOR_RE = re.compile(r"\bvector\s*<[^;=]*?>\s+([A-Za-z_]\w*)"
                           r"\s*\(\s*([^,()]+?)\s*[),]")
CAST_RE = re.compile(r"\bstatic_cast\s*<\s*([^<>]*?)\s*>\s*\(")
TYPE_WORD_RE = re.compile(
    r"^(?:auto|int|short|long|char|bool|unsigned|signed|float|double|Bytes"
    r"|u?int(?:8|16|32|64)_t|size_t|NodeIndex|PeerId|constexpr|const"
    r"|static|new)$")

#: Narrow target ranges for V3: every type that cannot hold all of int64,
#: either because it is smaller or, for the 64-bit unsigned types, because
#: it has no negative values.
NARROW_RANGES: dict[str, Interval] = {
    t: type_range(t)
    for t in ("int", "int32_t", "std::int32_t", "uint32_t", "std::uint32_t",
              "short", "int16_t", "uint16_t", "int8_t", "uint8_t",
              "unsigned", "NodeIndex", "PeerId", "uint64_t", "std::uint64_t",
              "size_t", "std::size_t")
}


class _Tables:
    """Per-file (companion-merged) and cross-file identifier typing for the
    value rules, following the engine's ambiguity policy: a name declared
    with conflicting widths in different files is dropped from the
    cross-file table rather than guessed."""

    def __init__(self, program: Program):
        self.program = program
        local_i64: dict[str, set[str]] = {}
        local_narrow: dict[str, set[str]] = {}
        all_i64: set[str] = set()
        all_not_i64: set[str] = set()
        for rel, sf in program.by_rel.items():
            i64 = set(sf.bytes_vars)
            narrow: set[str] = set()
            for line in sf.code_lines:
                if line.lstrip().startswith("#"):
                    continue
                for m in I64_DECL_RE.finditer(line):
                    i64.add(m.group(1).lstrip("& "))
                for m in NARROW_PLAIN_RE.finditer(line):
                    narrow.add(m.group(2))
            i64 -= sf.float_vars
            local_i64[rel] = i64
            local_narrow[rel] = narrow
            all_i64 |= i64
            # Any non-int64 declaration of the name anywhere makes it too
            # ambiguous for the *cross-file* table (the per-file tables
            # still know better locally).
            all_not_i64 |= narrow | sf.float_vars
        ambiguous = all_i64 & all_not_i64
        self.global_i64 = all_i64 - ambiguous
        self.i64: dict[str, set[str]] = {}
        self.narrow: dict[str, set[str]] = {}
        self.floats: dict[str, set[str]] = {}
        self.ints: dict[str, set[str]] = {}
        for rel in program.by_rel:
            comp = (rel[:-4] + ".hpp" if rel.endswith(".cpp")
                    else rel[:-4] + ".cpp")
            self.i64[rel] = (local_i64[rel]
                             | local_i64.get(comp, set()))
            self.narrow[rel] = (local_narrow[rel]
                                | local_narrow.get(comp, set()))
            comp_sf = program.by_rel.get(comp)
            self.floats[rel] = (set(program.by_rel[rel].float_vars)
                                | (set(comp_sf.float_vars) if comp_sf
                                   else set()))
            self.ints[rel] = (program.by_rel[rel].int_vars
                              | (comp_sf.int_vars if comp_sf else set()))

    def is_i64(self, rel: str, name: str) -> bool:
        # File-local knowledge wins over the cross-file table: a name
        # declared narrow or floating *here* is not this file's int64, and
        # a name declared with any other type here (`std::uint64_t c`)
        # never inherits another file's `Bytes c`.
        if name in self.narrow.get(rel, ()) \
                or name in self.floats.get(rel, ()):
            return False
        if name in self.i64.get(rel, ()):
            return True
        return (name not in self.ints.get(rel, ())
                and name in self.global_i64)


def run_value_rules(program: Program, exempt) -> list[Finding]:
    """Entry point from the engine: all four value rules over the whole
    program, sharing one summary table and one typing pass."""
    summaries = Summaries(program)
    tables = _Tables(program)
    out: list[Finding] = []
    for fn in program.functions:
        sf = program.by_rel[fn.rel]
        ev = FunctionEval(fn, sf, summaries.env_for(fn))
        if not exempt("V1", fn.rel):
            out.extend(_check_v1(fn, sf, ev, tables))
        if not exempt("V2", fn.rel):
            out.extend(_check_v2(fn, sf, ev, program))
        if not exempt("V3", fn.rel):
            out.extend(_check_v3(fn, sf, ev, tables))
        if not exempt("V4", fn.rel):
            out.extend(_check_v4(fn, sf, ev))
    return out


# --- V1 ----------------------------------------------------------------------


def _is_accumulator(fn: FunctionDef, lhs: str, offset: int) -> bool:
    """The left side can already hold an int64-scale value: it persists
    across iterations (assignment inside a loop) or across calls (member
    paths and `_`-suffixed members)."""
    if fn.loop_depth_at(offset) > 0:
        return True
    return lhs.endswith("_") or "." in lhs or "->" in lhs


def _check_v1(fn: FunctionDef, sf: SourceFile, ev: FunctionEval,
              tables: _Tables) -> list[Finding]:
    code = sf.code
    out: list[Finding] = []
    # Scans start AT fn.start: the anchored regexes consume the opening
    # brace, so a first-statement site would be invisible from start + 1.
    for m in ASSIGN_RE.finditer(code, fn.start, fn.end):
        lhs, op, rhs = m.group(1), m.group(2), m.group(3)
        base = final_identifier(lhs)
        if base is None or not tables.is_i64(fn.rel, base):
            continue
        off = m.start(1)
        guards = guards_at(fn, sf, off)
        lhs_cur = refine(I64_RANGE, lhs, guards, ev.env)
        added: str | None = None
        kind = ""
        if op == "+":
            added, kind = rhs, "+="
        elif op == "*":
            added, kind = rhs, "*="
        elif op == "":
            lnorm = re.sub(r"\s+", "", lhs)
            parts = split_top_level(rhs, "+")
            terms = [p for p in parts if p != "+"]
            if len(terms) > 1 and any(
                    re.sub(r"\s+", "", t) == lnorm for t in terms):
                added = "+".join(t for t in terms
                                 if re.sub(r"\s+", "", t) != lnorm)
                kind = "x = x + e"
            else:
                factors = split_top_level(rhs, "*")
                fs = [p for p in factors if p != "*"]
                if len(fs) == 2:
                    a = refine(eval_expr(fs[0], ev.env), fs[0], guards,
                               ev.env)
                    b = refine(eval_expr(fs[1], ev.env), fs[1], guards,
                               ev.env)
                    if (a.mul(b).exceeds_int64()
                            and min(a.magnitude(), b.magnitude()) > V1_SMALL):
                        out.append(_v1_finding(
                            fn, sf, off, f"{lhs.strip()} = {rhs.strip()}",
                            a, b, a.mul(b), "product of two unbounded"
                            " int64 operands"))
                continue
        if added is None:
            continue
        rhs_ival = refine(eval_expr(added, ev.env), added, guards, ev.env)
        if kind == "*=":
            derived = lhs_cur.mul(rhs_ival)
            hot = min(lhs_cur.magnitude(), rhs_ival.magnitude()) > V1_SMALL
        else:
            if not _is_accumulator(fn, lhs, off):
                continue
            derived = lhs_cur.add(rhs_ival)
            hot = rhs_ival.magnitude() > V1_SMALL
        if derived.exceeds_int64() and hot:
            why = (f"`{added.strip()}` in {rhs_ival} is int64-scale and the"
                   f" accumulator already spans {lhs_cur}")
            out.append(_v1_finding(fn, sf, off,
                                   f"{lhs.strip()} {op}= {rhs.strip()}"
                                   if op else f"{lhs.strip()} = {rhs.strip()}",
                                   lhs_cur, rhs_ival, derived, why))
    return out


def _v1_finding(fn: FunctionDef, sf: SourceFile, off: int, stmt: str,
                a: Interval, b: Interval, derived: Interval,
                why: str) -> Finding:
    return Finding(
        rule="V1", slug="possible-overflow", path=fn.rel,
        line=sf.line_at(off),
        message=(f"possible signed int64 overflow: `{stmt}` in"
                 f" `{fn.qualname}` derives {a} (*) {b} -> {derived},"
                 f" outside int64 [{why}]; signed overflow is UB and"
                 " silently corrupts the Eq. 1 accounting — use"
                 " bc::util::checked_add / checked_mul / saturating_add"
                 " (src/util/checked.hpp) or establish a dominating"
                 " BC_ASSERT bound the interval analysis can see"))


# --- V2 ----------------------------------------------------------------------


def _operand_after(code: str, i: int, end: int) -> tuple[str | None, int]:
    """The divisor operand starting at or after `i`: a parenthesized
    expression, or an identifier path with calls/subscripts/casts."""
    while i < end and code[i] in " \t\n":
        i += 1
    if i >= end:
        return None, i
    start = i
    if code[i] == "(":
        close = match_paren(code, i)
        if close < 0 or close >= end:
            return None, i
        return code[start:close + 1], close + 1
    j = i
    while j < end:
        c = code[j]
        if c.isalnum() or c in "_.'":
            j += 1
            continue
        if c == "-" and j + 1 < end and code[j + 1] == ">":
            j += 2
            continue
        if c == ":" and j + 1 < end and code[j + 1] == ":":
            j += 2
            continue
        if c == "<":
            k = code.find(">", j, min(end, j + 80))
            if k < 0:
                break
            j = k + 1
            continue
        if c == "[":
            k = match_paren(code, j, "]")
            if k < 0 or k >= end:
                break
            j = k + 1
            continue
        if c == "(":
            k = match_paren(code, j)
            if k < 0 or k >= end:
                break
            j = k + 1
            continue
        break
    text = code[start:j].strip()
    return (text or None), j


def _nonzero_guarded(div: str, ival: Interval, guards: list[str]) -> bool:
    norm = re.sub(r"\s+", "", div)
    base = final_identifier(div)
    if not ival.contains(0):
        return True
    zero = r"0(?:\.0*)?[fFlL]?"
    for g in guards:
        gn = re.sub(r"\s+", "", g)
        if re.fullmatch(f"{re.escape(norm)}!={zero}", gn) \
                or re.fullmatch(f"{zero}!={re.escape(norm)}", gn):
            return True
        # `!xs.empty()` proves `xs.size()` (and anything derived from a
        # nonempty container's element count) nonzero.
        if base is not None and gn == f"!{_container_of(norm)}.empty()":
            return True
    return False


def _container_of(norm: str) -> str:
    m = re.match(r"^(.*)\.size\(\)$", norm)
    return m.group(1) if m else norm


#: Divisor shapes the domain has no information about: a call into code
#: outside the program (std::pow, std::sqrt, ...). Flagging those is pure
#: noise — "unknown" is not evidence of a zero.
_EXTERN_CALL_RE = re.compile(r"^((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*"
                             r"(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*\(")
_SIZE_LIKE = ("size", "length", "count", "capacity", "slot_count")


def _unknown_external_call(div: str, program: Program) -> bool:
    m = _EXTERN_CALL_RE.match(div)
    if not m or match_paren(div, div.index("(", m.start())) != len(div) - 1:
        return False
    base = re.split(r"::|\.|->", re.sub(r"\s+", "", m.group(1)))[-1]
    if base in _SIZE_LIKE or base == "static_cast":
        return False
    return not program.resolve(base)


def _incremented_before(fn: FunctionDef, sf: SourceFile, offset: int,
                        ev: FunctionEval) -> set[str]:
    """Names `++x`-ed (or `x++`-ed) textually before `offset` whose
    declared type is non-negative: afterwards the value is provably >= 1
    (an unsigned or asserted-nonnegative count cannot step to zero)."""
    out: set[str] = set()
    pat = re.compile(r"(?:\+\+\s*([A-Za-z_]\w*)|([A-Za-z_]\w*)\s*\+\+)")
    for m in pat.finditer(sf.code, fn.start + 1, offset):
        name = m.group(1) or m.group(2)
        if ev.env.types.get(name, I64_RANGE).lo >= 0:
            out.add(name)
    return out


def _ternary_guards(code: str, fn: FunctionDef, off: int) -> list[str]:
    """`cond ? a / b : c` (division in the true arm) makes `cond` hold at
    the division; `cond ? c : a / b` makes its negation hold. Scoped to
    the statement containing `off`."""
    stmt_start = max(code.rfind(c, fn.start, off) for c in ";{}")
    seg = code[stmt_start + 1:off]
    # Narrow to the innermost bracket still open at `off`: a ternary that
    # dominates the division must sit at that nesting level — e.g. the
    # condition in `fmt(n > 0 ? x / n : 0.0)` is invisible at statement
    # level because the `?` is nested inside the call.
    stack: list[int] = []
    for i, ch in enumerate(seg):
        if ch in "([{":
            stack.append(i)
        elif ch in ")]}" and stack:
            stack.pop()
    if stack:
        seg = seg[stack[-1] + 1:]
    seg = seg.replace("::", "\x00")
    pieces = split_top_level(seg, "?:")
    if len(pieces) < 3 or pieces[1] != "?":
        return []
    cond, arms = pieces[0], pieces[1:]
    # `f(a, b, cond ? ... : ...)` — earlier arguments are not part of the
    # condition: keep only the segment after the last top-level comma.
    cond = split_top_level(cond, ",")[-1]
    # `const double x = cond ? ... : ...` — drop the declarator/assignment
    # prefix so only the condition itself remains.
    am = re.search(r"(?<![=!<>+\-*/%&|^])=(?!=)", cond)
    if am:
        cond = cond[am.end():]
    # `return cond ? ... : ...` — the statement keyword is not part of the
    # condition either.
    cond = re.sub(r"^\s*(?:return|co_return|co_yield)\b", "", cond)
    conds: list[str] = []
    if ":" not in arms:
        conds.append(cond)        # off is inside the true arm
    elif arms.count(":") == arms.count("?"):
        neg = _negate(cond)       # off is inside the false arm
        if neg:
            conds.append(neg)
    flat: list[str] = []
    for c in conds:
        for atom in split_top_level(c, "&"):
            atom = atom.strip().strip("&").strip()
            if atom:
                flat.append(atom.replace("\x00", "::"))
    return flat


def _check_v2(fn: FunctionDef, sf: SourceFile, ev: FunctionEval,
              program: Program) -> list[Finding]:
    code = sf.code
    out: list[Finding] = []
    for m in DIV_RE.finditer(code, fn.start + 1, fn.end):
        line_no = sf.line_at(m.start())
        if sf.code_lines[line_no - 1].lstrip().startswith("#"):
            continue  # include paths and other preprocessor text
        div, _ = _operand_after(code, m.end(), fn.end)
        if div is None:
            continue
        inner = _cast_payload(div)
        probe = inner if inner is not None else div
        probe = probe.strip()
        if INT_LITERAL_RE.match(probe) \
                or re.fullmatch(r"[\d.]+[fFlL]?", probe):
            continue  # literal divisors: zero would be a visible bug
        if _unknown_external_call(probe, program):
            continue
        base = final_identifier(probe)
        if base is not None and base in _incremented_before(fn, sf,
                                                            m.start(), ev):
            continue
        guards = (guards_at(fn, sf, m.start())
                  + _ternary_guards(code, fn, m.start()))
        ival = refine(eval_expr(div, ev.env), div, guards, ev.env)
        if inner is not None:
            ival = ival.meet(refine(eval_expr(inner, ev.env), inner,
                                    guards, ev.env))
            if _nonzero_guarded(inner, ival, guards):
                continue
        if _nonzero_guarded(div, ival, guards):
            continue
        # A product is nonzero iff every factor is: decompose so a guard
        # on one factor (`calls > 0 ? x / (1e3 * calls) : ...`) plus a
        # literal factor discharges the whole divisor.
        factors = _product_factors(probe)
        if len(factors) > 1 and all(
                _factor_nonzero(f, guards, ev.env) for f in factors):
            continue
        op = "modulo" if m.group(1) == "%" else "division"
        out.append(Finding(
            rule="V2", slug="maybe-zero-divisor", path=fn.rel,
            line=line_no,
            message=(f"{op} by `{div}` in `{fn.qualname}` whose derived"
                     f" interval {ival} contains zero and no dominating"
                     " guard excludes it; a zero denominator here poisons"
                     " the Eq. 1 ratio (or traps) — guard with"
                     f" `BC_ASSERT({div} != 0)` / an early return the"
                     " analysis can see, or restructure the computation")))
    return out


def _product_factors(expr: str) -> list[str]:
    expr = expr.strip()
    while expr.startswith("(") and match_paren(expr, 0) == len(expr) - 1:
        expr = expr[1:-1].strip()
    parts = split_top_level(expr, "*/%")
    if any(p in ("/", "%") for p in parts):
        return [expr]  # quotients do not decompose multiplicatively
    return [p.strip() for p in parts if p.strip() and p != "*"]


def _factor_nonzero(factor: str, guards: list[str], env) -> bool:
    inner = _cast_payload(factor)
    probe = (inner if inner is not None else factor).strip()
    ival = refine(eval_expr(probe, env), probe, guards, env)
    return _nonzero_guarded(probe, ival, guards)


def _cast_payload(expr: str) -> str | None:
    m = CAST_RE.match(expr)
    if not m:
        return None
    close = match_paren(expr, m.end() - 1)
    if close == len(expr) - 1:
        return expr[m.end():close]
    return None


# --- V3 ----------------------------------------------------------------------


def _involves_i64(expr: str, rel: str, tables: _Tables,
                  widened: set[str]) -> str | None:
    """The first *leaf* identifier in `expr` that is int64-typed or
    loop-widened — the value-range narrowing evidence V3 requires. An
    identifier followed by `.`, `->`, `(`, `[` or `::` is an object,
    container or function base whose own name says nothing about the
    value produced (`out[i].peer` is as narrow as `peer`, whatever type
    some other `out` has)."""
    for m in re.finditer(r"[A-Za-z_]\w*", expr):
        tail = expr[m.end():].lstrip()
        if tail.startswith((".", "->", "(", "[", "::")):
            continue
        ident = m.group(0)
        if tables.is_i64(rel, ident):
            return ident
        # A loop-widened name is int64-scale evidence only when the file
        # does not itself declare it narrow or floating (`int piece` that
        # the loop widened is still an int-valued pick, not a Bytes sum).
        if ident in widened and ident not in tables.narrow.get(rel, ()) \
                and ident not in tables.floats.get(rel, ()):
            return ident
    return None


def _check_v3(fn: FunctionDef, sf: SourceFile, ev: FunctionEval,
              tables: _Tables) -> list[Finding]:
    code = sf.code
    out: list[Finding] = []

    def narrowing(target_type: str, target_range: Interval, expr: str,
                  off: int, how: str, float_target: bool = False) -> None:
        witness = _involves_i64(expr, fn.rel, tables, ev.widened)
        if witness is None:
            return
        # Float/double targets lose nothing below 2^53; per the rule's
        # charter the hazard is a *loop-carried* int64 accumulator pushed
        # past exact-double range — one-shot display conversions of a
        # bounded value are not evidence.
        if float_target and witness not in ev.widened:
            return
        guards = guards_at(fn, sf, off)
        ival = refine(eval_expr(expr, ev.env), expr, guards, ev.env)
        wival = refine(ev.env.get(witness), witness, guards, ev.env)
        if ival.fits(target_range.lo, target_range.hi) \
                or wival.fits(target_range.lo, target_range.hi):
            return
        carried = " (loop-widened accumulator)" if witness in ev.widened \
            else ""
        out.append(Finding(
            rule="V3", slug="value-narrowing", path=fn.rel,
            line=sf.line_at(off),
            message=(f"lossy narrowing: {how} stores `{expr.strip()}` with"
                     f" derived interval {ival} into {target_type}"
                     f" {target_range} in `{fn.qualname}` [witness:"
                     f" `{witness}` in {wival}{carried}]; the value range"
                     " does not fit — widen the destination, clamp"
                     " explicitly, or bound the source with a dominating"
                     " BC_ASSERT")))

    # Anchored scans start AT fn.start so first-statement sites match.
    for m in NARROW_DECL_RE.finditer(code, fn.start, fn.end):
        t = m.group(1)
        rng = NARROW_RANGES.get(t) or NARROW_RANGES.get(
            t.replace("std::", ""))
        if rng is None:
            if t in ("float", "double"):
                rng = Interval(-DOUBLE_EXACT_MAX, DOUBLE_EXACT_MAX)
            else:
                continue
        # `uint8_t a = 0, b = 0;` — only the first declarator's initializer
        # belongs to this name; the tail is a separate declaration.
        init = split_top_level(m.group(3), ",")[0]
        narrowing(t, rng, init, m.start(2),
                  f"initialization of `{m.group(2)}`",
                  float_target=t in ("float", "double"))
    for m in ASSIGN_RE.finditer(code, fn.start, fn.end):
        lhs, op, rhs = m.group(1), m.group(2), m.group(3)
        if op:
            continue
        base = final_identifier(lhs)
        if base is None or base not in tables.narrow.get(fn.rel, ()):
            continue
        if base in tables.floats.get(fn.rel, ()):
            # Floating target: only the loop-carried-past-2^53 hazard
            # applies (same charter as the float cast/init paths).
            rng = Interval(-DOUBLE_EXACT_MAX, DOUBLE_EXACT_MAX)
            narrowing("double", rng, rhs, m.start(1),
                      f"assignment to `{lhs.strip()}`", float_target=True)
            continue
        # The exact narrow type behind the name is not tracked; use the
        # widest narrow range (int32 join uint32) as a permissive default
        # so only genuinely int64-scale stores fire.
        rng = NARROW_RANGES["uint32_t"].join(NARROW_RANGES["int"])
        narrowing("a narrower-than-int64 type", rng, rhs, m.start(1),
                  f"assignment to `{lhs.strip()}`")
    for m in CAST_RE.finditer(code, fn.start + 1, fn.end):
        t = re.sub(r"\s+|const", "", m.group(1))
        rng = NARROW_RANGES.get(t) or NARROW_RANGES.get(
            t.replace("std::", ""))
        is_float = t in ("float", "double")
        if rng is None:
            if is_float:
                rng = Interval(-DOUBLE_EXACT_MAX, DOUBLE_EXACT_MAX)
            else:
                continue
        close = match_paren(code, m.end() - 1)
        if close < 0 or close > fn.end:
            continue
        inner = code[m.end():close]
        narrowing(f"static_cast<{m.group(1).strip()}>", rng, inner,
                  m.start(), "cast of", float_target=is_float)
    return out


# --- V4 ----------------------------------------------------------------------


def _size_facts(fn: FunctionDef, sf: SourceFile, offset: int,
                ev: FunctionEval) -> dict[str, tuple[str, Interval]]:
    """container name -> (size expression text, element-count interval)
    from resize/assign calls and sized vector constructions textually
    before `offset` in the body."""
    facts: dict[str, tuple[str, Interval]] = {}
    for pat in (SIZE_FACT_RE, SIZED_CTOR_RE):
        for m in pat.finditer(sf.code, fn.start + 1, offset):
            facts[m.group(1)] = (m.group(2), eval_expr(m.group(2), ev.env))
    return facts


def _index_bounded(idx: str, cont: str, fn: FunctionDef, sf: SourceFile,
                   off: int, ev: FunctionEval) -> bool:
    guards = guards_at(fn, sf, off)
    gnorms = [re.sub(r"\s+", "", g) for g in guards]
    norm = re.sub(r"\s+", "", idx)
    # `buf[cursor++]` / `buf[--n]`: the bound must cover the pre-step value.
    stepped = re.fullmatch(r"(?:\+\+|--)?([A-Za-z_]\w*)(?:\+\+|--)?", norm)
    probe = stepped.group(1) if stepped else norm
    for gn in gnorms:
        m = re.match(r"^(.+?)(<|<=)(.+)$", gn)
        if not m or "=" in m.group(1)[-1:]:
            continue
        left, right = m.group(1), m.group(3)
        if left == probe or left == norm:
            return True
        # Offset form: `v[i + k]` sanctioned by `i < bound - k` or
        # `i + k < bound`.
        om = re.fullmatch(r"([A-Za-z_]\w*)\+(\d+)", norm)
        if om and left == om.group(1) and right.endswith(f"-{om.group(2)}"):
            return True
    facts = _size_facts(fn, sf, off, ev)
    # Decrement form `v[n - k]`: interval proof that n >= k, with an upper
    # bound tying n to the container — a guard, a `cont.size()` mention,
    # or a size fact recording that cont was sized with exactly `n`.
    om = re.fullmatch(r"([A-Za-z_]\w*)-(\d+)", norm)
    if om:
        n_name, k = om.group(1), int(om.group(2))
        nv = refine(ev.env.get(n_name), n_name, guards, ev.env)
        upper_ok = any(gn.startswith(f"{n_name}<=")
                       or gn.startswith(f"{n_name}<")
                       for gn in gnorms)
        sized_by_n = (cont in facts
                      and re.sub(r"\s+", "", facts[cont][0]) == n_name)
        if nv.lo >= k and (upper_ok or sized_by_n
                           or f"{cont}.size()" in "".join(gnorms)):
            return True
    # Interval proof against a recorded resize/assign/construction fact.
    if cont in facts:
        size = facts[cont][1]
        ival = refine(eval_expr(idx, ev.env), idx, guards, ev.env)
        if not size.is_bottom() and size.lo != -INF \
                and ival.fits(0, size.lo - 1):
            return True
    return False


def _check_v4(fn: FunctionDef, sf: SourceFile,
              ev: FunctionEval) -> list[Finding]:
    code = sf.code
    out: list[Finding] = []
    for m in SUBSCRIPT_RE.finditer(code, fn.start + 1, fn.end):
        cont, idx = m.group(1), m.group(2)
        if "(" in idx:
            continue  # call-containing indexes: out of the domain's reach
        clean = idx.replace("->", ".")
        if not re.search(r"\+\+|--|[+\-*]", clean):
            continue  # plain `v[i]` indexing is B-rule/asan territory
        if not re.search(r"[A-Za-z_]", clean):
            continue  # constant arithmetic folds at compile time
        # `Type name[expr]` declarations and `new T[n]`: a size, not an
        # access. Two adjacent identifiers (`Foo bar[...]`) can only be a
        # declarator in C++ — unless the first is an expression keyword
        # (`return arr[i + 1]` is an access).
        j = m.start() - 1
        while j > fn.start and code[j] in " \t\n":
            j -= 1
        if code[j].isalnum() or code[j] == "_":
            k = j
            while k > fn.start and (code[k].isalnum() or code[k] == "_"):
                k -= 1
            word = code[k + 1:j + 1]
            if word not in ("return", "case", "else", "co_return",
                            "co_yield", "throw"):
                continue
        if _index_bounded(idx, cont, fn, sf, m.start(), ev):
            continue
        guards = guards_at(fn, sf, m.start())
        ival = refine(eval_expr(idx, ev.env), idx, guards, ev.env)
        out.append(Finding(
            rule="V4", slug="unbounded-index", path=fn.rel,
            line=sf.line_at(m.start()),
            message=(f"index arithmetic `{cont}[{idx.strip()}]` in"
                     f" `{fn.qualname}` with derived index interval"
                     f" {ival} and no dominating size bound; prove it"
                     f" with `BC_ASSERT({idx.strip()} <"
                     f" {cont}.size())` (or a loop condition / resize"
                     " fact the interval analysis can see) before the"
                     " access")))
    return out
