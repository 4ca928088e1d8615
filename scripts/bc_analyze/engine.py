"""Analysis orchestration: file collection, frontends, suppression, output."""

from __future__ import annotations

import argparse
import concurrent.futures
import sys
import time
from pathlib import Path

from bc_analyze import RULES, RULE_EXEMPT_PREFIXES, __version__
from bc_analyze import clang_frontend
from bc_analyze.cache import (
    AnalysisCache,
    IncludeCloser,
    file_digest,
    run_key,
)
from bc_analyze.callgraph import Program
from bc_analyze.model import Finding
from bc_analyze.rules_bytes import check_b2
from bc_analyze.rules_concurrency import check_c1, check_c2, check_c3
from bc_analyze.rules_dataflow import (
    check_c4,
    check_c5,
    check_d4,
    check_p1,
    extra_d4_sources,
)
from bc_analyze.rules_determinism import check_d1, check_d2, check_d3
from bc_analyze.rules_graph import check_g1
from bc_analyze.rules_lifetime import run_lifetime_rules
from bc_analyze.rules_value import run_value_rules
from bc_analyze.sarif import write_sarif
from bc_analyze.source import SourceFile, load_source

DEFAULT_PATHS = ["src", "bench", "examples"]


def collect_files(repo_root: Path, paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for arg in paths:
        p = Path(arg) if Path(arg).is_absolute() else repo_root / arg
        if p.is_dir():
            files.extend(sorted(p.rglob("*.hpp")))
            files.extend(sorted(p.rglob("*.cpp")))
        elif p.is_file():
            files.append(p)
        else:
            print(f"bc-analyze: no such path: {arg}", file=sys.stderr)
            sys.exit(2)
    return files


def relpath(path: Path, repo_root: Path) -> str:
    try:
        return path.resolve().relative_to(repo_root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _exempt(rule: str, rel: str) -> bool:
    return any(rel.startswith(p) for p in RULE_EXEMPT_PREFIXES.get(rule, ()))


class Analysis:
    def __init__(self, repo_root: Path):
        self.repo_root = repo_root
        self.sources: list[SourceFile] = []
        # Cross-file name tables: member declarations live in headers while
        # the loops and casts that use them live in .cpp files.
        self.global_unordered: set[str] = set()
        self.global_unordered_fns: set[str] = set()
        self.global_subscript: set[str] = set()
        self.global_ordered: set[str] = set()
        self.global_ordered_fns: set[str] = set()
        self.global_floats: set[str] = set()
        self.global_bytes: set[str] = set()
        self.frontends = ["tokens"]
        self.program: Program | None = None

    def load(self, files: list[Path]) -> None:
        known = set(RULES)
        for f in files:
            sf = load_source(f, relpath(f, self.repo_root), known)
            self.sources.append(sf)
            self.global_unordered |= sf.unordered_vars
            self.global_unordered_fns |= sf.unordered_fns
            self.global_subscript |= sf.unordered_element_containers
            self.global_ordered |= sf.ordered_vars
            self.global_ordered_fns |= sf.ordered_fns
            self.global_floats |= sf.float_vars
            self.global_bytes |= sf.bytes_vars

    def _companion(self, sf: SourceFile) -> SourceFile | None:
        """The .hpp for a .cpp (and vice versa): member declarations live in
        the header while the loops and casts that use them live in the
        implementation file, so the pair shares one symbol table."""
        by_rel = {s.rel: s for s in self.sources}
        if sf.rel.endswith(".cpp"):
            return by_rel.get(sf.rel[:-4] + ".hpp")
        if sf.rel.endswith(".hpp"):
            return by_rel.get(sf.rel[:-4] + ".cpp")
        return None

    def run_token_rules(self) -> list[Finding]:
        # Names that different files declare with conflicting types are
        # ambiguous; drop them from the cross-file tables rather than guess.
        xfile_floats = self.global_floats - self.global_bytes
        xfile_unordered = self.global_unordered - self.global_ordered
        # Same ambiguity policy for accessor functions: a name some file
        # declares as returning an ordered container (sorted span, vector)
        # does not propagate unordered-ness across files.
        xfile_unordered_fns = (self.global_unordered_fns
                               - self.global_ordered_fns)
        findings: list[Finding] = []
        for sf in self.sources:
            comp = self._companion(sf)

            def merged(attr: str, c=comp, s=sf) -> set[str]:
                out = set(getattr(s, attr))
                if c is not None:
                    out |= getattr(c, attr)
                return out

            l_unordered = merged("unordered_vars")
            l_ordered = merged("ordered_vars") - l_unordered
            d1_names = l_unordered | (xfile_unordered - l_ordered)
            d1_fns = (merged("unordered_fns")
                      | (xfile_unordered_fns - merged("ordered_fns")))
            d1_subs = (merged("unordered_element_containers")
                       | self.global_subscript)
            l_floats = merged("float_vars")
            l_bytes = merged("bytes_vars")
            l_ints = merged("int_vars")
            per_rule = {
                "D1": lambda s=sf: check_d1(s, d1_names, d1_fns, d1_subs),
                "D2": lambda s=sf: check_d2(s),
                "D3": lambda s=sf: check_d3(s),
                "B2": lambda s=sf: check_b2(
                    s, l_floats, (l_ints | l_bytes) - l_floats, xfile_floats),
                "C1": lambda s=sf: check_c1(s),
                "C2": lambda s=sf: check_c2(s),
                "C3": lambda s=sf: check_c3(s),
                "G1": lambda s=sf: check_g1(s),
            }
            for rule, run in per_rule.items():
                if _exempt(rule, sf.rel):
                    continue
                findings.extend(run())
            for lineno, why in sf.bad_suppressions:
                findings.append(Finding(
                    rule="SUP", slug="bad-suppression", path=sf.rel,
                    line=lineno, message=why))
        return findings

    def run_clang_rules(self, build_dir: Path | None, jobs: int = 1,
                        cache: AnalysisCache | None = None) -> list[Finding]:
        clang = clang_frontend.find_clang()
        if clang is None or build_dir is None:
            return []
        entries = clang_frontend.load_compile_db(build_dir)
        if not entries:
            return []
        wanted = {sf.rel for sf in self.sources}
        todo: list[tuple[dict, str, Path]] = []
        for entry in entries:
            src = Path(entry.get("directory", ".")) / entry.get("file", "")
            rel = relpath(src, self.repo_root)
            if rel not in wanted or _exempt("D1", rel):
                continue
            todo.append((entry, rel, src))
        closer = IncludeCloser(self.repo_root)

        def one(item: tuple[dict, str, Path]) -> list[Finding] | None:
            entry, rel, src = item
            key = None
            if cache is not None:
                # A TU's verdict depends on the TU, every header it
                # transitively includes, and which clang produced the AST.
                key = closer.closure_digest(src, salt=f"tu|{clang}|{rel}")
                hit = cache.get_tu(key)
                if hit is not None:
                    return hit
            tu = clang_frontend.analyze_tu(clang, entry, rel)
            if tu is not None and cache is not None and key is not None:
                cache.put_tu(key, tu)
            return tu

        if jobs > 1 and len(todo) > 1:
            # analyze_tu is one clang subprocess per TU: thread-parallel
            # dispatch keeps every core busy without fork overhead.
            with concurrent.futures.ThreadPoolExecutor(
                    max_workers=jobs) as pool:
                results = list(pool.map(one, todo))
        else:
            results = [one(item) for item in todo]
        findings: list[Finding] = []
        used = False
        for tu in results:
            if tu is None:
                continue
            used = True
            findings.extend(f for f in tu if not _exempt("D1", f.path))
        if used:
            self.frontends.append("clang-ast")
        return findings

    def run_interprocedural_rules(
            self, surviving: list[Finding]) -> list[Finding]:
        """Dataflow rules D4/P1/C4/C5 over the whole-program call graph.

        `surviving` are the post-suppression intraprocedural findings:
        the D1/D2/D3 ones among them seed the D4 taint pass (a suppressed
        source carries a written proof that its value cannot escape, so it
        does not taint callers)."""
        program = Program(self.sources)
        self.program = program
        sources = [(f.path, f.line, RULES[f.rule])
                   for f in surviving if f.rule in ("D1", "D2", "D3")]
        for sf in self.sources:
            if not _exempt("D4", sf.rel):
                sources.extend(extra_d4_sources(sf))
        findings: list[Finding] = []
        findings.extend(check_d4(program, sources, _exempt))
        findings.extend(check_p1(program, _exempt))
        findings.extend(check_c4(program, _exempt))
        findings.extend(check_c5(program, _exempt))
        findings.extend(run_value_rules(program, _exempt))
        findings.extend(run_lifetime_rules(program, _exempt))
        return findings

    def stale_suppression_findings(self) -> list[Finding]:
        """Markers whose rule no longer fires anywhere on their target
        line. Run after every rule stage has had its chance to use them."""
        out: list[Finding] = []
        for sf in self.sources:
            for s in sf.suppressions:
                if s.used:
                    continue
                out.append(Finding(
                    rule="SUP", slug="stale-suppression", path=sf.rel,
                    line=s.marker_line,
                    message=(f"stale suppression: allow("
                             f"{','.join(s.rules)}) matches no finding on"
                             f" line {s.target_line} any more — delete the"
                             " marker (stale markers silently blind the"
                             " analyzer when code moves)"),
                ))
        return out

    def apply_suppressions(
            self, findings: list[Finding]) -> list[Finding]:
        by_file: dict[str, SourceFile] = {sf.rel: sf for sf in self.sources}
        kept: list[Finding] = []
        for f in findings:
            if f.rule == "SUP":
                kept.append(f)  # bad markers cannot be suppressed
                continue
            sf = by_file.get(f.path)
            sup = None
            if sf is not None:
                sup = next(
                    (s for s in sf.suppressions if s.covers(f.rule, f.line)),
                    None)
            if sup is not None:
                sup.used = True
                continue
            kept.append(f)
        return kept


def _dedupe(findings: list[Finding]) -> list[Finding]:
    seen: set[tuple] = set()
    out: list[Finding] = []
    for f in sorted(findings, key=Finding.sort_key):
        key = (f.path, f.line, f.rule)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    return out


def list_rules() -> str:
    lines = ["bc-analyze rule catalogue:"]
    for rule, slug in RULES.items():
        exempt = RULE_EXEMPT_PREFIXES.get(rule, ())
        suffix = f"  (exempt: {', '.join(exempt)})" if exempt else ""
        lines.append(f"  {rule:4} {slug}{suffix}")
    lines.append(
        "suppress with: // bc-analyze: allow(<rule>[,<rule>]) -- <reason>")
    return "\n".join(lines)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bc_analyze.py",
        description=("BarterCast determinism, byte-accounting, concurrency"
                     " & hot-path static analyzer (intraprocedural rules"
                     " D1-D3, B2, C1-C3, G1; interprocedural dataflow"
                     " rules D4, P1, C4, C5; interval value-analysis rules"
                     " V1-V4)"))
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to analyze"
                             " (default: src bench examples)")
    parser.add_argument("--build-dir", default=None,
                        help="build tree holding compile_commands.json for"
                             " the clang AST frontend (default: probe"
                             " build/release, build)")
    parser.add_argument("--frontend", choices=["auto", "tokens", "clang"],
                        default="auto",
                        help="force a frontend; `clang` fails hard when"
                             " clang or the compilation database is missing")
    parser.add_argument("--github", action="store_true",
                        help="emit GitHub annotation commands")
    parser.add_argument("--sarif", metavar="OUT.json", default=None,
                        help="also write findings as a SARIF 2.1.0 log")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="parallel clang TU analyses (default: 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the analysis cache")
    parser.add_argument("--cache-file", default=None, metavar="PATH",
                        help="analysis cache location (default:"
                             " <build-dir>/bc_analyze_cache.json, else"
                             " .bc-analyze-cache.json in the repo root)")
    parser.add_argument("--max-seconds", type=float, default=None,
                        metavar="T",
                        help="fail (exit 2) when the analysis itself takes"
                             " longer than T seconds — the CI budget for"
                             " the clean cached re-run")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--version", action="version",
                        version=f"bc-analyze {__version__}")
    return parser


def _resolve_build_dir(args, repo_root: Path) -> Path | None:
    if args.build_dir:
        build_dir = Path(args.build_dir)
        return build_dir if build_dir.is_absolute() else repo_root / build_dir
    for candidate in ("build/release", "build"):
        if (repo_root / candidate / "compile_commands.json").is_file():
            return repo_root / candidate
    return None


def _finish(findings: list[Finding], args, n_files: int, frontends: str,
            n_sup: int, cached: bool, started: float,
            repo_root: Path) -> int:
    for f in findings:
        print(f.github() if args.github else f.human())
    if args.sarif:
        out = Path(args.sarif)
        write_sarif(out if out.is_absolute() else repo_root / out, findings)
    note = ", cached" if cached else ""
    summary = (f"bc-analyze: {len(findings)} finding(s) in {n_files}"
               f" files ({frontends} frontend,"
               f" {n_sup} suppression(s) honored{note})")
    if not findings:
        summary = summary.replace("0 finding(s)", "OK, 0 findings")
    print(summary, file=sys.stderr)
    elapsed = time.monotonic() - started
    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(f"bc-analyze: analysis took {elapsed:.2f}s, over the"
              f" --max-seconds budget of {args.max_seconds:.2f}s",
              file=sys.stderr)
        return 2
    return 1 if findings else 0


def run(argv: list[str], repo_root: Path) -> int:
    started = time.monotonic()
    args = build_arg_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0

    paths = args.paths or DEFAULT_PATHS
    files = collect_files(repo_root, paths)
    build_dir = (None if args.frontend == "tokens"
                 else _resolve_build_dir(args, repo_root))

    cache = None
    key = None
    if not args.no_cache:
        if args.cache_file:
            cache_path = Path(args.cache_file)
            if not cache_path.is_absolute():
                cache_path = repo_root / cache_path
        elif build_dir is not None:
            cache_path = build_dir / "bc_analyze_cache.json"
        else:
            cache_path = repo_root / ".bc-analyze-cache.json"
        cache = AnalysisCache(cache_path)
        # The whole-run key covers everything the verdict depends on: the
        # analyzed files, the frontend selection, which clang (if any)
        # backs the AST stage, and the compilation database content.
        compile_db = ""
        if build_dir is not None:
            compile_db = file_digest(build_dir / "compile_commands.json")
        flags = (f"frontend={args.frontend}|clang="
                 f"{clang_frontend.find_clang() or 'none'}|db={compile_db}")
        key = run_key(files, repo_root, flags)
        hit = cache.get_run(key)
        if hit is not None:
            findings, meta = hit
            return _finish(findings, args, len(files),
                           meta.get("frontends", "tokens"),
                           int(meta.get("n_sup", 0)), True, started,
                           repo_root)

    analysis = Analysis(repo_root)
    analysis.load(files)

    findings = []
    if args.frontend in ("auto", "tokens"):
        findings.extend(analysis.run_token_rules())
    if args.frontend in ("auto", "clang"):
        clang_findings = analysis.run_clang_rules(
            build_dir, jobs=max(args.jobs, 1), cache=cache)
        if args.frontend == "clang" and "clang-ast" not in analysis.frontends:
            print("bc-analyze: --frontend=clang but clang or"
                  " compile_commands.json is unavailable", file=sys.stderr)
            return 2
        findings.extend(clang_findings)

    # Suppress the intraprocedural findings first: the survivors seed the
    # D4 taint pass, then the interprocedural findings get their own
    # suppression pass, and only then can a marker be declared stale.
    findings = analysis.apply_suppressions(findings)
    interproc = analysis.run_interprocedural_rules(findings)
    findings.extend(analysis.apply_suppressions(interproc))
    findings.extend(analysis.stale_suppression_findings())
    findings = _dedupe(findings)

    n_sup = sum(
        1 for sf in analysis.sources for s in sf.suppressions if s.used)
    frontends = "+".join(analysis.frontends)
    if cache is not None and key is not None:
        cache.put_run(key, findings,
                      {"frontends": frontends, "n_sup": n_sup})
        cache.save()
    return _finish(findings, args, len(files), frontends, n_sup, False,
                   started, repo_root)
