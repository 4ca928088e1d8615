#!/usr/bin/env python3
"""Self-tests for scripts/bc_analyze.py.

Runs the analyzer CLI against the checked-in fixtures and asserts exact
rule IDs and file:line anchors, the suppression policy (well-formed markers
silence findings, malformed/reason-less markers are rejected AND leave the
target finding alive), output formats, and exit codes. Registered with
ctest as `bc_analyze_selftest`; runs under plain unittest, no third-party
dependencies.
"""

import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent.parent
ANALYZER = REPO_ROOT / "scripts" / "bc_analyze.py"
FIXTURES = TESTS_DIR / "fixtures"

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>\w+) ")
GITHUB_RE = re.compile(
    r"^::error file=(?P<path>[^,]+),line=(?P<line>\d+),"
    r"title=bc-analyze (?P<rule>\w+) [\w-]+::")


def run_analyzer(*args, env=None):
    proc = subprocess.run(
        [sys.executable, str(ANALYZER), *args],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env)
    return proc


def findings_of(proc, pattern=FINDING_RE):
    out = set()
    for line in proc.stdout.splitlines():
        m = pattern.match(line)
        if m:
            path = m.group("path").replace("\\", "/")
            out.add((Path(path).name, int(m.group("line")), m.group("rule")))
    return out


class BadFixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.proc = run_analyzer(str(FIXTURES / "bad"))
        cls.findings = findings_of(cls.proc)

    def test_exit_code_is_one(self):
        self.assertEqual(self.proc.returncode, 1, self.proc.stdout)

    def test_exact_findings(self):
        expected = {
            ("d1_unordered.cpp", 13, "D1"),
            ("d1_unordered.cpp", 16, "D1"),
            ("d1_unordered.cpp", 19, "D1"),
            ("d2_wallclock.cpp", 6, "D2"),
            ("d2_wallclock.cpp", 11, "D2"),
            ("d3_random.cpp", 6, "D3"),
            ("d3_random.cpp", 7, "D3"),
            ("d3_random.cpp", 12, "D3"),
            ("b1_narrowing.cpp", 7, "V3"),
            ("b1_narrowing.cpp", 11, "V3"),
            ("b2_floateq.cpp", 4, "B2"),
            ("b2_floateq.cpp", 8, "B2"),
            ("b2_floateq.cpp", 12, "B2"),
            ("c1_rawthread.cpp", 8, "C1"),
            ("c1_rawthread.cpp", 9, "C1"),
            ("c1_rawthread.cpp", 10, "C1"),
            ("c1_rawthread.cpp", 13, "C1"),
            ("c2_unguarded.cpp", 16, "C2"),
            ("c2_unguarded.cpp", 17, "C2"),
            ("c3_detach.cpp", 7, "C1"),
            ("c3_detach.cpp", 7, "C3"),
            ("c3_detach.cpp", 8, "C3"),
            ("g1_indexleak.cpp", 4, "G1"),
            ("g1_indexleak.cpp", 8, "G1"),
            ("g1_indexleak.cpp", 9, "G1"),
            ("g1_indexleak.cpp", 10, "G1"),
            ("sup_bad.cpp", 7, "SUP"),
            ("sup_bad.cpp", 10, "D1"),
            ("sup_bad.cpp", 14, "SUP"),
            ("sup_bad.cpp", 17, "D1"),
            # Interprocedural dataflow rules (whole-program call graph).
            ("d4_taint.cpp", 20, "D1"),
            ("d4_taint.cpp", 44, "D4"),
            ("p1_hotalloc.cpp", 13, "P1"),
            ("p1_hotalloc.cpp", 29, "P1"),
            ("p1_shard_lookup.cpp", 22, "P1"),
            ("c4_lockblock.cpp", 15, "C4"),
            ("c4_lockblock.cpp", 20, "C4"),
            ("c4_lockblock.cpp", 25, "C4"),
            ("c4_lockblock.cpp", 30, "C4"),
            ("c5_lockorder.cpp", 11, "C5"),
            ("c5_lockorder.cpp", 16, "C5"),
            ("sup_stale.cpp", 11, "SUP"),
            # Abstract-interpretation value rules (interval domain).
            ("v1_overflow.cpp", 11, "V1"),
            ("v1_overflow.cpp", 16, "V1"),
            ("v2_zerodiv.cpp", 8, "V2"),
            ("v2_zerodiv.cpp", 12, "V2"),
            ("v3_narrowing.cpp", 8, "V3"),
            ("v3_narrowing.cpp", 13, "V3"),
            ("v3_narrowing.cpp", 19, "V3"),
            ("v4_span.cpp", 7, "V4"),
            ("v4_span.cpp", 11, "V4"),
            # Lifetime rules (escape analysis over the call graph).
            ("l1_dangling.cpp", 12, "L1"),
            ("l1_dangling.cpp", 16, "L1"),
            ("l1_dangling.cpp", 22, "L1"),
            ("l1_dangling.cpp", 27, "L1"),
            ("l2_staleview.cpp", 49, "L2"),
            ("l2_staleview.cpp", 56, "L2"),
            ("l3_capture.cpp", 26, "L3"),
            ("l3_capture.cpp", 27, "L3"),
            ("l3_capture.cpp", 32, "L3"),
            ("l4_moved.cpp", 11, "L4"),
            ("l4_moved.cpp", 17, "L4"),
        }
        self.assertEqual(self.findings, expected)

    def test_reasonless_suppression_is_called_out(self):
        line = next(l for l in self.proc.stdout.splitlines()
                    if "sup_bad.cpp:7:" in l)
        self.assertIn("reason", line)

    def test_rejected_suppression_does_not_silence_target(self):
        self.assertIn(("sup_bad.cpp", 10, "D1"), self.findings)
        self.assertIn(("sup_bad.cpp", 17, "D1"), self.findings)


class GoodFixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.proc = run_analyzer(str(FIXTURES / "good"))

    def test_exit_code_is_zero(self):
        self.assertEqual(self.proc.returncode, 0,
                         self.proc.stdout + self.proc.stderr)

    def test_no_findings(self):
        self.assertEqual(findings_of(self.proc), set())

    def test_suppressions_are_honored(self):
        self.assertIn("3 suppression(s) honored", self.proc.stderr)


class GithubOutput(unittest.TestCase):
    def test_annotations_match_human_findings(self):
        human = findings_of(run_analyzer(str(FIXTURES / "bad")))
        gh_proc = run_analyzer(str(FIXTURES / "bad"), "--github")
        gh = findings_of(gh_proc, GITHUB_RE)
        self.assertEqual(gh, human)
        self.assertEqual(gh_proc.returncode, 1)


class DataflowEvidence(unittest.TestCase):
    """The interprocedural rules must carry their evidence chain in the
    message: the call path, the originating source finding, and (for C5)
    both mutexes on the cyclic edge — a bare file:line is not actionable
    when the defect lives two calls away."""

    @classmethod
    def setUpClass(cls):
        cls.lines = run_analyzer(str(FIXTURES / "bad")).stdout.splitlines()

    def _line(self, anchor):
        return next(l for l in self.lines if anchor in l)

    def test_d4_reports_call_chain_and_source(self):
        line = self._line("d4_taint.cpp:44:")
        self.assertIn("bartercast::evaluate -> graph::collect"
                      " -> graph::FlowGraph::nodes", line)
        self.assertIn("d4_taint.cpp:20", line)

    def test_p1_transitive_names_the_allocating_callee(self):
        line = self._line("p1_hotalloc.cpp:29:")
        self.assertIn("helper_that_allocates", line)
        self.assertIn("p1_hotalloc.cpp:19", line)

    def test_c4_transitive_names_the_blocking_callee(self):
        line = self._line("c4_lockblock.cpp:30:")
        self.assertIn("Registry::emit", line)
        self.assertIn("c4_lockblock.cpp:33", line)

    def test_c5_cycle_edges_name_both_mutexes(self):
        for anchor in ("c5_lockorder.cpp:11:", "c5_lockorder.cpp:16:"):
            line = self._line(anchor)
            self.assertIn("a_", line)
            self.assertIn("b_", line)


class LifetimeEvidence(unittest.TestCase):
    """The L rules must carry actionable evidence: L1 names the dying
    local, L2 names the borrow point and the composed invalidation chain
    (two calls deep for the fixture's add_edge -> touch -> resize path),
    L3 names the storing sink, L4 points back at the move."""

    @classmethod
    def setUpClass(cls):
        cls.lines = run_analyzer(str(FIXTURES / "bad")).stdout.splitlines()

    def _line(self, anchor):
        return next(l for l in self.lines if anchor in l)

    def test_l1_names_the_local_and_its_declaration(self):
        line = self._line("l1_dangling.cpp:12:")
        self.assertIn("`scratch`", line)
        self.assertIn("l1_dangling.cpp:11", line)

    def test_l1_borrowed_view_names_the_owner(self):
        line = self._line("l1_dangling.cpp:22:")
        self.assertIn("a view borrowed from local `name`", line)

    def test_l2_reports_two_call_deep_chain(self):
        line = self._line("l2_staleview.cpp:49:")
        self.assertIn("borrowed from `g` via `out_edges`", line)
        self.assertIn("l2_staleview.cpp:47", line)
        self.assertIn("graph::MiniGraph::add_edge"
                      " -> graph::MiniGraph::touch", line)
        self.assertIn("`out_.resize(...)`", line)
        self.assertIn("l2_staleview.cpp:34", line)

    def test_l2_range_for_names_loop_and_mutation(self):
        line = self._line("l2_staleview.cpp:56:")
        self.assertIn("`totals.push_back(...)`", line)
        self.assertIn("l2_staleview.cpp:54", line)

    def test_l3_names_the_storing_sink(self):
        line = self._line("l3_capture.cpp:26:")
        self.assertIn("sim::Engine::schedule_after", line)
        self.assertIn("[&]", line)

    def test_l3_flags_view_captured_by_value(self):
        line = self._line("l3_capture.cpp:32:")
        self.assertIn("view `first` by value", line)

    def test_l4_points_at_the_move(self):
        line = self._line("l4_moved.cpp:11:")
        self.assertIn("std::move(header)", line)
        self.assertIn("l4_moved.cpp:10", line)


class EscapeUnits(unittest.TestCase):
    """Unit coverage of the escape layer behind the L rules: borrow-fact
    extraction, accessor classification, and direct/transitive mutation
    summaries."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(REPO_ROOT / "scripts"))
        import bc_analyze.escape as escape
        cls.escape = escape

    def _program(self, code):
        from bc_analyze.callgraph import Program
        from bc_analyze.source import load_source
        from bc_analyze import RULES
        tmp = Path(tempfile.mkdtemp(dir=TESTS_DIR))
        self.addCleanup(lambda: __import__("shutil").rmtree(tmp))
        src = tmp / "probe.cpp"
        src.write_text(code, encoding="utf-8")
        sf = load_source(src, "probe.cpp", set(RULES))
        return Program([sf])

    def test_borrow_facts_cover_views_refs_and_range_for(self):
        prog = self._program(
            "#include <span>\n"
            "#include <vector>\n"
            "struct G { std::span<const int> row(int) const"
            " { return {}; } };\n"
            "void f(G& g, std::vector<int>& v) {\n"
            "  auto r = g.row(0);\n"
            "  auto it = v.begin();\n"
            "  auto& slot = v[0];\n"
            "  for (int x : v) { (void)x; }\n"
            "}\n")
        fn = next(f for f in prog.functions if f.name == "f")
        sf = prog.by_rel[fn.rel]
        accessors = self.escape.view_accessors(prog)
        borrows = {b.var: b for b in
                   self.escape.borrows_in(fn, sf, accessors)}
        self.assertEqual(borrows["r"].owner, "g")
        self.assertEqual(borrows["r"].via, "row")
        self.assertEqual(borrows["it"].owner, "v")
        self.assertEqual(borrows["slot"].owner, "v")
        self.assertEqual(borrows["<range-for>"].owner, "v")

    def test_owning_snapshots_are_not_borrows(self):
        prog = self._program(
            "#include <string>\n"
            "struct M { std::string s_; };\n"
            "void f(M& m) {\n"
            "  auto copy = m.s_.substr(0, 4);\n"
            "  auto n = m.s_.size();\n"
            "}\n")
        fn = next(f for f in prog.functions if f.name == "f")
        sf = prog.by_rel[fn.rel]
        accessors = self.escape.view_accessors(prog)
        self.assertEqual(self.escape.borrows_in(fn, sf, accessors), [])

    def test_direct_mutation_seeds_receiver_summary(self):
        prog = self._program(
            "#include <vector>\n"
            "class C {\n"
            " public:\n"
            "  void grow() { data_.push_back(1); }\n"
            "  void read() const { (void)data_.size(); }\n"
            " private:\n"
            "  std::vector<int> data_;\n"
            "};\n")
        summaries = self.escape.MutationSummaries(prog)
        grow = next(f for f in prog.functions if f.name == "grow")
        read = next(f for f in prog.functions if f.name == "read")
        self.assertIn(id(grow), summaries.invalidates_receiver)
        self.assertNotIn(id(read), summaries.invalidates_receiver)
        inv = summaries.invalidates_receiver[id(grow)]
        self.assertIn("data_.push_back", inv.evidence)

    def test_transitive_summary_composes_with_chain(self):
        prog = self._program(
            "#include <vector>\n"
            "class C {\n"
            " public:\n"
            "  void outer() { inner(); }\n"
            " private:\n"
            "  void inner() { data_.resize(8); }\n"
            "  std::vector<int> data_;\n"
            "};\n")
        summaries = self.escape.MutationSummaries(prog)
        outer = next(f for f in prog.functions if f.name == "outer")
        inv = summaries.invalidates_receiver.get(id(outer))
        self.assertIsNotNone(inv)
        self.assertEqual(inv.depth, 1)
        self.assertEqual(inv.chain, ["C::outer", "C::inner"])
        self.assertIn("data_.resize", inv.evidence)

    def test_mutable_ref_param_mutation_is_summarized(self):
        prog = self._program(
            "#include <vector>\n"
            "void append(std::vector<int>& v, int x) { v.push_back(x); }\n"
            "void keep(const std::vector<int>& v) { (void)v.size(); }\n")
        summaries = self.escape.MutationSummaries(prog)
        append = next(f for f in prog.functions if f.name == "append")
        keep = next(f for f in prog.functions if f.name == "keep")
        self.assertIn("v", summaries.mutates_ref_params.get(id(append), {}))
        self.assertNotIn(id(keep), summaries.mutates_ref_params)

    def test_view_accessor_classification(self):
        prog = self._program(
            "#include <span>\n"
            "#include <vector>\n"
            "struct G {\n"
            "  std::span<const int> row(int) const { return {}; }\n"
            "  const int& at_slot(int i) const { return slots_[i]; }\n"
            "  std::vector<int> sorted_view() const { return slots_; }\n"
            "  std::vector<int> slots_;\n"
            "};\n")
        accessors = self.escape.view_accessors(prog)
        self.assertEqual(accessors.get("row"), "view")
        self.assertEqual(accessors.get("at_slot"), "ref")
        self.assertNotIn("sorted_view", accessors)
        self.assertIn("begin", accessors)  # builtin model


class FrontendDegradation(unittest.TestCase):
    """The clang AST frontend is opportunistic: a missing compile database,
    an absent clang binary, or a failing AST dump must all degrade to the
    tokens frontend without crashing. Only `--frontend clang` may fail."""

    def test_missing_compile_db_falls_back_to_tokens(self):
        proc = run_analyzer(str(FIXTURES / "good"), "--no-cache",
                            "--build-dir", "no/such/build")
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)
        self.assertIn("tokens frontend", proc.stderr)
        self.assertNotIn("clang-ast", proc.stderr)

    def test_clang_absent_falls_back_to_tokens(self):
        with tempfile.TemporaryDirectory() as empty:
            env = dict(os.environ, PATH=empty)
            proc = run_analyzer(str(FIXTURES / "good"), "--no-cache",
                                env=env)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)
        self.assertIn("tokens frontend", proc.stderr)
        self.assertNotIn("clang-ast", proc.stderr)

    def test_forced_clang_frontend_fails_hard_without_clang(self):
        with tempfile.TemporaryDirectory() as empty:
            env = dict(os.environ, PATH=empty)
            proc = run_analyzer(str(FIXTURES / "good"), "--no-cache",
                                "--frontend", "clang", env=env)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("unavailable", proc.stderr)

    @unittest.skipUnless(
        (REPO_ROOT / "build" / "compile_commands.json").is_file(),
        "needs a configured build tree")
    def test_ast_dump_failure_degrades_to_tokens(self):
        # A clang that is found but whose AST dump fails (here: always
        # exits 1) must leave the analysis tokens-only, not crash it.
        with tempfile.TemporaryDirectory() as shim_dir:
            shim = Path(shim_dir) / "clang++"
            shim.write_text("#!/bin/sh\nexit 1\n", encoding="utf-8")
            shim.chmod(shim.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP
                       | stat.S_IXOTH)
            env = dict(os.environ,
                       PATH=shim_dir + os.pathsep + os.environ["PATH"])
            proc = run_analyzer("--no-cache", "--build-dir", "build",
                                "--jobs", "4", env=env)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)
        self.assertIn("tokens frontend", proc.stderr)
        self.assertNotIn("clang-ast", proc.stderr)


class SarifOutput(unittest.TestCase):
    def _run_sarif(self, fixture_dir):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.sarif"
            proc = run_analyzer(str(fixture_dir), "--no-cache",
                                "--sarif", str(out))
            doc = json.loads(out.read_text(encoding="utf-8"))
        return proc, doc

    def test_sarif_results_match_human_findings(self):
        proc, doc = self._run_sarif(FIXTURES / "bad")
        self.assertEqual(doc["version"], "2.1.0")
        run = doc["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "bc-analyze")
        got = set()
        for result in run["results"]:
            loc = result["locations"][0]["physicalLocation"]
            self.assertEqual(loc["artifactLocation"]["uriBaseId"],
                             "%SRCROOT%")
            got.add((Path(loc["artifactLocation"]["uri"]).name,
                     loc["region"]["startLine"], result["ruleId"]))
        self.assertEqual(got, findings_of(proc))

    def test_sarif_clean_run_is_valid_and_empty(self):
        proc, doc = self._run_sarif(FIXTURES / "good")
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(doc["runs"][0]["results"], [])
        # Rule metadata ships even when nothing fired, so code scanning
        # can render the catalogue.
        rules = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        self.assertLessEqual({"D1", "D4", "P1", "C4", "C5", "SUP",
                              "V1", "V2", "V3", "V4",
                              "L1", "L2", "L3", "L4"}, rules)


class CacheBehavior(unittest.TestCase):
    def test_second_run_is_served_from_cache(self):
        with tempfile.TemporaryDirectory() as tmp:
            cache = Path(tmp) / "cache.json"
            cold = run_analyzer(str(FIXTURES / "bad"),
                                "--cache-file", str(cache))
            warm = run_analyzer(str(FIXTURES / "bad"),
                                "--cache-file", str(cache))
        self.assertNotIn("cached", cold.stderr)
        self.assertIn(", cached", warm.stderr)
        self.assertEqual(findings_of(warm), findings_of(cold))
        self.assertEqual(warm.returncode, cold.returncode)

    def test_no_cache_flag_disables_replay(self):
        with tempfile.TemporaryDirectory() as tmp:
            cache = Path(tmp) / "cache.json"
            run_analyzer(str(FIXTURES / "bad"), "--cache-file", str(cache))
            proc = run_analyzer(str(FIXTURES / "bad"), "--no-cache",
                                "--cache-file", str(cache))
        self.assertNotIn("cached", proc.stderr)

    def test_content_change_invalidates_the_cache(self):
        violation = ("#include <unordered_map>\n"
                     "void walk() {\n"
                     "  std::unordered_map<int, int> m;\n"
                     "  for (const auto& kv : m) { (void)kv; }\n"
                     "}\n")
        with tempfile.TemporaryDirectory(dir=TESTS_DIR) as tmp:
            src = Path(tmp) / "cache_probe.cpp"
            src.write_text(violation, encoding="utf-8")
            cache = Path(tmp) / "cache.json"
            first = run_analyzer(tmp, "--cache-file", str(cache))
            src.write_text(
                violation + "void walk2() {\n"
                "  std::unordered_map<int, int> m;\n"
                "  for (const auto& kv : m) { (void)kv; }\n"
                "}\n", encoding="utf-8")
            second = run_analyzer(tmp, "--cache-file", str(cache))
        self.assertEqual(len(findings_of(first)), 1)
        self.assertNotIn("cached", second.stderr)
        self.assertEqual(len(findings_of(second)), 2)


class PerformanceFlags(unittest.TestCase):
    def test_parallel_run_matches_serial(self):
        serial = run_analyzer(str(FIXTURES / "bad"), "--no-cache")
        parallel = run_analyzer(str(FIXTURES / "bad"), "--no-cache",
                                "--jobs", "4")
        self.assertEqual(findings_of(parallel), findings_of(serial))
        self.assertEqual(parallel.returncode, serial.returncode)

    def test_blown_time_budget_is_an_infra_error(self):
        proc = run_analyzer(str(FIXTURES / "good"), "--no-cache",
                            "--max-seconds", "0")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("--max-seconds budget", proc.stderr)


class CliBehavior(unittest.TestCase):
    def test_list_rules(self):
        proc = run_analyzer("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in ("D1", "D2", "D3", "B2", "C1", "C2", "C3", "G1",
                     "V1", "V2", "V3", "V4", "L1", "L2", "L3", "L4", "SUP"):
            self.assertIn(rule, proc.stdout)
        # Narrowing casts on Bytes are V3's; the syntactic B1 rule is gone.
        self.assertNotIn(" B1 ", proc.stdout)

    def test_missing_path_is_infra_error(self):
        proc = run_analyzer("no/such/dir")
        self.assertEqual(proc.returncode, 2)

    def test_repo_sources_are_clean(self):
        # The tree gate: src/, bench/ and examples/ must stay at zero
        # findings. Any new violation needs a fix or a reasoned suppression.
        proc = run_analyzer()
        self.assertEqual(
            proc.returncode, 0,
            "bc-analyze found new violations:\n" + proc.stdout)


class IntervalDomain(unittest.TestCase):
    """Unit coverage of the abstract-interpretation engine behind the V
    rules: lattice operations, widening convergence, guard negation and
    refinement, and the bottom-up interprocedural summaries."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(REPO_ROOT / "scripts"))
        import bc_analyze.absint as absint
        cls.ai = absint

    def test_join_meet_lattice(self):
        I = self.ai.Interval
        self.assertEqual(I(0, 5).join(I(3, 10)), I(0, 10))
        self.assertEqual(I(0, 5).meet(I(3, 10)), I(3, 5))
        self.assertTrue(I(0, 2).meet(I(5, 9)).is_bottom())
        self.assertEqual(I(0, 5).join(I.bottom()), I(0, 5))

    def test_widening_jumps_and_converges(self):
        I, INF = self.ai.Interval, self.ai.INF
        grown = I(0, 5).widen(I(0, 6))
        self.assertEqual(grown.lo, 0)
        self.assertEqual(grown.hi, INF)
        # A second widening step is a fixpoint: nothing left to lose.
        self.assertEqual(grown.widen(grown.join(I(0, 7))), grown)

    def test_type_ranges(self):
        self.assertEqual(self.ai.type_range("PeerId"),
                         self.ai.Interval(0, 4294967295))
        self.assertEqual(self.ai.type_range("Bytes"), self.ai.I64_RANGE)

    def test_eval_constant_folding(self):
        got = self.ai.eval_expr("3 * 7 + 1", self.ai.Env())
        self.assertEqual((got.lo, got.hi), (22, 22))

    def test_eval_numeric_limits(self):
        got = self.ai.eval_expr("std::numeric_limits<PeerId>::max()",
                                self.ai.Env())
        self.assertEqual((got.lo, got.hi), (4294967295, 4294967295))

    def test_negate_de_morgan(self):
        self.assertEqual(self.ai._negate("x < 0 || x > kMax"),
                         "x >= 0 && x <= kMax")
        self.assertEqual(self.ai._negate("!(n == 0)"), "n == 0")
        # A negated conjunction is a disjunction: no single guard holds.
        self.assertIsNone(self.ai._negate("a > 0 && b > 0"))

    def test_refine_applies_guards(self):
        got = self.ai.refine(self.ai.I64_RANGE, "x",
                             ["x >= 0", "x <= 100"], self.ai.Env())
        self.assertEqual((got.lo, got.hi), (0, 100))

    def _program(self, code):
        from bc_analyze.source import load_source
        from bc_analyze import RULES
        tmp = Path(tempfile.mkdtemp(dir=TESTS_DIR))
        self.addCleanup(lambda: __import__("shutil").rmtree(tmp))
        src = tmp / "probe.cpp"
        src.write_text(code, encoding="utf-8")
        sf = load_source(src, "probe.cpp", set(RULES))
        return self.ai.Program([sf])

    def test_summary_composition(self):
        prog = self._program(
            "#include <cstdint>\n"
            "using Bytes = std::int64_t;\n"
            "constexpr Bytes kCap = 1000;\n"
            "constexpr Bytes kTwice = 2 * kCap;\n"
            "Bytes clamped(Bytes x) {\n"
            "  if (x < 0) return 0;\n"
            "  if (x > kCap) return kCap;\n"
            "  return x;\n"
            "}\n"
            "Bytes doubled(Bytes x) {\n"
            "  return clamped(x) + clamped(x);\n"
            "}\n")
        summaries = self.ai.Summaries(prog)
        # Constexpr chains resolve across the two global-consts passes.
        kcap = summaries.global_consts["kCap"]
        self.assertEqual((kcap.lo, kcap.hi), (1000, 1000))
        ktwice = summaries.global_consts["kTwice"]
        self.assertEqual((ktwice.lo, ktwice.hi), (2000, 2000))
        # The guard structure bounds the callee's return interval, and the
        # caller's summary composes the callee's.
        ret = summaries.call("clamped", [self.ai.I64_RANGE])
        self.assertTrue(ret.fits(0, 1000), ret)
        ret2 = summaries.call("doubled", [self.ai.I64_RANGE])
        self.assertTrue(ret2.fits(0, 2000), ret2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
