"""The multi-module project subsystem: language, summaries, graph,
project build and signature-cut incremental re-checking."""

import json
import pathlib
import random

import pytest

from repro.core.config import CheckConfig
from repro.core.fingerprint import fingerprint
from repro.core.result import CheckResult
from repro.core.session import Session
from repro.errors import ERROR_CATALOG
from repro.lang.parser import parse_program
from repro.lang.printer import render_program
from repro.node import replace
from repro.project import (
    ModuleGraph,
    ProjectWorkspace,
    check_project,
    summarize_program,
)

TYPES = 'export type NEArray<T> = {v: T[] | 0 < len(v)};\n'

LIB = '''import {NEArray} from "./types";
export spec min :: (xs: NEArray<number>) => number;
export function min(xs) {
  var best = xs[0];
  for (var i = 1; i < xs.length; i++) {
    if (xs[i] < best) { best = xs[i]; }
  }
  return best;
}
function helper(x: number): number { return x; }
'''

MAIN = '''import {min} from "./lib";
spec main :: () => void;
function main() {
  var xs = new Array(4);
  var m = min(xs);
}
'''


#: A module nested past the parser's stack (RSC-INT-001, never a crash).
DEEP = ("spec f :: () => number;\n"
        "function f() { return " + "(" * 3000 + "1" + ")" * 3000 + "; }\n")


def write_project(root, files):
    for name, text in files.items():
        (root / name).write_text(text)
    return root


@pytest.fixture
def project(tmp_path):
    return write_project(tmp_path, {
        "types.rsc": TYPES, "lib.rsc": LIB, "main.rsc": MAIN})


def names_of(paths):
    return sorted(pathlib.Path(p).name for p in paths)


def cold_oracle(graph, config=None):
    """The project check the engine must reproduce, built independently of
    it: every acyclic module's document checked in a fresh session, with
    the graph's RSC-MOD diagnostics prepended; a module on an import cycle
    is not checked and carries its parse and graph diagnostics only.
    Results are in path order."""
    config = config or CheckConfig()
    results = []
    for path in graph.paths:
        module = graph.modules[path]
        extra = list(module.diagnostics)
        if path in graph.cyclic:
            results.append(CheckResult(
                diagnostics=list(module.parse_diagnostics) + extra,
                filename=path))
            continue
        result = Session(config).check_source(graph.document_text(path),
                                              filename=path)
        results.append(replace(
            result, diagnostics=extra + list(result.diagnostics)))
    return results


def assert_matches_oracle(project_result, oracle):
    """Same modules, diagnostics and obligation counts as the oracle."""
    assert [r.filename for r in project_result.results] == \
        [r.filename for r in oracle]
    for checked, cold in zip(project_result.results, oracle):
        assert [d.to_dict() for d in checked.diagnostics] == \
            [d.to_dict() for d in cold.diagnostics], checked.filename
        assert checked.num_obligations_checked == \
            cold.num_obligations_checked, checked.filename


class TestLanguage:
    def test_import_export_parse(self):
        program = parse_program(LIB, "lib.rsc")
        [imp] = program.imports()
        assert imp.names == ["NEArray"]
        assert imp.module == "./types"
        exported = [getattr(d, "name", None) for d in program.exports()]
        assert exported == ["min", "min"]  # spec + function
        assert not [d for d in program.declarations
                    if getattr(d, "name", None) == "helper" and d.exported]

    def test_export_import_rejected(self):
        from repro.errors import ParseError
        with pytest.raises(ParseError):
            parse_program('export import {x} from "./y";')

    def test_double_export_rejected(self):
        from repro.errors import ParseError
        with pytest.raises(ParseError):
            parse_program('export export type t = number;')

    def test_module_words_stay_usable_as_identifiers(self):
        # import/export/from are contextual keywords: existing programs
        # using them as plain names must keep parsing.
        source = ('spec f :: (x: number) => number;\n'
                  'function f(x) {\n'
                  '  var from = 1;\n'
                  '  var import = 2;\n'
                  '  var export = 3;\n'
                  '  return x + from + import + export;\n'
                  '}\n')
        program = parse_program(source)
        assert not program.imports()
        reparsed = parse_program(render_program(program))
        assert fingerprint(program.declarations) == \
            fingerprint(reparsed.declarations)

    def test_empty_import_rejected(self):
        from repro.errors import ParseError
        with pytest.raises(ParseError):
            parse_program('import {} from "./y";')

    def test_parenthesized_implication_parses_in_predicates(self):
        # Regression: the arrow-function lookahead used to misparse a
        # fully-parenthesized implication left-hand side.
        program = parse_program(
            'type t = {v: number | (0 <= v && v < 9) => v < 10};')
        assert program.declarations

    @pytest.mark.parametrize("source", [
        "(a + b)[0]",      # Binary index target: must not re-associate
        "(a + b).length",  # Binary member target
        "(-c).f",          # Unary member target: `-c.f` means -(c.f)
        "(a + b)(1)",      # Binary callee
    ])
    def test_compound_postfix_targets_round_trip(self, source):
        # Regression: `(a + b)[0]` used to render as `(a) + (b)[0]`,
        # re-associating the index onto `b`.
        from repro.lang.parser import parse_expression
        from repro.lang.printer import render_expr
        expr = parse_expression(source)
        rendered = render_expr(expr)
        reparsed = parse_expression(rendered)
        assert fingerprint(expr) == fingerprint(reparsed), rendered
        assert render_expr(reparsed) == rendered

    def test_left_nested_implication_round_trips(self):
        # Regression: the printer used to drop the parens of a left-nested
        # implication, silently re-associating `(p => q) => r`.
        source = 'type t = {v: number | (0 <= v => v < 9) => v < 10};'
        program = parse_program(source)
        rendered = render_program(program)
        reparsed = parse_program(rendered)
        assert fingerprint(program.declarations) == \
            fingerprint(reparsed.declarations)
        assert render_program(reparsed) == rendered

    @pytest.mark.parametrize("name", [
        "d3-arrays", "navier-stokes", "raytrace", "richards", "splay",
        "transducers", "tsc-checker"])
    def test_printer_round_trips_benchmarks(self, name):
        root = pathlib.Path(__file__).resolve().parents[1]
        source = (root / "benchmarks" / "programs" / f"{name}.rsc").read_text()
        program = parse_program(source, name)
        reparsed = parse_program(render_program(program), name)
        assert fingerprint(program.declarations) == \
            fingerprint(reparsed.declarations)


class TestSummaries:
    def test_function_summary_has_specs_and_headless_body(self):
        summary = summarize_program("lib.rsc", parse_program(LIB, "lib.rsc"))
        assert summary.names == ["min"]
        rendered = "\n".join(summary.exports["min"])
        assert "spec min ::" in rendered
        assert "function min(xs);" in rendered
        assert "best" not in rendered  # body stripped
        assert "helper" not in rendered  # not exported

    def test_class_summary_keeps_constructor_body_strips_methods(self):
        source = '''export class C {
  immutable n : {v: number | 0 < v};
  constructor(n: {v: number | 0 < v}) { this.n = n; }
  get() : number { return this.n; }
}
'''
        summary = summarize_program("c.rsc", parse_program(source, "c.rsc"))
        [rendered] = summary.exports["C"]
        assert "this.n = n;" in rendered     # ctor body is interface
        assert "return this.n;" not in rendered  # method bodies are not
        assert "get(): number;" in rendered

    def test_qualifiers_ride_along(self):
        source = 'export qualifier 0 <= v;\nexport type t = number;\n'
        summary = summarize_program("q.rsc", parse_program(source, "q.rsc"))
        assert len(summary.qualifiers) == 1
        assert any("qualifier" in q for q in summary.qualifiers)
        assert summary.interface_decls()[-1] == summary.qualifiers[0]

    def test_unimported_sibling_type_still_constrains(self, tmp_path):
        # Regression: importing a function without the exported alias its
        # spec mentions must not drop the refinement obligation.
        write_project(tmp_path, {
            "d.rsc": 'export type nat = {v: number | 0 <= v};\n'
                     'export spec inc :: (x: nat) => nat;\n'
                     'export function inc(x) { return x + 1; }\n',
            "m.rsc": 'import {inc} from "./d";\n'
                     'spec main :: () => void;\n'
                     'function main() { var y = inc(0 - 5); }\n'})
        result = check_project(tmp_path)
        main = result.result_for(str((tmp_path / "m.rsc").resolve()))
        assert not main.ok
        assert any(d.code == "RSC-SUB-002" for d in main.diagnostics)

    def test_body_edit_keeps_fingerprint_signature_edit_moves_it(self):
        base = summarize_program("lib.rsc", parse_program(LIB, "lib.rsc"))
        body = LIB.replace("var best = xs[0];",
                           "var best = xs[0]; var extra = 1;")
        edited = summarize_program("lib.rsc", parse_program(body, "lib.rsc"))
        assert edited.fingerprint == base.fingerprint
        sig = LIB.replace("=> number;", "=> {v: number | true};")
        changed = summarize_program("lib.rsc", parse_program(sig, "lib.rsc"))
        assert changed.fingerprint != base.fingerprint


class TestGraph:
    def test_ranks_are_topological(self, project):
        graph = ModuleGraph.from_root(project)
        ranks = {pathlib.Path(p).name: r for p, r in graph.ranks.items()}
        assert ranks == {"types.rsc": 0, "lib.rsc": 1, "main.rsc": 2}
        assert [names_of(b) for b in graph.batches()] == \
            [["types.rsc"], ["lib.rsc"], ["main.rsc"]]

    def test_dotted_stem_resolves_extensionless(self, tmp_path):
        # A dot in the module name is part of the name, not an extension.
        write_project(tmp_path, {
            "v1.0-types.rsc": 'export type t = number;\n',
            "use.rsc": 'import {t} from "./v1.0-types";\n'})
        result = check_project(tmp_path)
        assert result.ok, [str(d) for r in result.results
                           for d in r.diagnostics]

    def test_unresolved_import_is_mod_001(self, tmp_path):
        write_project(tmp_path, {
            "a.rsc": 'import {x} from "./missing";\n'})
        graph = ModuleGraph.from_root(tmp_path)
        [module] = graph.modules.values()
        [diag] = module.diagnostics
        assert diag.code == "RSC-MOD-001"

    def test_unknown_export_is_mod_003(self, tmp_path):
        write_project(tmp_path, {
            "a.rsc": 'import {nope} from "./b";\n',
            "b.rsc": 'export type t = number;\n'})
        graph = ModuleGraph.from_root(tmp_path)
        module = graph.modules[str((tmp_path / "a.rsc").resolve())]
        [diag] = module.diagnostics
        assert diag.code == "RSC-MOD-003"
        assert "'nope'" in diag.message

    def test_cycle_is_mod_002_and_does_not_crash(self, tmp_path):
        write_project(tmp_path, {
            "a.rsc": 'import {tb} from "./b";\nexport type ta = number;\n',
            "b.rsc": 'import {ta} from "./a";\nexport type tb = number;\n',
            "c.rsc": 'export type tc = number;\n'})
        result = check_project(tmp_path)
        assert not result.ok
        assert names_of(result.cyclic) == ["a.rsc", "b.rsc"]
        for name in ("a.rsc", "b.rsc"):
            module = result.result_for(str((tmp_path / name).resolve()))
            codes = [d.code for d in module.diagnostics]
            assert codes == ["RSC-MOD-002"]
        # the diagnostic is stable (deterministic cycle rendering)
        again = check_project(tmp_path)
        assert [d.message for r in result.results for d in r.diagnostics] == \
            [d.message for r in again.results for d in r.diagnostics]
        # the acyclic module still checks
        c = result.result_for(str((tmp_path / "c.rsc").resolve()))
        assert c.ok

    def test_self_import_is_a_cycle(self, tmp_path):
        write_project(tmp_path, {
            "a.rsc": 'import {t} from "./a";\nexport type t = number;\n'})
        result = check_project(tmp_path)
        assert names_of(result.cyclic) == ["a.rsc"]

    def test_mod_codes_are_in_the_catalog(self):
        for code in ("RSC-MOD-001", "RSC-MOD-002", "RSC-MOD-003"):
            assert code in ERROR_CATALOG


class TestBuild:
    def test_modular_check_sees_interfaces_not_bodies(self, project):
        result = check_project(project)
        assert result.ok
        assert result.num_modules == 3

    def test_cross_module_violation_reported_in_importer(self, tmp_path):
        write_project(tmp_path, {
            "types.rsc": TYPES,
            "lib.rsc": LIB,
            "main.rsc": MAIN.replace("new Array(4)", "new Array(0)")})
        result = check_project(tmp_path)
        main = result.result_for(str((tmp_path / "main.rsc").resolve()))
        assert not main.ok
        assert any(d.code == "RSC-SUB-002" for d in main.diagnostics)

    def test_parallel_schedule_is_byte_identical(self, project):
        # An independent sibling shares a rank with lib.rsc: the one shared
        # workspace must check it exactly as a fresh session would.
        write_project(project, {
            "other.rsc": 'import {NEArray} from "./types";\n'
                         'export spec head :: (xs: NEArray<number>) => '
                         'number;\nexport function head(xs) '
                         '{ return xs[0]; }\n'})
        result = check_project(project)
        assert result.ok
        assert_matches_oracle(result,
                              cold_oracle(ModuleGraph.from_root(project)))
        assert "jobs" not in result.to_dict()

    def test_missing_root_is_not_an_empty_project(self, tmp_path):
        missing = tmp_path / "nonexistent"
        with pytest.raises(NotADirectoryError):
            Session().check_project(missing)
        with pytest.raises(NotADirectoryError):
            ProjectWorkspace(root=missing)
        with pytest.raises(NotADirectoryError):
            ModuleGraph.from_root(write_project(tmp_path, {
                "a.rsc": TYPES}) / "a.rsc")

    def test_session_check_project_returns_project_result(self, project):
        result = Session(CheckConfig()).check_project(project)
        assert result.ok
        assert result.num_files == 3
        assert result.num_batches == 3
        payload = json.loads(result.to_json())
        assert payload["ok"] and payload["num_modules"] == 3

    def test_session_check_project_runs_on_the_session(self, project):
        # One solver: the session's; no module document stays open.
        session = Session(CheckConfig())
        result = session.check_project(project)
        assert session.solver.stats.queries == result.stats.queries > 0
        assert session.documents() == []
        assert session.checks_run == result.num_modules

    def test_checks_run_counts_only_checked_modules(self, tmp_path):
        # a.rsc and b.rsc import each other, so only c.rsc is checked; the
        # one-shot and the serve project paths count the same checks.
        from repro.client import Client
        write_project(tmp_path, {
            "a.rsc": 'import {tb} from "./b";\nexport type ta = number;\n',
            "b.rsc": 'import {ta} from "./a";\nexport type tb = number;\n',
            "c.rsc": 'export type tc = number;\n'})
        session = Session()
        assert session.check_project(tmp_path).num_modules == 3
        client = Client.local()
        client.project_open(str(tmp_path))
        tenant = client.stats().tenants["default"]
        assert session.checks_run == tenant["checks_run"] == 1


class TestDeepNesting:
    """A module nested too deeply for the parser is that module's
    RSC-INT-001 verdict, as for a file checked on its own."""

    def test_session_check_project_reports_the_module(self, tmp_path):
        root = write_project(tmp_path, {"types.rsc": TYPES,
                                        "deep.rsc": DEEP})
        result = Session().check_project(root)
        deep = result.result_for(str((root / "deep.rsc").resolve()))
        assert [d.code for d in deep.diagnostics] == ["RSC-INT-001"]
        assert result.result_for(str((root / "types.rsc").resolve())).ok
        assert result.num_errors == 1

    def test_update_that_nests_too_deep(self, project):
        workspace = ProjectWorkspace(root=project)
        assert workspace.check().ok
        main = str((project / "main.rsc").resolve())
        update = workspace.update(main, DEEP)
        assert [d.code for d in update.results[main].diagnostics] == \
            ["RSC-INT-001"]
        assert workspace.project_result().num_errors == 1


class TestCycleOracle:
    """``ModuleGraph.cyclic`` against brute force on random import graphs:
    a module is on a cycle iff it reaches itself through imports."""

    @pytest.mark.parametrize("seed", range(40))
    def test_cyclic_iff_reaches_itself(self, tmp_path, seed):
        rng = random.Random(seed)
        names = [f"m{i}" for i in range(rng.randint(1, 10))]
        imports = {name: rng.sample(names, rng.randint(0, min(3, len(names))))
                   for name in names}
        root = tmp_path.resolve()
        sources = {
            str(root / f"{name}.rsc"):
                "".join(f'import {{t{dep}}} from "./{dep}";\n'
                        for dep in deps)
                + f"export type t{name} = number;\n"
            for name, deps in imports.items()}
        graph = ModuleGraph.from_sources(sources)

        def reaches_itself(start):
            seen, frontier = set(), list(imports[start])
            while frontier:
                name = frontier.pop()
                if name == start:
                    return True
                if name not in seen:
                    seen.add(name)
                    frontier.extend(imports[name])
            return False

        expected = sorted(str(root / f"{name}.rsc") for name in names
                          if reaches_itself(name))
        assert graph.cyclic == expected
        for path in graph.paths:
            codes = [d.code for d in graph.modules[path].diagnostics]
            assert codes == (["RSC-MOD-002"] if path in expected else [])
            assert (path in graph.ranks) == (path not in expected)


def assert_warm_equals_cold(workspace: ProjectWorkspace):
    """Every module's current diagnostics must be byte-identical to a
    from-scratch cold build of the same sources (:func:`cold_oracle`)."""
    cold = cold_oracle(ModuleGraph.from_sources(dict(workspace._sources)),
                       workspace.config)
    warm = workspace.project_result()
    assert [r.filename for r in warm.results] == \
        [r.filename for r in cold]
    for warm_result, cold_result in zip(warm.results, cold):
        assert [d.to_dict() for d in warm_result.diagnostics] == \
            [d.to_dict() for d in cold_result.diagnostics], \
            warm_result.filename


class TestProjectWorkspace:
    def test_body_edit_rechecks_exactly_one_module(self, project):
        workspace = ProjectWorkspace(root=project)
        workspace.check()
        edited = LIB.replace("var best = xs[0];",
                             "var best = xs[0]; var extra = 0;")
        update = workspace.update(project / "lib.rsc", edited)
        assert not update.summary_changed
        assert names_of(update.rechecked) == ["lib.rsc"]
        assert names_of(update.reused) == ["main.rsc", "types.rsc"]
        assert update.ok
        result = update.results[str((project / "lib.rsc").resolve())]
        assert result.solve_stats.warm_starts  # warm inside the module
        assert_warm_equals_cold(workspace)

    def test_signature_edit_rechecks_transitive_dependents(self, project):
        workspace = ProjectWorkspace(root=project)
        workspace.check()
        update = workspace.update(
            project / "types.rsc",
            'export type NEArray<T> = {v: T[] | 1 <= len(v)};\n')
        assert update.summary_changed
        assert names_of(update.rechecked) == \
            ["lib.rsc", "main.rsc", "types.rsc"]
        assert update.reused == []
        assert update.ok
        assert_warm_equals_cold(workspace)

    def test_breaking_signature_edit_surfaces_in_dependents(self, project):
        workspace = ProjectWorkspace(root=project)
        workspace.check()
        # Weakening NEArray to possibly-empty breaks min's xs[0] access —
        # the error must surface in the *dependent* module's re-check.
        update = workspace.update(
            project / "types.rsc",
            'export type NEArray<T> = {v: T[] | 0 <= len(v)};\n')
        assert update.summary_changed and not update.ok
        lib = update.results[str((project / "lib.rsc").resolve())]
        assert not lib.ok
        assert any(d.code == "RSC-BND-001" for d in lib.diagnostics)
        assert_warm_equals_cold(workspace)

    def test_edit_creating_then_breaking_cycle(self, project):
        workspace = ProjectWorkspace(root=project)
        workspace.check()
        update = workspace.update(
            project / "types.rsc",
            'import {min} from "./lib";\n' + TYPES)
        cyclic = names_of(workspace.graph.cyclic)
        assert cyclic == ["lib.rsc", "types.rsc"]
        assert_warm_equals_cold(workspace)
        update = workspace.update(project / "types.rsc", TYPES)
        assert workspace.graph.cyclic == []
        assert update.ok
        # Exactly the modules whose cycle membership flipped re-check; main's
        # inputs (its source and lib's interface) never changed.
        assert names_of(update.rechecked) == ["lib.rsc", "types.rsc"]
        assert_warm_equals_cold(workspace)

    def test_cycle_reshape_refreshes_staying_members(self, tmp_path):
        # Regression: a module staying cyclic while the cycle's composition
        # changes must re-render its RSC-MOD-002 diagnostic.
        write_project(tmp_path, {
            "a.rsc": 'import {tb} from "./b";\nexport type ta = number;\n',
            "b.rsc": 'import {ta} from "./a";\nexport type tb = number;\n',
            "c.rsc": 'export type tc = number;\n'})
        workspace = ProjectWorkspace(root=tmp_path)
        workspace.check()
        assert names_of(workspace.graph.cyclic) == ["a.rsc", "b.rsc"]
        # reroute: a -> b -> c -> a (a and b stay cyclic, c joins)
        workspace.update(tmp_path / "b.rsc",
                         'import {tc} from "./c";\nexport type tb = number;\n')
        workspace.update(tmp_path / "c.rsc",
                         'import {ta} from "./a";\nexport type tc = number;\n')
        assert names_of(workspace.graph.cyclic) == \
            ["a.rsc", "b.rsc", "c.rsc"]
        for name in ("a.rsc", "b.rsc", "c.rsc"):
            [diag] = workspace.result(tmp_path / name).diagnostics
            assert "c.rsc" in diag.message  # the *new* cycle rendering
        assert_warm_equals_cold(workspace)

    def test_diamond_closure_prelude_is_linear(self):
        # Regression: the prelude gatherer used to re-walk diamond closures
        # exponentially.  A 40-level diamond chain must be instant.
        import time as time_mod
        sources = {"/p/m0a.rsc": "export type t0a = number;\n",
                   "/p/m0b.rsc": "export type t0b = number;\n"}
        for level in range(1, 40):
            for side in ("a", "b"):
                sources[f"/p/m{level}{side}.rsc"] = (
                    f'import {{t{level - 1}a}} from "./m{level - 1}a";\n'
                    f'import {{t{level - 1}b}} from "./m{level - 1}b";\n'
                    f'export type t{level}{side} = number;\n')
        graph = ModuleGraph.from_sources(sources)
        start = time_mod.perf_counter()
        prelude = graph.interface_prelude("/p/m39a.rsc")
        assert time_mod.perf_counter() - start < 2.0
        assert "type t0a = number" in prelude

    def test_update_reparses_only_the_edited_module(self, project):
        workspace = ProjectWorkspace(root=project)
        workspace.check()
        before = {path: workspace.graph.modules[path]
                  for path in workspace.graph.paths}
        edited = LIB.replace("var best = xs[0];",
                             "var best = xs[0]; var extra = 0;")
        workspace.update(project / "lib.rsc", edited)
        lib = str((project / "lib.rsc").resolve())
        for path, old in before.items():
            new = workspace.graph.modules[path]
            if path == lib:
                assert new.program is not old.program
            else:
                # same AST and summary objects — no re-parse, no re-render
                assert new.program is old.program
                assert new.summary is old.summary

    def test_adding_a_module_resolves_pending_import(self, tmp_path):
        write_project(tmp_path, {"types.rsc": TYPES, "lib.rsc": LIB})
        workspace = ProjectWorkspace(root=tmp_path)
        workspace.check()
        (tmp_path / "main.rsc").write_text(MAIN)
        update = workspace.update(tmp_path / "main.rsc")
        assert names_of(update.rechecked) == ["main.rsc"]
        assert update.ok
        assert_warm_equals_cold(workspace)


@pytest.mark.parametrize("name", ["d3-arrays", "splay"])
class TestModuleBenchmarks:
    def root(self, name):
        return (pathlib.Path(__file__).resolve().parents[1]
                / "benchmarks" / "modules" / name)

    def test_verifies_and_parallel_matches_sequential(self, name):
        root = self.root(name)
        result = check_project(root)
        assert result.ok, [str(d) for r in result.results
                           for d in r.diagnostics]
        assert_matches_oracle(result, cold_oracle(ModuleGraph.from_root(root)))

    def test_edit_scenario_warm_equals_cold(self, name):
        from repro import bench
        root = self.root(name)
        workspace = ProjectWorkspace(root=root)
        workspace.check()
        body_file, function = bench.MODULE_BODY_EDITS[name]
        edited = bench.edit_function_body(
            (root / body_file).read_text(), function)
        update = workspace.update(root / body_file, edited)
        assert names_of(update.rechecked) == [body_file]
        assert update.ok
        sig_file, old, new = bench.MODULE_SIG_EDITS[name]
        source = (root / sig_file).read_text()
        assert old in source
        update = workspace.update(root / sig_file, source.replace(old, new))
        assert update.summary_changed
        assert update.ok
        assert len(update.rechecked) == 4
        assert_warm_equals_cold(workspace)
