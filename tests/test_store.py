"""Unit tests for the persistent artifact store: codec, local backend,
store paths, keying and configuration."""

import json
import pathlib

import pytest

from repro import CheckConfig, Session, bench
from repro.core.config import SolverOptions
from repro.errors import Diagnostic, ErrorKind, Severity, SourceSpan
from repro.logic.sorts import BOOL, INT, STR
from repro.logic.terms import (App, BinOp, BoolLit, Field, IntLit, Ite,
                               StrLit, UnOp, Var)
from repro.node import Record, fields, replace
from repro.smt.solver import Result
from repro.store import (
    ArtifactStore,
    CodecError,
    LocalStoreBackend,
    ModuleArtifact,
    STORE_SCHEMA,
    codec,
    config_fingerprint,
    default_store_path,
    open_store,
)
from repro.store.codec import (decode_entry, decode_expr, decode_module,
                               decode_solution, decode_verdicts, encode_entry,
                               encode_expr, encode_module, encode_solution,
                               encode_verdicts)
from repro.project.summary import ModuleSummary


def _deep_formula():
    x = Var("x", INT)
    y = Var("y", INT)
    return BinOp(
        "and",
        BinOp("<=", IntLit(0), x, BOOL),
        Ite(UnOp("not", BoolLit(False), BOOL),
            BinOp("=", Field(Var("o", INT), "len", INT), y, BOOL),
            App("len", (x, StrLit("s")), INT),
            BOOL),
        BOOL)


class TestExprCodec:
    def test_every_node_type_round_trips_identically(self):
        formula = _deep_formula()
        decoded = decode_expr(encode_expr(formula))
        assert decoded is formula
        assert hash(decoded) == hash(formula)

    def test_shared_subterms_are_one_row(self):
        x = Var("x", INT)
        shared = BinOp("+", x, IntLit(1), INT)
        rows = encode_expr(BinOp("<", shared, shared, BOOL))
        # x, 1, x + 1, (x + 1) < (x + 1): each distinct node once, children
        # before their parents, the root last.
        assert rows == [["v", "x", "Int"], ["i", 1], ["o", "+", 0, 1, "Int"],
                        ["o", "<", 2, 2, "Bool"]]

    def test_atoms_round_trip(self):
        for expr in (Var("v", STR), IntLit(-7), BoolLit(True), StrLit("")):
            assert decode_expr(encode_expr(expr)) == expr

    def test_bool_is_not_an_intlit(self):
        # bool subclasses int; a smuggled true must not decode as IntLit(1).
        with pytest.raises(CodecError):
            decode_expr([["i", True]])

    @pytest.mark.parametrize("garbage", [
        None, 42, "x", [], [["zz", 1]], [["v", 7, "Int"]], [["i", "7"]],
        [["b", 1]], [["s", 0]], [["a", "f"]], [["i", 1], ["o", "+", 0]],
        [["b", True], ["i", 1], ["t", 0, 1]],
    ])
    def test_garbage_raises_codec_error(self, garbage):
        with pytest.raises(CodecError):
            decode_expr(garbage)


class TestVerdictAndSolutionCodec:
    def test_verdicts_round_trip_all_results(self):
        """SAT and UNSAT round-trip; an UNKNOWN a store written before
        give-ups stopped being persisted still holds is dropped on load."""
        pairs = [(_deep_formula(), Result.UNSAT),
                 (Var("p", BOOL), Result.SAT),
                 (IntLit(3), Result.UNKNOWN)]
        assert decode_verdicts(json.loads(json.dumps(
            encode_verdicts(pairs)))) == pairs[:2]

    def test_unknown_result_value_rejected(self):
        with pytest.raises(CodecError):
            decode_verdicts({"nodes": [["i", 1]], "pairs": [[0, "maybe"]]})

    def test_solution_round_trips_qualifier_order(self):
        solution = {"k_1": [BinOp("<=", IntLit(0), Var("v", INT), BOOL),
                            BinOp("<", Var("v", INT), IntLit(9), BOOL)],
                    "k_2": []}
        encoded = json.loads(json.dumps(encode_solution(solution)))
        assert decode_solution(encoded) == solution


PROGRAMS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "programs"


def _entry(kind: str, data, schema: int = STORE_SCHEMA) -> bytes:
    return json.dumps({"schema": schema, "kind": kind,
                       "data": data}).encode()


class TestNodeTable:
    @pytest.mark.parametrize("name", bench.BENCHMARKS)
    def test_cold_check_artifacts_round_trip_identically(self, name):
        """What a cold check of each port persists comes back as the very
        interned objects it recorded, in the recorded order."""
        session = Session(CheckConfig())
        recorded = {}
        session.solver.record_queries(recorded)
        result = session.check_source((PROGRAMS / f"{name}.rsc").read_text(),
                                      filename=f"{name}.rsc")
        session.solver.stop_recording(recorded)
        assert recorded and result.kappa_solution

        pairs = list(recorded.items())
        decoded = decode_entry("verdicts", encode_entry("verdicts", pairs))
        assert len(decoded) == len(pairs)
        assert all(got is want and got_r is want_r
                   for (got, got_r), (want, want_r) in zip(decoded, pairs))

        solution = result.kappa_solution
        back = decode_entry("solutions", encode_entry("solutions", solution))
        # The envelope sorts object keys, so kappas come back sorted;
        # each kappa's qualifiers keep their order.
        assert list(back) == sorted(solution)
        for kappa, quals in solution.items():
            assert len(back[kappa]) == len(quals)
            assert all(got is want for got, want in zip(back[kappa], quals))

    def test_deep_term_round_trips(self, tmp_path):
        term = IntLit(0)
        for i in range(5000):
            term = BinOp("+", term, Var(f"v{i % 7}", INT), INT)
        pairs = [(BinOp("<=", IntLit(0), term, BOOL), Result.UNSAT)]
        [(formula, result)] = decode_entry(
            "verdicts", encode_entry("verdicts", pairs))
        assert formula is pairs[0][0] and result is Result.UNSAT
        back = decode_entry("solutions",
                            encode_entry("solutions", {"k": [term]}))
        assert back["k"][0] is term
        store = open_store(CheckConfig(store_path=str(tmp_path)))
        store.save_solution("d" * 64, {"k": [term]})
        assert store.writes == 1
        assert store.load_solution("d" * 64)["k"][0] is term

    @pytest.mark.parametrize("nodes,pairs", [
        ([["o", "+", 1, 1, "Int"], ["i", 1]], [[0, "sat"]]),   # forward
        ([["i", 1], ["o", "+", 0, 1, "Int"]], [[1, "sat"]]),   # self
        ([["i", 1], ["i", 2], ["u", "-", True, "Int"]],
         [[2, "sat"]]),                                        # bool index
        ([["i", 1], ["u", "-", -1, "Int"]], [[1, "sat"]]),     # negative
        ([["i", 1]], [[1, "sat"]]),                            # root range
        ([["i", 1]], [[-1, "sat"]]),                           # negative root
        ([["i", 1]], [[False, "sat"]]),                        # bool root
        ([["i", 1], "i"], [[0, "sat"]]),                       # non-list row
        ([["i", 1], ["a", "f", [0, 2], "Int"]], [[1, "sat"]]),  # arg range
        ([["i", 1], ["u", "-", 1.0, "Int"]], [[1, "sat"]]),    # float index
    ], ids=["forward", "self", "bool-index", "negative-index",
            "root-out-of-range", "negative-root", "bool-root",
            "non-list-row", "arg-out-of-range", "float-index"])
    def test_malformed_table_is_a_miss(self, tmp_path, nodes, pairs):
        data = {"nodes": nodes, "pairs": pairs}
        # The decoder itself rejects it (not the envelope's catch-all).
        with pytest.raises(CodecError):
            decode_verdicts(data)
        payload = _entry("verdicts", data)
        store = open_store(CheckConfig(store_path=str(tmp_path)))
        key = "e" * 64
        assert store.backend.put("verdicts", key, payload)
        assert store.load_verdicts(key) is None
        assert store.counters() == {"hits": 0, "misses": 1, "writes": 0}

    def test_malformed_solution_reference_is_a_miss(self, tmp_path):
        payload = _entry("solutions",
                         {"nodes": [["b", True]], "kappas": {"k": [0, 1]}})
        store = open_store(CheckConfig(store_path=str(tmp_path)))
        store.backend.put("solutions", "f" * 64, payload)
        assert store.load_solution("f" * 64) is None
        assert store.misses == 1

    def test_schema_1_tree_entry_is_a_miss(self, tmp_path):
        """An entry in the previous per-term tree format, under its own
        schema stamp, is never misread as a node table."""
        tree = [[["o", "<=", ["i", 0], ["v", "x", "Int"], "Bool"], "unsat"]]
        payload = _entry("verdicts", tree, schema=1)
        with pytest.raises(CodecError):
            decode_entry("verdicts", payload)
        store = open_store(CheckConfig(store_path=str(tmp_path)))
        store.backend.put("verdicts", "a" * 64, payload)
        assert store.load_verdicts("a" * 64) is None
        assert store.misses == 1


class TestEntryEnvelope:
    def test_round_trip(self):
        pairs = [(Var("p", BOOL), Result.UNSAT)]
        assert decode_entry("verdicts",
                            encode_entry("verdicts", pairs)) == pairs

    def test_schema_mismatch_is_a_miss(self):
        payload = encode_entry("verdicts", [])
        bumped = payload.replace(
            f'"schema":{STORE_SCHEMA}'.encode(),
            f'"schema":{STORE_SCHEMA + 1}'.encode())
        assert bumped != payload
        with pytest.raises(CodecError):
            decode_entry("verdicts", bumped)

    def test_kind_mismatch_is_a_miss(self):
        payload = encode_entry("solutions", {})
        with pytest.raises(CodecError):
            decode_entry("verdicts", payload)

    @pytest.mark.parametrize("payload", [
        b"", b"garbage", b"{", b"[1,2,3]", b'{"schema":1}',
        b'\x00\xff\xfe', b'{"data":[],"kind":"verdicts","',
        encode_entry("verdicts", [])[:-10],
    ])
    def test_truncated_or_garbage_bytes(self, payload):
        with pytest.raises(CodecError):
            decode_entry("verdicts", payload)


class TestModuleArtifactCodec:
    def _artifact(self):
        summary = ModuleSummary(
            path="/p/lib.rsc",
            exports={"zeta": ["spec zeta :: () => number;"],
                     "alpha": ["export type alpha = number;"]},
            qualifiers=["0 <= v"], fingerprint="abc123")
        span = SourceSpan(3, 1, 3, 20, "/p/lib.rsc")
        diag = Diagnostic(ErrorKind.PARSE, "boom", span,
                          Severity.ERROR, "RSC-PARSE-001")
        return ModuleArtifact(parses=True, summary=summary,
                              imports=[(["a", "b"], "./dep", span)],
                              parse_diagnostics=[diag])

    def test_round_trip(self):
        artifact = self._artifact()
        decoded = decode_entry("modules", encode_entry("modules", artifact))
        assert decoded.parses is True
        assert decoded.summary.path == artifact.summary.path
        assert decoded.summary.exports == artifact.summary.exports
        assert decoded.summary.qualifiers == artifact.summary.qualifiers
        assert decoded.summary.fingerprint == artifact.summary.fingerprint
        assert decoded.imports == artifact.imports
        assert decoded.parse_diagnostics == artifact.parse_diagnostics

    def test_export_order_survives_the_sorted_envelope(self):
        # The envelope serialiser sorts object keys; export order is
        # declaration order and feeds the interface prelude, so it must
        # survive byte-exactly ("zeta" deliberately precedes "alpha").
        decoded = decode_entry("modules",
                               encode_entry("modules", self._artifact()))
        assert list(decoded.summary.exports) == ["zeta", "alpha"]

    def test_malformed_module_rejected(self):
        obj = encode_module(self._artifact())
        del obj["summary"]["fingerprint"]
        with pytest.raises(CodecError):
            decode_module(obj)


class TestLocalBackend:
    def test_put_get_and_shard_layout(self, tmp_path):
        backend = LocalStoreBackend(tmp_path)
        key = "ab" + "0" * 62
        assert backend.get("verdicts", key) is None
        assert backend.put("verdicts", key, b"payload")
        assert backend.get("verdicts", key) == b"payload"
        assert (tmp_path / "verdicts" / "ab" / f"{key}.json").is_file()

    def test_overwrite_is_atomic_replace(self, tmp_path):
        backend = LocalStoreBackend(tmp_path)
        key = "cd" + "1" * 62
        assert backend.put("solutions", key, b"old")
        assert backend.put("solutions", key, b"new")
        assert backend.get("solutions", key) == b"new"
        leftovers = list((tmp_path / "solutions").rglob("*.tmp"))
        assert leftovers == []

    @pytest.mark.parametrize("kind,key", [
        ("../evil", "a" * 64), ("", "a" * 64), ("k.v", "a" * 64),
        ("verdicts", "no"), ("verdicts", "../../../../etc/passwd"),
        ("verdicts", "a b c"),
    ])
    def test_path_traversal_rejected(self, tmp_path, kind, key):
        with pytest.raises(ValueError):
            LocalStoreBackend(tmp_path)._path(kind, key)

    def test_stats_and_clear(self, tmp_path):
        backend = LocalStoreBackend(tmp_path)
        backend.put("verdicts", "aa" + "0" * 62, b"12345")
        backend.put("solutions", "bb" + "0" * 62, b"123")
        stats = backend.stats()
        assert stats.kinds["verdicts"].entries == 1
        assert stats.kinds["verdicts"].bytes == 5
        assert stats.total_entries == 2
        assert stats.total_bytes == 8
        assert backend.clear() == 2
        assert backend.stats().total_entries == 0

    def test_gc_evicts_oldest_first(self, tmp_path):
        import os
        backend = LocalStoreBackend(tmp_path)
        keys = [f"{i:02d}" + "0" * 62 for i in range(4)]
        for i, key in enumerate(keys):
            backend.put("verdicts", key, b"x" * 10)
            os.utime(backend._path("verdicts", key), (1000 + i, 1000 + i))
        result = backend.gc(max_bytes=20)
        assert result.evicted_entries == 2
        assert result.kept_entries == 2
        assert backend.get("verdicts", keys[0]) is None
        assert backend.get("verdicts", keys[1]) is None
        assert backend.get("verdicts", keys[3]) == b"x" * 10

    def test_gc_sweeps_crashed_writer_droppings(self, tmp_path):
        backend = LocalStoreBackend(tmp_path)
        key = "aa" + "0" * 62
        backend.put("verdicts", key, b"kept")
        shard = tmp_path / "verdicts" / "aa"
        (shard / ".crashed.123.0.tmp").write_bytes(b"partial")
        backend.gc(max_bytes=10 ** 9)
        assert not (shard / ".crashed.123.0.tmp").exists()
        assert backend.get("verdicts", key) == b"kept"

    def test_gc_skips_entries_a_concurrent_writer_removed(self, tmp_path):
        """Regression: a file vanishing between the GC's listing and its
        unlink (a concurrent writer/GC won the race) must be skipped —
        neither raised, nor miscounted as kept with a stale size."""
        import os
        backend = LocalStoreBackend(tmp_path)
        keys = [f"{i:02d}" + "0" * 62 for i in range(3)]
        for i, key in enumerate(keys):
            backend.put("verdicts", key, b"x" * 10)
            os.utime(backend._path("verdicts", key), (1000 + i, 1000 + i))
        real_scan = backend._scan

        def racing_scan(sweep_tmp=False):
            for kind, entries in real_scan(sweep_tmp=sweep_tmp):
                # the concurrent writer deletes the oldest listed entry
                # after the listing but before gc reaches it
                backend._path("verdicts", keys[0]).unlink(missing_ok=True)
                yield kind, entries

        backend._scan = racing_scan
        result = backend.gc(max_bytes=0)
        assert result.evicted_entries == 2
        assert result.kept_entries == 0
        assert backend.stats().total_entries == 0


class TestRegistry:
    def test_unknown_backend_raises(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for path in ("no-such-backend:///tmp/x", "redis://host/0"):
            with pytest.raises(ValueError, match="unsupported store path"):
                CheckConfig(store_path=path)
            with pytest.raises(ValueError, match="unsupported store path"):
                LocalStoreBackend(path)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_backend_error_lists_registered_schemes(self):
        with pytest.raises(ValueError) as excinfo:
            CheckConfig(store_path="redis://host/0")
        message = str(excinfo.value)
        assert "'redis://host/0'" in message
        assert "the only store scheme is local://" in message


class TestStorePath:
    def test_only_the_local_scheme_is_accepted(self, tmp_path, monkeypatch,
                                               capsys):
        from repro.__main__ import EXIT_USAGE, main
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_STORE", raising=False)
        local = open_store(CheckConfig(store_path=f"local://{tmp_path}/s"))
        assert local.backend.root == tmp_path / "s"
        for path in ("remote://127.0.0.1:1", "tiered://s?remote=h:1"):
            with pytest.raises(ValueError, match="networked stores"):
                CheckConfig(store_path=path)
        source = tmp_path / "x.rsc"
        source.write_text("spec id :: (x: number) => number;\n"
                          "function id(x) { return x; }\n")
        before = sorted(tmp_path.iterdir())
        assert main(["check", "--store", "remote://127.0.0.1:1",
                     str(source)]) == EXIT_USAGE
        assert main(["cache", "stats", "--store",
                     "remote://127.0.0.1:1"]) == EXIT_USAGE
        monkeypatch.setenv("REPRO_STORE", "tiered://s?remote=h:1")
        assert main(["check", str(source)]) == EXIT_USAGE
        assert main(["cache", "stats"]) == EXIT_USAGE
        assert sorted(tmp_path.iterdir()) == before
        assert capsys.readouterr().err.count("were removed") == 4


#: :class:`CheckConfig` options the store's config fingerprint leaves out,
#: because none of them changes a stored solution or verdict (a nested
#: options object is named whole, or one ``object.field`` at a time).
NOT_VERDICT_AFFECTING = {
    "warnings_as_errors", "jobs", "document_cache_limit",
    "store_path", "store_mode", "service", "obs",
    "solver.cache_size_limit", "solver.context_cache_limit",
}

#: A second valid value for each string option.
OTHER_CHOICE = {"qualifier_set": "harvested", "store_mode": "off"}


def _option_variants(options, prefix=""):
    """``(path, copy of options with that one leaf option changed)`` for
    every leaf option, recursing into nested options objects."""
    for field in fields(options):
        value = getattr(options, field.name)
        path = prefix + field.name
        if isinstance(value, Record):
            for nested_path, nested in _option_variants(value, path + "."):
                yield nested_path, replace(
                    options, **{field.name: nested})
            continue
        if isinstance(value, bool):
            other = not value
        elif isinstance(value, int):
            other = value + 1
        elif value is None:
            other = "elsewhere"
        else:
            other = OTHER_CHOICE[field.name]
        yield path, replace(options, **{field.name: other})


class TestConfigAndKeys:
    def test_store_mode_validated(self):
        with pytest.raises(ValueError, match="store_mode"):
            CheckConfig(store_mode="sometimes")

    def test_open_store_disabled(self, tmp_path):
        assert open_store(CheckConfig()) is None
        assert open_store(CheckConfig(store_path=str(tmp_path),
                                      store_mode="off")) is None

    def test_open_store_readonly(self, tmp_path):
        store = open_store(CheckConfig(store_path=str(tmp_path),
                                       store_mode="readonly"))
        assert store.readonly
        store.save_solution("a" * 64, {})
        assert store.writes == 0
        assert store.load_solution("a" * 64) is None

    def test_default_store_path_honours_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_store_path() == str(tmp_path / "repro" / "store")

    def test_config_fingerprint_tracks_verdict_affecting_options(self):
        base = config_fingerprint(CheckConfig())
        assert base == config_fingerprint(CheckConfig())
        assert base != config_fingerprint(
            CheckConfig(qualifier_set="harvested"))
        assert base != config_fingerprint(
            CheckConfig(max_fixpoint_iterations=7))
        assert base != config_fingerprint(
            CheckConfig(solver=SolverOptions(max_theory_iterations=2)))

    def test_config_fingerprint_ignores_capacity_and_output(self):
        base = config_fingerprint(CheckConfig())
        # Verdicts are unaffected by cache sizing or output options.
        assert base == config_fingerprint(
            CheckConfig(warnings_as_errors=True))
        assert base == config_fingerprint(
            CheckConfig(document_cache_limit=2))
        assert base == config_fingerprint(
            CheckConfig(solver=SolverOptions(cache_size_limit=1)))

    def test_config_fingerprint_accounts_for_every_option(self):
        """Every :class:`CheckConfig` option moves the fingerprint unless
        it is listed in :data:`NOT_VERDICT_AFFECTING`, and none of those
        does: a new option cannot alias stored verdicts unnoticed."""
        base = config_fingerprint(CheckConfig())
        checked = set()
        for path, changed in _option_variants(CheckConfig()):
            exempt = (path in NOT_VERDICT_AFFECTING
                      or path.split(".")[0] in NOT_VERDICT_AFFECTING)
            assert (config_fingerprint(changed) != base) != exempt, path
            checked.add(path)
        assert {"max_fixpoint_iterations", "qualifier_set",
                "solver.max_theory_iterations"} <= checked

    def test_document_key_separates_config_and_content(self):
        key = ArtifactStore.document_key
        assert key("h1", "c1") != key("h2", "c1")
        assert key("h1", "c1") != key("h1", "c2")
        assert key("h1", "c1") == key("h1", "c1")

    def test_module_key_separates_path_and_source(self):
        key = ArtifactStore.module_key
        assert key("a.rsc", "x") != key("b.rsc", "x")
        assert key("a.rsc", "x") != key("a.rsc", "y")


class TestArtifactStoreRobustness:
    def test_corrupted_entry_is_a_miss(self, tmp_path):
        store = open_store(CheckConfig(store_path=str(tmp_path)))
        key = "a" * 64
        store.save_solution(key, {"k": [IntLit(1)]})
        assert store.writes == 1
        path = tmp_path / "solutions" / key[:2] / f"{key}.json"
        path.write_bytes(b"{corrupt")
        assert store.load_solution(key) is None
        assert store.misses == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = open_store(CheckConfig(store_path=str(tmp_path)))
        key = "b" * 64
        store.save_verdicts(key, [(Var("p", BOOL), Result.UNSAT)])
        path = tmp_path / "verdicts" / key[:2] / f"{key}.json"
        path.write_bytes(path.read_bytes()[:-15])
        assert store.load_verdicts(key) is None

    def test_version_bumped_entry_is_a_miss(self, tmp_path):
        store = open_store(CheckConfig(store_path=str(tmp_path)))
        key = "c" * 64
        store.save_solution(key, {})
        path = tmp_path / "solutions" / key[:2] / f"{key}.json"
        obj = json.loads(path.read_bytes())
        obj["schema"] = STORE_SCHEMA + 1
        path.write_text(json.dumps(obj))
        assert store.load_solution(key) is None

    def test_unencodable_save_is_a_dropped_write(self, tmp_path):
        store = open_store(CheckConfig(store_path=str(tmp_path)))
        store.save_solution("a" * 64, {"k": [object()]})
        assert store.writes == 0
        assert store.stats().total_entries == 0

    def test_encoder_recursion_is_a_dropped_write(self, tmp_path,
                                                  monkeypatch):
        def overflow(kind, data):
            raise RecursionError("injected encoder overflow")

        monkeypatch.setattr(codec, "encode_entry", overflow)
        store = open_store(CheckConfig(store_path=str(tmp_path)))
        store.save_verdicts("b" * 64, [(Var("p", BOOL), Result.UNSAT)])
        assert store.writes == 0
        assert store.stats().total_entries == 0

    def test_hit_and_counter_accounting(self, tmp_path):
        store = open_store(CheckConfig(store_path=str(tmp_path)))
        key = "d" * 64
        assert store.load_solution(key) is None
        solution = {"k": [BinOp("<=", IntLit(0), Var("v", INT), BOOL)]}
        store.save_solution(key, solution)
        assert store.load_solution(key) == solution
        assert store.counters() == {"hits": 1, "misses": 1, "writes": 1}
