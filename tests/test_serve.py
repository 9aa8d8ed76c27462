"""The ``repro serve`` NDJSON protocol and the ``repro watch`` poller."""

import io
import json
import os

from repro.core.config import CheckConfig
from repro.service.core import DEFAULT_TENANT, ServiceCore
from repro.service.server import serve
from repro.watch import Watcher

SAFE = """
type idx<a> = {v: number | 0 <= v && v < len(a)};
spec get :: (a: number[], i: idx<a>) => number;
function get(a, i) { return a[i]; }
"""

UNSAFE = """
spec get :: (a: number[], i: number) => number;
function get(a, i) { return a[i]; }
"""

EDIT = SAFE.replace("return a[i];", "var x = a[i]; return x;")


def handle(core, request):
    """One request object through the core's dispatch, as its response."""
    return core.handle_raw(request).to_json()


class TestServer:
    def test_check_update_diagnostics_shutdown_round_trip(self):
        core = ServiceCore(CheckConfig())
        check = handle(core, {"id": 1, "method": "check",
                              "params": {"uri": "a.rsc", "text": SAFE}})
        assert check["ok"] and check["id"] == 1
        assert check["result"]["status"] == "SAFE"
        assert check["result"]["queries"] > 0
        assert check["result"]["delta_seconds"] is None

        update = handle(core, {"id": 2, "method": "update",
                               "params": {"uri": "a.rsc", "text": EDIT}})
        assert update["ok"]
        assert update["result"]["warm"] is True
        assert update["result"]["delta_seconds"] is not None
        assert update["result"]["queries"] < check["result"]["queries"]
        stats = update["result"]["solve_stats"]
        assert stats["warm_starts"] == 1

        diags = handle(core, {"id": 3, "method": "diagnostics",
                              "params": {"uri": "a.rsc"}})
        assert diags["ok"] and diags["result"]["diagnostics"] == []

        down = handle(core, {"id": 4, "method": "shutdown"})
        assert down["ok"] and down["result"]["shutdown"] is True
        assert core.shutting_down

    def test_unsafe_document_reports_diagnostics(self):
        core = ServiceCore(CheckConfig())
        check = handle(core, {"id": 1, "method": "check",
                              "params": {"uri": "u.rsc", "text": UNSAFE}})
        assert check["ok"]  # the *request* succeeded
        assert check["result"]["status"] == "UNSAFE"
        codes = [d["code"] for d in check["result"]["diagnostics"]]
        assert "RSC-BND-001" in codes

    def test_errors_update_before_open_and_unknown_method(self):
        core = ServiceCore(CheckConfig())
        missing = handle(core, {"id": 5, "method": "update",
                                "params": {"uri": "nope.rsc", "text": SAFE}})
        assert not missing["ok"]
        assert missing["error"]["code"] == "not-open"
        unknown = handle(core, {"id": 6, "method": "solve"})
        assert not unknown["ok"]
        assert unknown["error"]["code"] == "unknown-method"
        bad = handle(core, {"id": 7, "method": "check", "params": {}})
        assert not bad["ok"]
        assert bad["error"]["code"] == "bad-params"

    def test_close_forgets_document(self):
        core = ServiceCore(CheckConfig())
        handle(core, {"id": 1, "method": "check",
                      "params": {"uri": "a.rsc", "text": SAFE}})
        closed = handle(core, {"id": 2, "method": "close",
                               "params": {"uri": "a.rsc"}})
        assert closed["ok"] and closed["result"]["closed"]
        diags = handle(core, {"id": 3, "method": "diagnostics",
                              "params": {"uri": "a.rsc"}})
        assert not diags["ok"]

    def test_internal_exception_answers_instead_of_killing_loop(self, monkeypatch):
        core = ServiceCore(CheckConfig())
        # a checker crash (injected here — deep nesting now degrades to an
        # RSC-INT-001 diagnostic instead of crashing) must surface as an
        # error *response* and the loop must keep serving
        from repro.core.workspace import Workspace
        real_open = Workspace.open

        def crashing_open(self, uri, text=None, **kwargs):
            if text is not None and "BOOM" in text:
                raise RecursionError("injected checker crash")
            return real_open(self, uri, text, **kwargs)

        monkeypatch.setattr(Workspace, "open", crashing_open)
        broken = handle(core, {"id": 1, "method": "check",
                               "params": {"uri": "b.rsc", "text": "// BOOM"}})
        assert not broken["ok"]
        assert broken["error"]["code"] == "internal-error"
        ok = handle(core, {"id": 2, "method": "check",
                           "params": {"uri": "a.rsc", "text": SAFE}})
        assert ok["ok"] and ok["result"]["status"] == "SAFE"

    def test_malformed_line_yields_error_and_loop_continues(self):
        stdin = io.StringIO("{not json\n\n[1, 2]\n"
                            + json.dumps({"id": 1, "method": "hello"}) + "\n")
        stdout = io.StringIO()
        assert serve(stdin, stdout, CheckConfig()) == 0
        broken, array, hello = [json.loads(line)
                                for line in stdout.getvalue().splitlines()]
        assert not broken["ok"] and broken["id"] is None
        assert broken["error"]["code"] == "parse-error"
        assert not array["ok"]  # the blank line got no response
        assert array["error"]["code"] == "parse-error"
        assert hello["ok"] and hello["id"] == 1

    def test_serve_stream_loop(self):
        requests = [
            {"id": 1, "method": "check",
             "params": {"uri": "a.rsc", "text": SAFE}},
            {"id": 2, "method": "update",
             "params": {"uri": "a.rsc", "text": EDIT}},
            {"id": 3, "method": "diagnostics", "params": {"uri": "a.rsc"}},
            {"id": 4, "method": "shutdown"},
            {"id": 5, "method": "check",  # never reached: after shutdown
             "params": {"uri": "b.rsc", "text": SAFE}},
        ]
        stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
        stdout = io.StringIO()
        assert serve(stdin, stdout, CheckConfig()) == 0
        responses = [json.loads(line)
                     for line in stdout.getvalue().splitlines()]
        assert [r["id"] for r in responses] == [1, 2, 3, 4]
        assert all(r["ok"] for r in responses)
        assert responses[1]["result"]["warm"] is True
        assert responses[3]["result"]["requests_served"] == 4


PROJECT_TYPES = 'export type NEArray<T> = {v: T[] | 0 < len(v)};\n'
PROJECT_LIB = ('import {NEArray} from "./types";\n'
               'export spec head :: (xs: NEArray<number>) => number;\n'
               'export function head(xs) { return xs[0]; }\n')
PROJECT_MAIN = ('import {head} from "./lib";\n'
                'spec main :: () => void;\n'
                'function main() { var xs = new Array(3); '
                'var h = head(xs); }\n')


class TestProjectOps:
    def write_project(self, tmp_path):
        (tmp_path / "types.rsc").write_text(PROJECT_TYPES)
        (tmp_path / "lib.rsc").write_text(PROJECT_LIB)
        (tmp_path / "main.rsc").write_text(PROJECT_MAIN)
        return tmp_path

    def test_project_open_update_diagnostics(self, tmp_path):
        root = self.write_project(tmp_path)
        core = ServiceCore(CheckConfig())
        opened = handle(core, {"id": 1, "method": "project_open",
                               "params": {"root": str(root)}})
        assert opened["ok"], opened
        assert opened["result"]["status"] == "SAFE"
        assert opened["result"]["num_modules"] == 3
        assert sorted(opened["result"]["ranks"].values()) == [0, 1, 2]

        lib = str(root / "lib.rsc")
        edited = PROJECT_LIB.replace("return xs[0];",
                                     "var h = xs[0]; return h;")
        updated = handle(core, {"id": 2, "method": "project_update",
                                "params": {"uri": lib, "text": edited}})
        assert updated["ok"], updated
        assert updated["result"]["summary_changed"] is False
        assert [os.path.basename(p)
                for p in updated["result"]["rechecked"]] == ["lib.rsc"]
        assert updated["result"]["ok"]

        diag = handle(core, {"id": 3, "method": "project_diagnostics",
                             "params": {"uri": str(root / "main.rsc")}})
        assert diag["ok"] and diag["result"]["status"] == "SAFE"

    def test_injected_workspace_config_governs_project_ops(self, tmp_path):
        # A module whose function lacks a spec only warns; under a
        # warnings-as-errors config, file and project checks must agree.
        (tmp_path / "warn.rsc").write_text(
            "function untyped(x) { return x; }\n")
        core = ServiceCore(CheckConfig(warnings_as_errors=True))
        opened = handle(core, {"id": 1, "method": "project_open",
                               "params": {"root": str(tmp_path)}})
        assert opened["ok"]
        assert opened["result"]["status"] == "UNSAFE"

    def test_project_update_unknown_module_errors(self, tmp_path):
        # A typo'd or relative URI must not register a phantom module.
        root = self.write_project(tmp_path)
        core = ServiceCore(CheckConfig())
        assert handle(core, {"id": 1, "method": "project_open",
                             "params": {"root": str(root)}})["ok"]
        response = handle(core, 
           {"id": 2, "method": "project_update",
            "params": {"uri": "lib.rsc", "text": PROJECT_LIB}})
        assert not response["ok"]
        assert response["error"]["code"] == "not-open"
        project = core.manager.peek(DEFAULT_TENANT).project
        assert len(project.modules()) == 3

    def test_non_string_text_is_bad_params(self):
        core = ServiceCore(CheckConfig())
        response = handle(core, {"id": 1, "method": "check",
                                 "params": {"uri": "a.rsc", "text": 123}})
        assert not response["ok"]
        assert response["error"]["code"] == "bad-params"

    def test_project_update_before_open_errors(self):
        core = ServiceCore(CheckConfig())
        response = handle(core, {"id": 1, "method": "project_update",
                                 "params": {"uri": "x.rsc", "text": ""}})
        assert not response["ok"]
        assert response["error"]["code"] == "not-open"

    def test_project_open_missing_root_errors(self, tmp_path):
        core = ServiceCore(CheckConfig())
        response = handle(core, 
           {"id": 1, "method": "project_open",
            "params": {"root": str(tmp_path / "nope")}})
        assert not response["ok"]
        assert response["error"]["code"] == "io-error"


class TestWatcher:
    def test_scan_checks_on_mtime_change_only(self, tmp_path):
        path = tmp_path / "a.rsc"
        path.write_text(SAFE)
        out = io.StringIO()
        watcher = Watcher([str(path)], CheckConfig(), out=out)

        first = watcher.scan()
        assert len(first) == 1 and first[0].ok
        assert watcher.scan() == []  # unchanged -> no re-check

        path.write_text(EDIT)
        os.utime(path, ns=(path.stat().st_atime_ns,
                           path.stat().st_mtime_ns + 1_000_000))
        second = watcher.scan()
        assert len(second) == 1 and second[0].ok
        assert second[0].solve_stats["warm_starts"] == 1
        report = out.getvalue()
        assert "warm, 1/1 declarations re-checked" in report

    def test_non_utf8_file_reported_not_fatal(self, tmp_path):
        bad = tmp_path / "bad.rsc"
        bad.write_bytes(b"\xff\xfe not utf8")
        good = tmp_path / "good.rsc"
        good.write_text(SAFE)
        out = io.StringIO()
        watcher = Watcher([str(bad), str(good)], CheckConfig(), out=out)
        results = watcher.scan()
        assert len(results) == 1 and results[0].ok
        assert "unreadable" in out.getvalue()

    def test_missing_file_reported_once_then_recovers(self, tmp_path):
        path = tmp_path / "a.rsc"
        out = io.StringIO()
        watcher = Watcher([str(path)], CheckConfig(), out=out)
        assert watcher.scan() == []
        assert out.getvalue().count("unreadable") == 1  # reported immediately
        assert watcher.scan() == []
        assert out.getvalue().count("unreadable") == 1  # ...but only once
        path.write_text(SAFE)
        assert len(watcher.scan()) == 1

    def test_run_respects_max_scans(self, tmp_path):
        path = tmp_path / "a.rsc"
        path.write_text(SAFE)
        out = io.StringIO()
        watcher = Watcher([str(path)], CheckConfig(), out=out)
        assert watcher.run(poll_seconds=0.0, max_scans=1) == 0
        assert "SAFE" in out.getvalue()


class TestCli:
    def test_watch_subcommand_single_scan(self, tmp_path, capsys):
        from repro.__main__ import main
        path = tmp_path / "a.rsc"
        path.write_text(SAFE)
        assert main(["watch", str(path), "--max-scans", "1"]) == 0
        assert "SAFE" in capsys.readouterr().out

    def test_serve_subcommand_round_trip(self, monkeypatch, capsys):
        import sys
        from repro.__main__ import main
        requests = [
            {"id": 1, "method": "check",
             "params": {"uri": "a.rsc", "text": SAFE}},
            {"id": 2, "method": "shutdown"},
        ]
        stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["serve"]) == 0
        responses = [json.loads(line)
                     for line in capsys.readouterr().out.splitlines()]
        assert [r["id"] for r in responses] == [1, 2]
        assert all(r["ok"] for r in responses)
