"""The subcommand CLI: exit codes, output shaping, JSON format, explain."""

import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import EXIT_OK, EXIT_UNSAFE, EXIT_USAGE, main

SAFE_SOURCE = """
type idx<a> = {v: number | 0 <= v && v < len(a)};
spec get :: (a: number[], i: idx<a>) => number;
function get(a, i) { return a[i]; }
"""

UNSAFE_SOURCE = """
spec get :: (a: number[], i: number) => number;
function get(a, i) { return a[i]; }
"""

PARSE_ERROR_SOURCE = "function f( {"


@pytest.fixture
def safe_file(tmp_path):
    path = tmp_path / "safe.rsc"
    path.write_text(SAFE_SOURCE)
    return str(path)


@pytest.fixture
def unsafe_file(tmp_path):
    path = tmp_path / "unsafe.rsc"
    path.write_text(UNSAFE_SOURCE)
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.rsc"
    path.write_text(PARSE_ERROR_SOURCE)
    return str(path)


class TestExitCodes:
    def test_safe_file_exits_zero(self, safe_file):
        assert main(["check", safe_file]) == EXIT_OK

    def test_unsafe_file_exits_one(self, unsafe_file):
        assert main(["check", unsafe_file]) == EXIT_UNSAFE

    def test_parse_error_exits_one(self, broken_file):
        assert main(["check", broken_file]) == EXIT_UNSAFE

    def test_unreadable_file_exits_two(self, tmp_path):
        assert main(["check", str(tmp_path / "missing.rsc")]) == EXIT_USAGE

    def test_mixed_files_exit_one(self, safe_file, unsafe_file):
        assert main(["check", safe_file, unsafe_file]) == EXIT_UNSAFE

    def test_legacy_invocation_without_subcommand(self, safe_file):
        """`python -m repro file.rsc` still works as `check file.rsc`."""
        assert main([safe_file]) == EXIT_OK


class TestDeepExpression:
    """A 600-term sum overflows the checker's recursion: RSC-INT-001 and
    the internal-error exit code, never a traceback, store or no store."""

    @pytest.mark.parametrize("with_store", [False, True],
                             ids=["no-store", "store"])
    def test_deep_sum_is_a_diagnostic(self, tmp_path, capsys, with_store):
        path = tmp_path / "deep.rsc"
        path.write_text("spec f :: (x: number) => number;\n"
                        "function f(x) { var y = x" + " + 1" * 599
                        + "; return y; }\n")
        store = tmp_path / "store"
        argv = ["check", str(path)]
        if with_store:
            argv += ["--store", str(store)]
        assert main(argv) == EXIT_USAGE
        assert "RSC-INT-001" in capsys.readouterr().out
        # Nothing of the failed check is persisted.
        assert not (store / "verdicts").exists()
        assert not (store / "solutions").exists()


class TestTextOutput:
    def test_verdict_not_duplicated(self, safe_file, capsys):
        """The old CLI printed `name: SAFE (SAFE: ...)`; the status must
        appear exactly once per file line now."""
        main(["check", safe_file])
        line = capsys.readouterr().out.splitlines()[0]
        assert line.count("SAFE") == 1
        assert line.startswith(f"{safe_file}: SAFE")

    def test_diagnostics_printed_by_default(self, unsafe_file, capsys):
        main(["check", unsafe_file])
        out = capsys.readouterr().out
        assert "RSC-BND-001" in out
        assert "array index" in out

    def test_quiet_suppresses_diagnostics(self, unsafe_file, capsys):
        main(["check", "--quiet", unsafe_file])
        out = capsys.readouterr().out
        assert "array index" not in out
        assert "UNSAFE" in out

    def test_show_kappas_prints_inferred_refinements(self, tmp_path, capsys):
        # the quickstart reduce example infers len(a)-based kappas
        path = tmp_path / "reduce.rsc"
        path.write_text("""
type idx<a> = {v: number | 0 <= v && v < len(a)};
spec reduce :: <A,B>(a: A[], f: (B, A, idx<a>) => B, x: B) => B;
function reduce(a, f, x) {
  var res = x;
  for (var i = 0; i < a.length; i++) {
    res = f(res, a[i], i);
  }
  return res;
}
""")
        assert main(["check", "--show-kappas", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "$k" in out and ":=" in out

    def test_parse_error_carries_filename(self, broken_file, capsys):
        main(["check", broken_file])
        out = capsys.readouterr().out
        assert "RSC-PARSE-001" in out
        assert "broken.rsc" in out.splitlines()[1]


class TestJsonOutput:
    def test_json_round_trips(self, safe_file, unsafe_file, capsys):
        code = main(["check", "--format", "json", safe_file, unsafe_file])
        assert code == EXIT_UNSAFE
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "UNSAFE"
        assert payload["num_files"] == 2
        by_name = {entry["file"]: entry for entry in payload["files"]}
        assert by_name[safe_file]["ok"] is True
        assert by_name[unsafe_file]["ok"] is False

    def test_json_diagnostics_have_stable_codes(self, unsafe_file, capsys):
        main(["check", "--format", "json", unsafe_file])
        payload = json.loads(capsys.readouterr().out)
        codes = [d["code"] for f in payload["files"] for d in f["diagnostics"]]
        assert codes and all(c.startswith("RSC-") for c in codes)
        assert "RSC-BND-001" in codes

    def test_json_includes_timings_and_solver_stats(self, safe_file, capsys):
        main(["check", "--format", "json", safe_file])
        payload = json.loads(capsys.readouterr().out)
        entry = payload["files"][0]
        assert set(entry["timings"]) >= {"parse", "ssa", "constraints",
                                         "solve", "verify", "total"}
        assert entry["solver_stats"]["queries"] >= 0
        assert "cache_hits" in payload["solver_stats"]


class TestFlags:
    def test_jobs_flag_checks_all_files(self, tmp_path, capsys):
        paths = []
        for index in range(3):
            path = tmp_path / f"f{index}.rsc"
            path.write_text(SAFE_SOURCE)
            paths.append(str(path))
        assert main(["check", "--jobs", "2", "--format", "json", *paths]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_files"] == 3
        assert [f["file"] for f in payload["files"]] == paths

    def test_warnings_as_errors_flag(self, tmp_path):
        # a function without a spec only warns by default
        path = tmp_path / "warn.rsc"
        path.write_text("function untyped(x) { return x; }")
        assert main(["check", str(path)]) == EXIT_OK
        assert main(["check", "--warnings-as-errors", str(path)]) == EXIT_UNSAFE

    @pytest.mark.parametrize("command", [["check", "x.rsc"], ["serve"],
                                         ["watch", "x.rsc"]])
    def test_max_iterations_defaults_to_the_config(self, command):
        from repro import CheckConfig
        from repro.__main__ import build_parser
        args = build_parser().parse_args(command)
        assert args.max_iterations == CheckConfig.max_fixpoint_iterations

    def test_no_engine_selector_flag(self, safe_file, capsys):
        """There is one fixpoint engine; choosing another is a usage
        error."""
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--fixpoint", "naive", safe_file])
        assert exit_info.value.code == EXIT_USAGE
        assert "--fixpoint" in capsys.readouterr().err


class TestServeFlags:
    @pytest.mark.parametrize("flag", [["--host", "0.0.0.0"], ["--port", "5"],
                                      ["--queue-limit", "1"],
                                      ["--workers", "3"]])
    def test_tcp_only_flag_without_tcp_is_usage_error(self, flag, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert main(["serve", *flag]) == EXIT_USAGE
        assert f"{flag[0]} needs --tcp" in capsys.readouterr().err

    def test_tenants_flag_is_valid_on_stdio(self, capsys, monkeypatch):
        requests = [{"id": 1, "method": "check", "tenant": "alice",
                     "params": {"uri": "a.rsc", "text": SAFE_SOURCE}},
                    {"id": 2, "method": "shutdown"}]
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            "".join(json.dumps(r) + "\n" for r in requests)))
        assert main(["serve", "--tenants", "2"]) == EXIT_OK
        responses = [json.loads(line)
                     for line in capsys.readouterr().out.splitlines()]
        assert [r["ok"] for r in responses] == [True, True]


class TestJobsDefault:
    def test_unset_jobs_defers_to_config(self):
        """argparse must not hand cmd_check a hard default of 1 that
        silently overrides CheckConfig.jobs."""
        from repro.__main__ import build_parser
        args = build_parser().parse_args(["check", "x.rsc"])
        assert args.jobs is None

    def test_explicit_jobs_still_parses(self):
        from repro.__main__ import build_parser
        args = build_parser().parse_args(["check", "--jobs", "3", "x.rsc"])
        assert args.jobs == 3

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_is_usage_error(self, safe_file, capsys, jobs):
        assert main(["check", "--jobs", jobs, safe_file]) == EXIT_USAGE
        assert "jobs must be positive" in capsys.readouterr().err


PROJECT_TYPES = 'export type NEArray<T> = {v: T[] | 0 < len(v)};\n'
PROJECT_LIB = ('import {NEArray} from "./types";\n'
               'export spec head :: (xs: NEArray<number>) => number;\n'
               'export function head(xs) { return xs[0]; }\n')
PROJECT_MAIN = ('import {head} from "./lib";\n'
                'spec main :: () => void;\n'
                'function main() { var xs = new Array(3); '
                'var h = head(xs); }\n')


@pytest.fixture
def project_dir(tmp_path):
    (tmp_path / "types.rsc").write_text(PROJECT_TYPES)
    (tmp_path / "lib.rsc").write_text(PROJECT_LIB)
    (tmp_path / "main.rsc").write_text(PROJECT_MAIN)
    return tmp_path


class TestProjectMode:
    def test_directory_argument_checks_the_module_graph(self, project_dir,
                                                        capsys):
        assert main(["check", str(project_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3 module(s)" in out
        assert "rank 0" in out and "rank 2" in out

    def test_project_json_payload(self, project_dir, capsys):
        assert main(["check", "--format", "json", str(project_dir)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["num_modules"] == 3
        assert sorted(payload["ranks"].values()) == [0, 1, 2]
        assert "jobs" not in payload
        # the per-stage sums over the modules; no second rendering
        assert "metrics" not in payload
        assert payload["timings"]["total"] == pytest.approx(sum(
            module["timings"]["total"] for module in payload["modules"]))

    def test_project_json_store_section_counts_the_build(self, project_dir,
                                                         tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["check", "--format", "json", "--store", store,
                str(project_dir)]
        assert main(argv) == EXIT_OK
        cold = json.loads(capsys.readouterr().out)
        assert cold["store"]["writes"] > 0
        assert main(argv) == EXIT_OK
        warm = json.loads(capsys.readouterr().out)
        assert warm["solver_stats"]["queries"] == 0
        assert warm["store"]["hits"] > 0 and warm["store"]["writes"] == 0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_jobs_with_directory_is_usage_error(self, project_dir, capsys,
                                                jobs):
        assert main(["check", "--jobs", jobs, str(project_dir)]) == \
            EXIT_USAGE
        err = capsys.readouterr().err
        assert "--jobs" in err and "sequentially" in err

    def test_unsafe_project_exits_one(self, project_dir, capsys):
        (project_dir / "main.rsc").write_text(
            PROJECT_MAIN.replace("new Array(3)", "new Array(0)"))
        assert main(["check", str(project_dir)]) == EXIT_UNSAFE
        assert "RSC-SUB" in capsys.readouterr().out

    def test_import_cycle_reports_stable_diagnostic(self, tmp_path, capsys):
        (tmp_path / "a.rsc").write_text(
            'import {tb} from "./b";\nexport type ta = number;\n')
        (tmp_path / "b.rsc").write_text(
            'import {ta} from "./a";\nexport type tb = number;\n')
        assert main(["check", str(tmp_path)]) == EXIT_UNSAFE
        out = capsys.readouterr().out
        assert "RSC-MOD-002" in out and "cycle" in out

    def test_module_nested_too_deep_exits_two(self, project_dir):
        # A subprocess, so a crash would show as a traceback on stderr.
        (project_dir / "deep.rsc").write_text(
            "spec f :: () => number;\nfunction f() { return "
            + "(" * 3000 + "1" + ")" * 3000 + "; }\n")
        root = pathlib.Path(__file__).resolve().parent.parent
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "check", "--format", "json",
             str(project_dir)],
            cwd=root, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_USAGE, done.stderr
        assert "Traceback" not in done.stderr
        payload = json.loads(done.stdout)
        deep = [m for m in payload["modules"]
                if m["file"].endswith("deep.rsc")]
        assert [d["code"] for d in deep[0]["diagnostics"]] == \
            ["RSC-INT-001"]
        assert payload["num_modules"] == 4

    def test_directory_mixed_with_files_is_usage_error(self, project_dir,
                                                       tmp_path, capsys):
        other = tmp_path / "solo.rsc"
        other.write_text(SAFE_SOURCE)
        assert main(["check", str(project_dir), str(other)]) == EXIT_USAGE


class TestExplain:
    def test_known_code(self, capsys):
        assert main(["explain", "RSC-SUB-003"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "RSC-SUB-003" in out and "return" in out

    def test_lowercase_code_accepted(self, capsys):
        assert main(["explain", "rsc-bnd-001"]) == EXIT_OK
        assert "bounds" in capsys.readouterr().out

    def test_unknown_code_exits_two(self, capsys):
        assert main(["explain", "RSC-NOPE-999"]) == EXIT_USAGE

    def test_listing_all_codes(self, capsys):
        assert main(["explain"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "RSC-PARSE-001" in out and "RSC-CAST-001" in out
