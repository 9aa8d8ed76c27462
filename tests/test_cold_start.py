"""The public surface of ``repro`` and what a one-shot check imports.

``import repro`` loads the checker only.  ``Client``, ``ArtifactStore``
and the project names (``ProjectResult``, ``ProjectUpdate``,
``ProjectWorkspace``, ``check_project``) resolve on first access through a
module ``__getattr__`` (PEP 562), so a cold ``repro check FILE`` never
imports the service stack (``asyncio``, ``ssl``, ``socket``), the process
pool (``multiprocessing``, ``concurrent.futures``) or, without a store
path, the artifact store (``repro.store``).  Records generate no code, so
``dataclasses`` and ``inspect`` stay out too, for a file and for a
project.  The subprocess tests below pin that floor: each runs in a fresh
interpreter, because this one has imported everything already.

At exit ``repro`` freezes the heap, so the interpreter's final
collections have nothing to traverse.  ``TestExitFreeze`` registers an
``atexit`` probe before ``import repro``; handlers run last-in first-out,
so the probe runs after repro's and reports whether the heap is frozen.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_DIR = str(ROOT / "src")
PORT = str(ROOT / "benchmarks" / "programs" / "richards.rsc")
PROJECT = str(ROOT / "benchmarks" / "modules" / "splay")

#: Modules a one-shot check without a store must not load (records are
#: ``repro.node.Record`` subclasses: no ``dataclasses``, no ``inspect``).
HEAVY = ("asyncio", "ssl", "socket", "multiprocessing", "concurrent.futures",
         "subprocess", "fractions", "repro.store", "dataclasses", "inspect")

LAZY = ("ArtifactStore", "Client", "ProjectResult", "ProjectUpdate",
        "ProjectWorkspace", "check_project")


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC_DIR
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


class TestPublicSurface:
    @pytest.mark.parametrize("name", repro.__all__)
    def test_every_exported_name_resolves(self, name):
        assert getattr(repro, name) is not None

    def test_dir_lists_every_exported_name(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_lazy_names_come_from_their_modules(self):
        from repro.client import Client
        from repro.project import ProjectWorkspace, check_project
        from repro.store import ArtifactStore
        assert repro.ArtifactStore is ArtifactStore
        assert repro.Client is Client
        assert repro.ProjectWorkspace is ProjectWorkspace
        assert repro.check_project is check_project
        assert set(LAZY) <= set(repro.__all__)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018
        assert not hasattr(repro, "no_such_name")

    def test_star_import_and_client_in_a_fresh_process(self):
        proc = run_python("-c", (
            "from repro import *\n"
            "from repro import Client\n"
            "import repro\n"
            "missing = [n for n in repro.__all__ if n not in globals()]\n"
            "assert not missing, missing\n"
            "assert Client.__module__ == 'repro.client'\n"
            "print('ok')\n"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestImportFloor:
    def test_library_check_loads_no_service_or_pool(self):
        proc = run_python("-c", (
            "import json, sys\n"
            "from repro import CheckConfig, Session\n"
            f"result = Session(CheckConfig()).check_file({PORT!r})\n"
            "assert result.ok, result.summary()\n"
            "print(json.dumps(sorted(sys.modules)))\n"))
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert [name for name in HEAVY if name in loaded] == []
        assert "repro.client" not in loaded
        assert "repro.project" not in loaded

    def test_project_check_loads_no_service_pool_or_store(self):
        proc = run_python("-c", (
            "import json, sys\n"
            "from repro import Session\n"
            f"outcome = Session().check_project({PROJECT!r})\n"
            "assert outcome.ok, [r.summary() for r in outcome.results]\n"
            "print(json.dumps(sorted(sys.modules)))\n"))
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert "repro.project" in loaded
        assert [name for name in HEAVY if name in loaded] == []

    def test_cli_check_loads_no_service_or_pool(self):
        proc = run_python("-X", "importtime", "-m", "repro", "check",
                          "--quiet", PORT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        loaded = {line.rsplit("|", 1)[1].strip()
                  for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert "repro.core.session" in loaded  # the listing is complete
        assert [name for name in HEAVY if name in loaded] == []


#: Registered before ``import repro``, so it runs after repro's handler.
EXIT_PROBE = (
    "import atexit, gc, os\n"
    "atexit.register(lambda: os.write(\n"
    "    2, b'frozen-at-exit: %d\\n' % (gc.get_freeze_count() > 0)))\n")


class TestExitFreeze:
    def assert_frozen_at_exit(self, proc):
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stderr.splitlines()[-1] == "frozen-at-exit: 1", \
            proc.stderr

    def test_library_file_check_exits_frozen(self):
        proc = run_python("-c", EXIT_PROBE + (
            "from repro import CheckConfig, Session\n"
            f"assert Session(CheckConfig()).check_file({PORT!r}).ok\n"))
        self.assert_frozen_at_exit(proc)

    def test_project_check_exits_frozen(self):
        proc = run_python("-c", EXIT_PROBE + (
            "from repro import Session\n"
            f"assert Session().check_project({PROJECT!r}).ok\n"))
        self.assert_frozen_at_exit(proc)

    def test_cli_json_check_exits_frozen_and_prints_whole_json(self):
        proc = run_python("-c", EXIT_PROBE + (
            "import runpy, sys\n"
            f"sys.argv = ['repro', 'check', '--format', 'json', {PORT!r}]\n"
            "runpy.run_module('repro', run_name='__main__', "
            "alter_sys=True)\n"))
        self.assert_frozen_at_exit(proc)
        payload = json.loads(proc.stdout)
        assert payload["ok"] and len(payload["files"]) == 1
