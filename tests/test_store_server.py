"""Line-level robustness of the NDJSON server behind ``repro serve``.

The file keeps the name it had while it also covered a networked cache
server; the check server is the one server left, and these tests drive it
with raw lines that bypass the typed client."""

import json
import socket

import pytest

from repro.core.config import CheckConfig
from repro.service.server import AsyncCheckServer
from repro.wire import ServerThread


def _raw_call(port, line: str):
    """One raw NDJSON exchange, bypassing the typed client."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(line.encode("utf-8") + b"\n")
        with sock.makefile("rb") as reader:
            return json.loads(reader.readline())


class TestStoreServer:
    @pytest.mark.parametrize("make_server,bad_params", [
        pytest.param(lambda: AsyncCheckServer(CheckConfig()),
                     '{"id": 2, "method": "check", "params": {}}', id="check"),
    ])
    def test_malformed_lines_get_error_responses(self, make_server,
                                                 bad_params):
        server = make_server()
        server.LINE_LIMIT = 1024
        with ServerThread(server) as thread:
            bad_json = _raw_call(thread.port, "{not json")
            assert bad_json["ok"] is False
            assert bad_json["error"]["code"] == "parse-error"
            not_object = _raw_call(thread.port, '"a string"')
            assert not_object["error"]["code"] == "parse-error"
            unknown = _raw_call(thread.port,
                                '{"id": 1, "method": "steal"}')
            assert unknown["error"]["code"] == "unknown-method"
            assert unknown["id"] == 1
            bad = _raw_call(thread.port, bad_params)
            assert bad["error"]["code"] == "bad-params"
            assert bad["id"] == 2
            too_long = _raw_call(
                thread.port, '{"id": 3, "pad": "' + "x" * 2048 + '"}')
            assert too_long == {"id": None, "ok": False, "error": {
                "code": "parse-error", "message": "request line too long"}}

    def test_one_bad_request_does_not_kill_the_connection(self):
        with ServerThread(AsyncCheckServer(CheckConfig())) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b'{"id": 1, "method": "steal"}\n'
                             b'{"id": 2, "method": "hello"}\n')
                first = json.loads(reader.readline())
                second = json.loads(reader.readline())
                reader.close()
            assert first["ok"] is False
            assert second["ok"] is True
            assert second["result"]["protocol"] == "repro-serve/3"
