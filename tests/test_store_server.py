"""Tests for the cache server: the ``repro-store/1`` protocol, the asyncio
TCP server, its fault-injection plan, and the ``repro cache serve`` CLI."""

import json
import socket

import pytest

from repro.core.config import CheckConfig
from repro.service.server import AsyncCheckServer
from repro.store import FaultPlan, StoreServer
from repro.store.protocol import (METHODS, ClearPayload, EntryParams,
                                  GcParams, GetPayload, PingPayload,
                                  PutParams, StatsPayload, decode_payload,
                                  encode_payload)
from repro.wire import (ProtocolError, Request, Response, ServerThread,
                        decode_request, method_names, spec_for)
from repro.store.remote import RemoteStoreBackend
from repro.store.server import _corrupt

KEY = "ab" + "0" * 62


# ---------------------------------------------------------------------------
# the protocol layer
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_registry_is_exhaustive(self):
        assert method_names(METHODS) == ("get", "put", "stats", "gc", "clear",
                                  "ping", "shutdown")
        for name, spec in METHODS.items():
            assert spec.name == name
            assert spec.doc

    def test_unknown_method_lists_methods(self):
        with pytest.raises(ProtocolError) as excinfo:
            spec_for(METHODS, "steal")
        assert excinfo.value.code == "unknown-method"
        assert "get, put" in excinfo.value.message

    def test_request_roundtrip(self):
        request = Request(method="get", id=7,
                               params=EntryParams(kind="verdicts", key=KEY))
        decoded = decode_request(METHODS,
                                 json.loads(json.dumps(request.to_json())))
        assert decoded.method == "get"
        assert decoded.id == 7
        assert decoded.params == EntryParams(kind="verdicts", key=KEY)

    @pytest.mark.parametrize("params", [
        {"kind": "verdicts"},            # key missing
        {"kind": "", "key": KEY},        # empty kind
        {"kind": "verdicts", "key": 3},  # mistyped key
    ])
    def test_bad_entry_params_rejected(self, params):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(METHODS, {"method": "get", "params": params})
        assert excinfo.value.code == "bad-params"

    def test_gc_params_require_non_negative_int(self):
        assert decode_request(METHODS, {"method": "gc",
                                        "params": {"max_bytes": 0}}).params \
            == GcParams(max_bytes=0)
        for bad in (-1, "10", True, None):
            with pytest.raises(ProtocolError):
                decode_request(METHODS, {"method": "gc",
                                         "params": {"max_bytes": bad}})

    def test_params_must_be_an_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(METHODS, {"method": "stats", "params": [1, 2]})
        assert excinfo.value.code == "bad-params"

    def test_payload_base64_roundtrip_and_validation(self):
        payload = bytes(range(256))
        assert decode_payload(encode_payload(payload)) == payload
        with pytest.raises(ProtocolError):
            decode_payload("not*base64!")

    def test_payloads_tolerate_unknown_fields(self):
        got = GetPayload.from_json({"found": True, "payload_b64": "aGk=",
                                    "new_field": 1})
        assert got.found and got.payload_b64 == "aGk="
        ping = PingPayload.from_json({"protocol": "repro-store/9",
                                      "shiny": True})
        assert ping.protocol == "repro-store/9"

    def test_response_envelope(self):
        ok = Response.success(3, ClearPayload(removed=2))
        assert ok.to_json() == {"id": 3, "ok": True, "result": {"removed": 2}}
        err = Response.from_json(
            {"id": 4, "ok": False,
             "error": {"code": "bad-params", "message": "nope"}})
        with pytest.raises(ProtocolError) as excinfo:
            err.raise_for_error()
        assert excinfo.value.code == "bad-params"

    def test_put_params_roundtrip(self):
        params = PutParams(kind="solutions", key=KEY,
                           payload_b64=encode_payload(b"data"))
        decoded = decode_request(METHODS, {"method": "put", "id": 1,
                                           "params": params.to_json()})
        assert decoded.params == params

    def test_stats_payload_shape(self):
        payload = StatsPayload(kinds={"verdicts": {"entries": 1, "bytes": 8}},
                               total_entries=1, total_bytes=8)
        again = StatsPayload.from_json(json.loads(
            json.dumps(payload.to_json())))
        assert again == payload


# ---------------------------------------------------------------------------
# the server over real sockets
# ---------------------------------------------------------------------------


def _raw_call(port, line: str) -> dict:
    """One raw NDJSON exchange, bypassing the typed client."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(line.encode("utf-8") + b"\n")
        chunks = b""
        while b"\n" not in chunks:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed without responding")
            chunks += chunk
        return json.loads(chunks.decode("utf-8"))


class TestStoreServer:
    def test_full_method_surface_roundtrip(self, tmp_path):
        with ServerThread(StoreServer(root=str(tmp_path))) as server:
            backend = RemoteStoreBackend(f"127.0.0.1:{server.port}")
            assert backend.get("verdicts", KEY) is None
            assert backend.put("verdicts", KEY, b'{"v": 1}')
            assert backend.get("verdicts", KEY) == b'{"v": 1}'
            stats = backend.stats()
            assert stats.kinds["verdicts"].entries == 1
            assert stats.remote["remote_errors"] == 0
            ping = backend.ping()
            assert ping["protocol"] == "repro-store/1"
            assert set(ping["methods"]) == set(method_names(METHODS))
            gc = backend.gc(0)
            assert gc.evicted_entries == 1
            assert backend.put("verdicts", KEY, b'{"v": 2}')
            assert backend.clear() == 1
            backend.close()

    def test_entries_land_in_the_owned_local_store(self, tmp_path):
        with ServerThread(StoreServer(root=str(tmp_path))) as server:
            backend = RemoteStoreBackend(f"127.0.0.1:{server.port}")
            backend.put("solutions", KEY, b"shared")
            backend.close()
        assert (tmp_path / "solutions" / KEY[:2] / f"{KEY}.json"
                ).read_bytes() == b"shared"

    def test_concurrent_clients(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor
        with ServerThread(StoreServer(root=str(tmp_path))) as server:
            def worker(i):
                backend = RemoteStoreBackend(f"127.0.0.1:{server.port}")
                key = f"{i:02d}" + "a" * 62
                assert backend.put("verdicts", key, b"x" * (i + 1))
                value = backend.get("verdicts", key)
                backend.close()
                return value
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(worker, range(8)))
            assert results == [b"x" * (i + 1) for i in range(8)]
            backend = RemoteStoreBackend(f"127.0.0.1:{server.port}")
            assert backend.stats().total_entries == 8
            backend.close()

    @pytest.mark.parametrize("make_server, bad_params", [
        pytest.param(lambda root: StoreServer(root=root),
                     '{"id": 2, "method": "get", "params": {}}', id="cache"),
        pytest.param(lambda root: AsyncCheckServer(CheckConfig()),
                     '{"id": 2, "method": "check", "params": {}}', id="check"),
    ])
    def test_malformed_lines_get_error_responses(self, tmp_path, make_server,
                                                 bad_params):
        server = make_server(str(tmp_path))
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

    def test_one_bad_request_does_not_kill_the_connection(self, tmp_path):
        with ServerThread(StoreServer(root=str(tmp_path))) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b'{"id": 1, "method": "steal"}\n'
                             b'{"id": 2, "method": "ping"}\n')
                first = json.loads(reader.readline())
                second = json.loads(reader.readline())
            assert first["ok"] is False
            assert second["ok"] is True
            assert second["result"]["protocol"] == "repro-store/1"

    def test_shutdown_method_stops_the_server(self, tmp_path):
        server = ServerThread(StoreServer(root=str(tmp_path))).start()
        backend = RemoteStoreBackend(f"127.0.0.1:{server.port}")
        ack = backend.shutdown()
        assert ack["shutdown"] is True
        backend.close()
        server._thread.join(timeout=10)
        assert not server._thread.is_alive()

    def test_server_over_existing_backend(self, tmp_path):
        from repro.store import LocalStoreBackend
        local = LocalStoreBackend(tmp_path)
        local.put("verdicts", KEY, b"pre-seeded")
        with ServerThread(StoreServer(backend=local)) as server:
            backend = RemoteStoreBackend(f"127.0.0.1:{server.port}")
            assert backend.get("verdicts", KEY) == b"pre-seeded"
            backend.close()


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_deterministic_schedule(self):
        plan = FaultPlan(drop_every=2, delay_every=3, corrupt_every=0)
        decisions = [plan.next_op() for _ in range(6)]
        assert [d[0] for d in decisions] == [False, True, False, True,
                                             False, True]
        assert [d[1] for d in decisions] == [False, False, True, False,
                                             False, True]
        assert plan.counters() == {"ops": 6, "dropped": 3, "delayed": 2,
                                   "corrupted": 0}

    def test_disabled_plan_never_fires(self):
        plan = FaultPlan()
        assert all(d == (False, False, False)
                   for d in (plan.next_op() for _ in range(10)))

    def test_corrupt_is_same_length_garbage(self):
        payload = b'{"schema": "repro-store/1", "data": [1, 2, 3]}'
        mangled = _corrupt(payload)
        assert len(mangled) == len(payload)
        assert mangled != payload
        assert mangled.startswith(b"\xffCORRUPT")

    def test_dropped_data_op_degrades_to_miss(self, tmp_path):
        plan = FaultPlan(drop_every=1)  # drop every data response
        with ServerThread(StoreServer(root=str(tmp_path), faults=plan)) as server:
            backend = RemoteStoreBackend(
                f"127.0.0.1:{server.port}?retries=1",
                sleep=lambda _s: None)
            assert backend.get("verdicts", KEY) is None
            counters = backend.counters()
            assert counters["degraded_gets"] == 1
            assert counters["remote_errors"] >= 1
            # admin methods are exempt from fault injection
            assert backend.ping()["faults"]["dropped"] >= 1
            backend.close()

    def test_corrupted_hit_is_caught_by_the_artifact_codec(self, tmp_path):
        from repro import CheckConfig
        from repro.store import ArtifactStore, open_store
        plan = FaultPlan(corrupt_every=1)  # corrupt every get hit
        with ServerThread(StoreServer(root=str(tmp_path), faults=plan)) as server:
            url = f"remote://127.0.0.1:{server.port}"
            store = open_store(CheckConfig(store_path=url))
            assert isinstance(store, ArtifactStore)
            store.save_solution(KEY, {"k0": []})
            # the transport succeeds but the payload is garbage: the codec
            # must turn it into a miss, never an error
            assert store.load_solution(KEY) is None
            assert store.misses == 1
            store.backend.close()

    def test_delay_fault_still_answers(self, tmp_path):
        plan = FaultPlan(delay_every=1, delay_seconds=0.01)
        with ServerThread(StoreServer(root=str(tmp_path), faults=plan)) as server:
            backend = RemoteStoreBackend(f"127.0.0.1:{server.port}")
            assert backend.put("verdicts", KEY, b"slow")
            assert backend.get("verdicts", KEY) == b"slow"
            assert plan.delayed >= 2
            backend.close()


# ---------------------------------------------------------------------------
# the CLI entry points
# ---------------------------------------------------------------------------


class TestCacheServeCli:
    def test_serve_requires_tcp_flag(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["cache", "serve", "--store", str(tmp_path)]) == 2
        assert "--tcp" in capsys.readouterr().err

    def test_serve_rejects_scheme_store(self, capsys):
        from repro.__main__ import main
        assert main(["cache", "serve", "--tcp",
                     "--store", "remote://127.0.0.1:1"]) == 2
        assert "local store path" in capsys.readouterr().err

    def test_shutdown_requires_remote_store(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["cache", "shutdown", "--store", str(tmp_path)]) == 2
        assert "remote://" in capsys.readouterr().err

    def test_admin_against_unreachable_url_is_a_clean_error(self, capsys):
        from repro.__main__ import main
        # grab a port nothing listens on
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = main(["cache", "stats",
                     "--store", f"remote://127.0.0.1:{port}?retries=0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro: ")
        assert "unreachable" in captured.err
        assert "Traceback" not in captured.err

    def test_admin_actions_over_a_live_server(self, tmp_path, capsys):
        from repro.__main__ import main
        with ServerThread(StoreServer(root=str(tmp_path))) as server:
            url = f"remote://127.0.0.1:{server.port}"
            backend = RemoteStoreBackend(f"127.0.0.1:{server.port}")
            backend.put("verdicts", KEY, b"entry")
            backend.close()
            assert main(["cache", "stats", "--store", url,
                         "--format", "json"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["total_entries"] == 1
            assert stats["store"] == url
            assert main(["cache", "gc", "--store", url, "--max-bytes", "0",
                         "--format", "json"]) == 0
            gc = json.loads(capsys.readouterr().out)
            assert gc["evicted_entries"] == 1
            assert main(["cache", "clear", "--store", url,
                         "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["removed"] == 0
            assert main(["cache", "shutdown", "--store", url,
                         "--format", "json"]) == 0
            ack = json.loads(capsys.readouterr().out)
            assert ack["shutdown"] is True
