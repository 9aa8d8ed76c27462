"""The typed serve-protocol layer: registry, codecs, envelopes.

These tests pin the wire contract down to key order and error-message
bytes: drivers diff raw NDJSON lines, and the registry promises that the
servers, the client and ``hello`` can never disagree about which methods
exist.
"""

import pytest

from repro.service.protocol import (ERROR_CODES, METHODS, PROTOCOL_V3,
                                    CancelPayload, CheckParams, CheckPayload,
                                    ClosePayload, DiagnosticsPayload,
                                    HelloParams, HelloPayload,
                                    ProjectBuildPayload, ProjectOpenParams,
                                    ProjectUpdatePayload, ShutdownPayload,
                                    StatsPayload, UriParams)
from repro.wire import (EmptyParams, ProtocolError, Request, Response,
                        decode_request, method_names, parse_error_response,
                        spec_for)

#: Every method, in registry order.  ``hello`` and the ``unknown-method``
#: message list the methods in this order, so it is part of the wire.
ALL_METHODS = ("check", "update", "diagnostics", "close", "shutdown",
               "project_open", "project_update", "project_diagnostics",
               "hello", "cancel", "stats")


class TestRegistry:
    def test_v3_extends_v2_without_reordering(self):
        assert method_names(METHODS) == ALL_METHODS

    def test_unknown_method_message_is_v2_exact(self):
        with pytest.raises(ProtocolError) as err:
            spec_for(METHODS, "solve")
        assert err.value.message == (
            "unknown method 'solve' (expected one of check, update, "
            "diagnostics, close, shutdown, project_open, project_update, "
            "project_diagnostics, hello, cancel, stats)")

    def test_non_string_method_is_unknown_not_a_crash(self):
        for bogus in (None, 7, ["check"]):
            with pytest.raises(ProtocolError) as err:
                spec_for(METHODS, bogus)
            assert err.value.code == "unknown-method"

    def test_error_codes_cover_everything_dispatch_can_emit(self):
        assert set(ERROR_CODES) == {
            "parse-error", "unknown-method", "bad-params", "not-open",
            "io-error", "cancelled", "backpressure", "internal-error"}


PARAM_SAMPLES = {
    "check": CheckParams(uri="a.rsc", text="function f() {}"),
    "update": CheckParams(uri="a.rsc"),  # text omitted: read server-side
    "diagnostics": UriParams(uri="a.rsc"),
    "close": UriParams(uri="a.rsc"),
    "shutdown": EmptyParams(),
    "project_open": ProjectOpenParams(root="/some/project"),
    "project_update": CheckParams(uri="lib.rsc", text="export spec ..."),
    "project_diagnostics": UriParams(uri="lib.rsc"),
    "hello": HelloParams(protocol=PROTOCOL_V3),
    "cancel": UriParams(uri="a.rsc"),
    "stats": EmptyParams(),
}

PAYLOAD_SAMPLES = {
    "check": CheckPayload(uri="a.rsc", status="SAFE", ok=True,
                          diagnostics=[], time_seconds=0.25,
                          delta_seconds=-0.05, queries=12, warm=True,
                          solve_stats={"warm_starts": 1}),
    "update": CheckPayload(uri="a.rsc", status="UNSAFE", ok=False,
                           diagnostics=[{"code": "RSC-BND-001"}],
                           time_seconds=0.5, queries=9),
    "diagnostics": DiagnosticsPayload(uri="a.rsc", status="SAFE", ok=True),
    "close": ClosePayload(uri="a.rsc", closed=True),
    "shutdown": ShutdownPayload(shutdown=True, protocol=PROTOCOL_V3,
                                requests_served=4, checks_run=2,
                                store={"hits": 1, "misses": 0, "writes": 1}),
    "project_open": ProjectBuildPayload(status="SAFE", ok=True,
                                        num_modules=3,
                                        ranks={"lib.rsc": 1}, cyclic=[],
                                        modules=[]),
    "project_update": ProjectUpdatePayload(path="lib.rsc",
                                           rechecked=["lib.rsc"],
                                           reused=["main.rsc"],
                                           summary_changed=False, ok=True,
                                           queries=3, modules=[]),
    "project_diagnostics": DiagnosticsPayload(uri="lib.rsc", status="SAFE",
                                              ok=True),
    "hello": HelloPayload(protocol=PROTOCOL_V3,
                          methods=list(method_names(METHODS)), tenant="alice"),
    "cancel": CancelPayload(uri="a.rsc", cancelled=True, state="inflight"),
    "stats": StatsPayload(protocol=PROTOCOL_V3, tenants={"alice": {}},
                          totals={"requests_served": 7}),
}


class TestCodecRoundTrips:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_params_round_trip(self, method):
        sample = PARAM_SAMPLES[method]
        assert isinstance(sample, METHODS[method].params)
        assert type(sample).from_json(sample.to_json()) == sample

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_payload_round_trip(self, method):
        sample = PAYLOAD_SAMPLES[method]
        assert isinstance(sample, METHODS[method].payload)
        assert type(sample).from_json(sample.to_json()) == sample

    def test_payload_key_order_is_field_order(self):
        # drivers diff raw NDJSON lines; key order is part of the shape.
        assert list(PAYLOAD_SAMPLES["check"].to_json()) == [
            "uri", "status", "ok", "diagnostics", "time_seconds",
            "delta_seconds", "queries", "warm", "solve_stats", "timings"]
        assert list(PAYLOAD_SAMPLES["shutdown"].to_json()) == [
            "shutdown", "protocol", "requests_served", "checks_run", "store"]

    def test_payload_decoding_tolerates_unknown_fields(self):
        obj = PAYLOAD_SAMPLES["check"].to_json()
        obj["added_in_serve_4"] = {"future": True}
        assert CheckPayload.from_json(obj) == PAYLOAD_SAMPLES["check"]

    def test_params_decoding_tolerates_unknown_fields(self):
        decoded = CheckParams.from_json(
            {"uri": "a.rsc", "text": "x", "languageId": "rsc"})
        assert decoded == CheckParams(uri="a.rsc", text="x")

    def test_payload_from_non_object_is_a_parse_error(self):
        with pytest.raises(ProtocolError) as err:
            CheckPayload.from_json("SAFE")
        assert err.value.code == "parse-error"


class TestParamsRejection:
    """Garbage params produce bad-params with exact messages."""

    @pytest.mark.parametrize("params, message", [
        ({}, "params.uri must be a string"),
        ({"uri": 7}, "params.uri must be a string"),
        ({"uri": ""}, "params.uri must be a string"),
        ({"uri": "a.rsc", "text": 123}, "params.text must be a string"),
    ])
    def test_check_params(self, params, message):
        with pytest.raises(ProtocolError) as err:
            CheckParams.from_json(params)
        assert (err.value.code, err.value.message) == ("bad-params", message)

    def test_uri_params(self):
        with pytest.raises(ProtocolError) as err:
            UriParams.from_json({"uri": ["a.rsc"]})
        assert err.value.message == "params.uri must be a string"

    def test_project_open_params(self):
        with pytest.raises(ProtocolError) as err:
            ProjectOpenParams.from_json({})
        assert err.value.message == "params.root must be a string"

    def test_hello_params(self):
        with pytest.raises(ProtocolError) as err:
            HelloParams.from_json({"protocol": 3})
        assert err.value.message == "params.protocol must be a string"


class TestRequestEnvelope:
    def test_decode_binds_typed_params_and_tenant(self):
        request = decode_request(
            METHODS, {"id": 7, "method": "update", "tenant": "alice",
             "params": {"uri": "a.rsc", "text": "x"}})
        assert request.method == "update" and request.id == 7
        assert request.params == CheckParams(uri="a.rsc", text="x")
        assert request.tenant == "alice" and request.uri == "a.rsc"

    def test_v3_rejects_a_non_string_tenant(self):
        with pytest.raises(ProtocolError) as err:
            decode_request(METHODS, {"id": 1, "method": "stats",
                                     "tenant": 7})
        assert err.value.message == "request.tenant must be a string"

    def test_method_is_validated_before_params(self):
        # a bogus method with bogus params must report unknown-method, not
        # bad-params
        with pytest.raises(ProtocolError) as err:
            decode_request(METHODS, {"id": 1, "method": "solve", "params": "junk"})
        assert err.value.code == "unknown-method"

    def test_non_object_params_rejected(self):
        with pytest.raises(ProtocolError) as err:
            decode_request(METHODS, {"id": 1, "method": "check", "params": [1]})
        assert err.value.message == "params must be an object"

    def test_null_params_mean_empty(self):
        request = decode_request(METHODS, {"id": 1, "method": "shutdown",
                                           "params": None})
        assert request.params == EmptyParams()

    def test_encode_decode_loop(self):
        original = Request(method="check", id=3,
                           params=CheckParams(uri="a.rsc", text="x"),
                           tenant="bob", trace="cafebabe")
        assert decode_request(METHODS, original.to_json()) == original

    def test_encoding_omits_tenant_below_v3_and_empty_params(self):
        request = Request(method="stats", id=1, params=EmptyParams())
        assert request.to_json() == {"id": 1, "method": "stats"}
        request.tenant = "bob"
        assert request.to_json() == {"id": 1, "method": "stats",
                                     "tenant": "bob"}


class TestResponseEnvelope:
    def test_success_shape(self):
        response = Response.success(5, ClosePayload(uri="a.rsc"))
        assert response.to_json() == {
            "id": 5, "ok": True,
            "result": {"uri": "a.rsc", "closed": True}}

    def test_failure_shape(self):
        response = Response.failure(6, "not-open", "document not open")
        assert response.to_json() == {
            "id": 6, "ok": False,
            "error": {"code": "not-open", "message": "document not open"}}

    def test_round_trip_both_arms(self):
        for response in (Response.success(1, {"x": 1}),
                         Response.failure(2, "cancelled", "superseded")):
            assert Response.from_json(response.to_json()) == response

    def test_raise_for_error(self):
        assert Response.success(1, {"x": 1}).raise_for_error() == {"x": 1}
        with pytest.raises(ProtocolError) as err:
            Response.failure(2, "backpressure", "queue full"
                             ).raise_for_error()
        assert err.value.code == "backpressure"

    def test_garbage_error_object_degrades_to_internal_error(self):
        response = Response.from_json({"id": 3, "ok": False, "error": "?"})
        assert response.error_code == "internal-error"
        assert response.error_message == "unknown error"

    def test_non_object_response_is_a_parse_error(self):
        with pytest.raises(ProtocolError):
            Response.from_json([1, 2])

    def test_parse_error_response_has_null_id(self):
        response = parse_error_response("malformed request: ...")
        assert response.id is None and response.error_code == "parse-error"
