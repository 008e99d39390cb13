"""Tests for the JSON-RPC 2.0 message layer of the wire runtime."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.jsonrpc import (
    INVALID_PARAMS,
    JSONRPC_VERSION,
    ErrorResponse,
    Message,
    Notification,
    ProtocolError,
    Request,
    Response,
    parse_message,
)


class TestRoundTrip:
    def test_request(self):
        message = Request("cm.hello", {"src": "a", "dst": "b"}, id=7)
        parsed = parse_message(message.to_wire())
        assert parsed == message

    def test_notification(self):
        message = Notification("cm.deliver", {"seq": 0})
        parsed = parse_message(message.to_wire())
        assert parsed == message
        assert not hasattr(parsed, "id")

    def test_response(self):
        parsed = parse_message(Response(id=7, result={"ok": True}).to_wire())
        assert parsed == Response(id=7, result={"ok": True})

    def test_error_response(self):
        message = ErrorResponse(id=7, code=-32600, message="bad", data=[1])
        parsed = parse_message(message.to_wire())
        assert parsed == message

    def test_error_without_data_omits_key(self):
        wire = ErrorResponse(id=1, code=-32600, message="bad").to_wire()
        assert "data" not in wire["error"]

    def test_version_stamped(self):
        assert Request("m").to_wire()["jsonrpc"] == JSONRPC_VERSION


class TestStrictParsing:
    @pytest.mark.parametrize(
        "raw",
        [
            "not an object",
            {"method": "m"},  # missing jsonrpc version
            {"jsonrpc": "1.0", "method": "m"},
            {"jsonrpc": "2.0", "method": 42},
            {"jsonrpc": "2.0"},  # neither request nor response
            {"jsonrpc": "2.0", "result": 1},  # response without id
            {"jsonrpc": "2.0", "error": "boom"},  # malformed error object
            {"jsonrpc": "2.0", "error": {"message": "no code"}},
        ],
    )
    def test_malformed_rejected(self, raw):
        with pytest.raises(ProtocolError):
            parse_message(raw)

    def test_non_object_params_rejected_with_code(self):
        with pytest.raises(ProtocolError) as exc:
            parse_message({"jsonrpc": "2.0", "method": "m", "params": [1]})
        assert exc.value.code == INVALID_PARAMS

    def test_id_presence_distinguishes_request_from_notification(self):
        with_id = parse_message({"jsonrpc": "2.0", "method": "m", "id": 0})
        without = parse_message({"jsonrpc": "2.0", "method": "m"})
        assert isinstance(with_id, Request)
        assert isinstance(without, Notification)

    @pytest.mark.parametrize("bad_id", [{"a": 1}, [1], True, False, 1.5])
    @pytest.mark.parametrize(
        "envelope",
        [
            {"method": "m"},
            {"result": 1},
            {"error": {"code": -32600, "message": "bad"}},
        ],
        ids=["request", "response", "error"],
    )
    def test_id_must_be_string_integer_or_null(self, envelope, bad_id):
        # JSON-RPC 2.0 §4: a String, Number or Null; this layer takes an
        # integer, and a boolean is not one.
        with pytest.raises(ProtocolError, match="id must be"):
            parse_message({"jsonrpc": "2.0", "id": bad_id, **envelope})

    @pytest.mark.parametrize("good_id", ["x", 0, -3, None])
    def test_string_integer_and_null_ids_parse(self, good_id):
        parsed = parse_message({"jsonrpc": "2.0", "method": "m", "id": good_id})
        assert parsed == Request("m", {}, id=good_id)

    @pytest.mark.parametrize("bad_code", ["-32600", -32600.0, True, None])
    def test_error_code_must_be_an_integer(self, bad_code):
        # JSON-RPC 2.0 §5.1: "code ... MUST be an integer".
        with pytest.raises(ProtocolError, match="error code"):
            parse_message(
                {"jsonrpc": "2.0", "id": 1, "error": {"code": bad_code}}
            )


# -- properties ------------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: Envelopes built from the keys a message may carry, each present or not
#: and each either well-typed or an arbitrary JSON value.
envelopes = st.fixed_dictionaries(
    {},
    optional={
        "jsonrpc": st.sampled_from([JSONRPC_VERSION, "1.0"]) | json_values,
        "method": st.text(max_size=12) | json_values,
        "params": st.dictionaries(st.text(max_size=8), json_values, max_size=3)
        | json_values,
        "id": st.integers() | st.text(max_size=4) | json_values,
        "result": json_values,
        "error": st.fixed_dictionaries(
            {},
            optional={
                "code": st.integers() | json_values,
                "message": st.text(max_size=8) | json_values,
                "data": json_values,
            },
        )
        | json_values,
    },
)


class TestParseProperties:
    @settings(max_examples=400, deadline=None)
    @given(envelopes | json_values)
    def test_any_json_value_parses_to_a_message_or_protocol_error(self, raw):
        try:
            message = parse_message(raw)
        except ProtocolError:
            return
        assert isinstance(message, Message.__args__)
        message_id = getattr(message, "id", None)
        assert message_id is None or type(message_id) in (int, str)
        if isinstance(message, ErrorResponse):
            assert type(message.code) is int
