"""Wire format: framing, figure-id spelling, address parsing."""

import pytest

from repro.serve import protocol


class TestFraming:
    def test_encode_decode_round_trip(self):
        message = {"op": "submit", "kind": "point", "spec_b64": "", "n": 2}
        line = protocol.encode(message)
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert protocol.decode(line) == message

    def test_encode_is_canonical(self):
        a = protocol.encode({"b": 1, "a": 2})
        b = protocol.encode({"a": 2, "b": 1})
        assert a == b  # sorted keys: one message, one byte sequence

    def test_decode_rejects_junk(self):
        with pytest.raises(ValueError):
            protocol.decode(b"not json\n")
        with pytest.raises(ValueError, match="JSON object"):
            protocol.decode(b"[1, 2]\n")
        with pytest.raises(ValueError, match="exceeds"):
            protocol.decode(b"x" * (protocol.MAX_LINE + 1))

    def test_error_shape(self):
        reply = protocol.error("nope")
        assert reply == {"ok": False, "error": "nope"}

    def test_pickle_side_channel_round_trips(self):
        spec = {"machine": "Cori", "nsim": 64, "nested": {"a": [1, 2]}}
        packed = protocol.pack_pickle(spec)
        assert isinstance(packed, str)
        assert protocol.unpack_pickle(packed) == spec


class TestNormalizeFigure:
    @pytest.mark.parametrize("short,full", [
        ("2a", "fig2a"), ("6", "fig6"), ("13", "fig13"), ("2B", "fig2b"),
    ])
    def test_short_spellings_gain_prefix(self, short, full):
        assert protocol.normalize_figure(short) == full

    @pytest.mark.parametrize("ident", [
        "fig2a", "fig6", "table5", "portability", "conclusions",
    ])
    def test_full_ids_pass_through(self, ident):
        assert protocol.normalize_figure(ident) == ident

    def test_whitespace_and_case(self):
        assert protocol.normalize_figure("  Fig6 ") == "fig6"


class TestParseAddress:
    def test_host_port(self):
        assert protocol.parse_address("127.0.0.1:7777") == {
            "host": "127.0.0.1", "port": 7777,
        }

    def test_plain_path_is_a_socket(self):
        assert protocol.parse_address("repro-serve.sock") == {
            "socket_path": "repro-serve.sock",
        }

    def test_path_with_colon_but_no_numeric_port_is_a_socket(self):
        assert protocol.parse_address("/tmp/a:b.sock") == {
            "socket_path": "/tmp/a:b.sock",
        }
