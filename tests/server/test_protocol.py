"""HTTP/1.1 framing: any byte stream gives a request, a clean EOF or a 4xx.

``read_request`` is the first code a hostile client reaches.  Whatever bytes
arrive before EOF, it returns a :class:`Request`, ``None`` (EOF before a
request) or raises :class:`HttpError` with a 4xx status; any other exception
would reach the server's last-resort handler as a 500.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.server.protocol import HttpError, Request, read_request

MAX_BODY = 64


def _read(data: bytes) -> Request | None:
    async def read() -> Request | None:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader, "peer", max_body_bytes=MAX_BODY)

    return asyncio.run(read())


#: Fragments that make fuzzed streams look like HTTP often enough to reach
#: the header, Content-Length and body paths.
FRAGMENTS = st.sampled_from([
    b"GET / HTTP/1.1", b"POST /v1/jobs?x=1 HTTP/1.1", b"GET http://[ HTTP/1.1",
    b"GET //[::1 HTTP/1.0", b"\r\n", b"\n", b"Content-Length: ", b"content-length:",
    b"0", b"3", b"64", b"65", b"-1", b"+3", b"1_0", b" 7 ", "٣".encode(), b"9" * 5000,
    b"X-Request-Id: r", b":", b" ", b"\x00", b"\xff",
])
STREAMS = st.lists(st.binary(max_size=24) | FRAGMENTS, max_size=16).map(b"".join)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(STREAMS)
@example(b"GET http://[ HTTP/1.1\r\n\r\n")
@example(b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n")
def test_any_stream_is_a_request_eof_or_a_4xx(data):
    try:
        result = _read(data)
    except HttpError as error:
        assert 400 <= error.status <= 499, (error.status, error.message)
    else:
        assert result is None or isinstance(result, Request)


def test_target_urlsplit_rejects_is_a_400():
    with pytest.raises(HttpError, match="malformed request target") as error:
        _read(b"GET http://[ HTTP/1.1\r\n\r\n")
    assert error.value.status == 400


@pytest.mark.parametrize("value", ["1_0", "+3", "-1", " ", "", "٣", "0x10", "1e1"])
def test_content_length_takes_ascii_digits_only(value):
    data = f"POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\n".encode() + b"x" * 10
    with pytest.raises(HttpError, match="malformed Content-Length") as error:
        _read(data)
    assert error.value.status == 400


@pytest.mark.parametrize("value", ["65", "9" * 5000], ids=["over-cap", "5000-digits"])
def test_content_length_over_the_cap_is_a_413(value):
    with pytest.raises(HttpError) as error:
        _read(f"POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\n".encode())
    assert error.value.status == 413


def test_a_well_formed_request_parses():
    request = _read(b"POST /v1/jobs?a=1 HTTP/1.1\r\nContent-Length: 003\r\n\r\nabc")
    assert (request.method, request.path, request.query) == ("POST", "/v1/jobs", {"a": "1"})
    assert request.body == b"abc"
    assert _read(b"") is None
