"""Robustness fuzzing of the wire format and verifier.

An edge server (or the network) can hand the client arbitrary bytes.
Whatever happens, the client must end in exactly one of two states:
a clean parse error (``VOFormatError``/``SignatureError``/
``EncodingError``) or a verdict — never an unhandled exception, never
a bogus ``ok=True``."""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.digests import DigestEngine, DigestPolicy
from repro.core.query_auth import QueryAuthenticator
from repro.core.verify import ResultVerifier
from repro.core.wire import result_from_bytes, result_to_bytes
from repro.exceptions import (
    EncodingError,
    ReproError,
    SignatureError,
    VOFormatError,
)

from tests.core.conftest import DB_NAME, build_tree

ACCEPTABLE = (VOFormatError, SignatureError, EncodingError)


@pytest.fixture(scope="module", params=[DigestPolicy.FLATTENED, DigestPolicy.NESTED])
def wire_setup(request, schema, keypair):
    tree = build_tree(schema, keypair, request.param, n=60)
    auth = QueryAuthenticator(tree)
    result = auth.range_query(low=10, high=80, columns=("id", "name"))
    data = result_to_bytes(result, keypair.public.signature_len)
    verifier = ResultVerifier(
        DigestEngine(DB_NAME, policy=request.param), public_key=keypair.public
    )
    return data, verifier


class TestByteFlipFuzz:
    @given(st.integers(min_value=0, max_value=10**9), st.integers(0, 255))
    # A bumped D_S entry count in the FLATTENED fixture (6403 bytes):
    # the decoder read past the end of the buffer and leaked a raw
    # IndexError instead of a typed rejection.
    @example(position=1575, new_byte=1)
    @settings(
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_single_byte_corruption_never_verifies(
        self, wire_setup, position, new_byte
    ):
        data, verifier = wire_setup
        pos = position % len(data)
        if data[pos] == new_byte:
            return  # not a mutation
        corrupted = data[:pos] + bytes([new_byte]) + data[pos + 1 :]
        try:
            parsed = result_from_bytes(corrupted)
        except ACCEPTABLE:
            return  # clean parse rejection
        except OverflowError:
            return  # absurd length field; also a clean rejection path
        # Parsed => must verify to a verdict; the verdict may be ok only
        # if the mutation hit redundant framing (it cannot change the
        # result values or digests without breaking verification).
        verdict = verifier.verify(parsed)
        if verdict.ok:
            original = result_from_bytes(data)
            assert parsed.rows == original.rows
            assert parsed.keys == original.keys

    @given(st.integers(min_value=1, max_value=64))
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_truncation_rejected(self, wire_setup, cut):
        data, _verifier = wire_setup
        with pytest.raises(ACCEPTABLE):
            result_from_bytes(data[: len(data) - cut])

    @given(st.binary(min_size=0, max_size=200))
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_garbage_rejected_cleanly(self, wire_setup, garbage):
        _data, _verifier = wire_setup
        try:
            result_from_bytes(garbage)
        except ACCEPTABLE:
            pass
        except OverflowError:
            pass  # hostile length fields; still not a crash of ours
        # If it parsed (astronomically unlikely), that's fine too —
        # verification is the gate, not parsing.


class TestShuffleFuzz:
    def test_block_swap_detected(self, wire_setup):
        """Swapping two interior chunks must not produce a verifying
        result with altered content."""
        data, verifier = wire_setup
        rng = random.Random(0)
        for _ in range(30):
            a = rng.randrange(8, len(data) - 64)
            b = rng.randrange(8, len(data) - 64)
            size = rng.randrange(4, 32)
            if abs(a - b) < size:
                continue
            mutated = bytearray(data)
            mutated[a : a + size], mutated[b : b + size] = (
                mutated[b : b + size],
                mutated[a : a + size],
            )
            try:
                parsed = result_from_bytes(bytes(mutated))
            except (ReproError, OverflowError, IndexError):
                continue
            verdict = verifier.verify(parsed)
            if verdict.ok:
                original = result_from_bytes(data)
                assert parsed.rows == original.rows
