"""Trace-parser fuzz + property tests (workload front end, satellite 1).

Covers: canonical round-trip on generated corpora, spelling/radix
tolerance, malformed/truncated/mixed-radix rejection with file:line
diagnostics (CLI exit 2, never a traceback), and engine-vs-replay
bit-identity on ingested traces under all four registered protocols.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.conformance import stats_digest
from repro.analysis.run import run_benchmark
from repro.coherence.registry import available_protocols
from repro.common.config import dual_socket
from repro.replay import record_benchmark, replay_trace
from repro.workloads import (
    TRACE_ADDR_BASE,
    MemTrace,
    TraceFormatError,
    load_trace_file,
    parse_trace_text,
)
from repro.workloads.adapter import _thread_body
from repro.workloads.memtrace import (
    K_LOAD,
    K_RMW,
    K_STORE,
    MAX_ACCESS_SIZE,
    MAX_TRACE_THREADS,
)

# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------

ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=31),            # thread
        st.sampled_from([K_LOAD, K_STORE, K_RMW]),         # kind
        st.integers(min_value=0, max_value=1 << 40),       # addr
        st.integers(min_value=1, max_value=MAX_ACCESS_SIZE),  # size
    ),
    min_size=1,
    max_size=200,
)


@given(ops=ops_strategy)
@settings(max_examples=60, deadline=None)
def test_to_text_parse_round_trip(ops):
    trace = MemTrace(list(ops))
    parsed = parse_trace_text(trace.to_text(), source="round-trip")
    assert parsed == trace
    assert parsed.checksum() == trace.checksum()


@given(ops=ops_strategy, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_parse_is_spelling_insensitive(ops, seed):
    """Alternate op mnemonics, radix, prefixes, comments and whitespace
    all decode to the same logical trace."""
    rng = random.Random(seed)
    spellings = {
        K_LOAD: ["R", "r", "L", "ld", "READ", "load", "rd"],
        K_STORE: ["W", "w", "S", "st", "WRITE", "store", "wr"],
        K_RMW: ["A", "a", "RMW", "rmw", "ATOMIC"],
    }
    lines = ["# header comment", ""]
    for thread, kind, addr, size in ops:
        prefix = rng.choice(["", "p", "t", "c", "P", "T", "C"])
        op = rng.choice(spellings[kind])
        addr_text = f"{addr:#x}" if rng.random() < 0.5 else str(addr)
        comment = rng.choice(["", "  # note", "  // note"])
        pad = " " * rng.randint(1, 3)
        lines.append(
            f"{prefix}{thread}{pad}{op}{pad}{addr_text} {size}{comment}"
        )
    parsed = parse_trace_text("\n".join(lines), source="spellings")
    assert parsed == MemTrace(list(ops))


def test_default_size_is_eight():
    trace = parse_trace_text("0 R 0x40\n")
    assert trace.ops == [(0, K_LOAD, 0x40, 8)]


def test_thread_grouping_preserves_program_order():
    text = "0 R 0x0\n1 W 0x40\n0 W 0x80\n1 R 0x40\n"
    trace = parse_trace_text(text)
    assert trace.threads() == [0, 1]
    assert trace.by_thread()[0] == [(K_LOAD, 0x0, 8), (K_STORE, 0x80, 8)]
    assert trace.by_thread()[1] == [(K_STORE, 0x40, 8), (K_LOAD, 0x40, 8)]


def test_checksum_is_thread_order_independent():
    a = parse_trace_text("0 R 0x0\n1 W 0x40\n")
    b = parse_trace_text("1 W 0x40\n0 R 0x0\n")
    assert a.checksum() == b.checksum()
    c = parse_trace_text("0 W 0x40\n1 R 0x0\n")  # kinds swapped
    assert a.checksum() != c.checksum()


# ----------------------------------------------------------------------
# Rejection diagnostics: file:line, one exception type, never a traceback
# ----------------------------------------------------------------------

REJECTED = [
    ("0 R\n", 1, "expected 'thread op address"),           # truncated line
    ("0 R 0x40 8 extra\n", 1, "expected 'thread op"),      # too many fields
    ("0 R 0x40\nx R 0x40\n", 2, "thread id"),              # bad thread
    ("0 R 0x40\n-1 R 0x40\n", 2, "thread id"),             # negative thread
    ("0 X 0x40\n", 1, "unknown op"),                       # unknown op
    ("0 R 0xZZ\n", 1, "malformed hex"),                    # bad hex digits
    ("0 R 0x\n", 1, "malformed hex"),                      # bare 0x
    ("0 R 12ab\n", 1, "mixed-radix"),                      # decimal w/ hex digits
    ("0 R deadbeef\n", 1, "mixed-radix"),                  # unprefixed hex
    ("0 R 0x40 0\n", 1, "size 0 outside"),                 # zero size
    (f"0 R 0x40 {MAX_ACCESS_SIZE + 1}\n", 1, "outside"),   # oversized
    ("0 R 0x40 4.5\n", 1, "malformed size"),               # non-integer size
    ("", 1, "no memory operations"),                       # empty file
    ("# only comments\n\n", 2, "no memory operations"),    # comment-only
    ("# a\r# b\r", 2, "no memory operations"),             # CR-only endings
    ("0 R \u00b2\n", 1, "malformed address"),              # superscript two
    ("\u00b9 R 0x0\n", 1, "malformed thread id"),          # superscript one
    ("0 R \u0661\u0662\n", 1, "malformed address"),        # Arabic-Indic 12
]


@pytest.mark.parametrize("text,lineno,fragment", REJECTED)
def test_malformed_lines_rejected_with_location(text, lineno, fragment):
    with pytest.raises(TraceFormatError) as excinfo:
        parse_trace_text(text, source="bad.trace")
    err = excinfo.value
    assert err.source == "bad.trace"
    assert err.lineno == lineno
    assert fragment in err.reason
    assert str(err).startswith(f"bad.trace:{lineno}: ")


def test_too_many_threads_rejected():
    text = "".join(f"{t} R 0x0\n" for t in range(MAX_TRACE_THREADS + 1))
    with pytest.raises(TraceFormatError) as excinfo:
        parse_trace_text(text)
    assert "distinct thread ids" in excinfo.value.reason
    assert excinfo.value.lineno == MAX_TRACE_THREADS + 1


def test_thread_limit_fires_on_the_line_adding_the_extra_thread():
    """Repeating known threads never trips the limit; the first line
    naming one thread too many does, however late it comes."""
    lines = [f"{t} R 0x0" for t in range(MAX_TRACE_THREADS)]
    lines += [f"{t % MAX_TRACE_THREADS} W 0x40" for t in range(1000)]
    lines.append(f"{MAX_TRACE_THREADS} R 0x0")
    lines.append("0 R 0x0")
    with pytest.raises(TraceFormatError) as excinfo:
        parse_trace_text("\n".join(lines))
    assert "distinct thread ids" in excinfo.value.reason
    assert excinfo.value.lineno == MAX_TRACE_THREADS + 1000 + 1
    # one line short of the extra thread, the same trace parses
    assert len(parse_trace_text("\n".join(lines[:-2]))) == len(lines) - 2


def test_unreadable_and_binary_files_rejected(tmp_path):
    with pytest.raises(TraceFormatError) as excinfo:
        load_trace_file(str(tmp_path / "missing.trace"))
    assert excinfo.value.lineno == 0
    assert "cannot read" in excinfo.value.reason

    binary = tmp_path / "blob.trace"
    binary.write_bytes(b"\x00\xff\xfe binary junk \x80")
    with pytest.raises(TraceFormatError) as excinfo:
        load_trace_file(str(binary))
    assert "not a text trace" in excinfo.value.reason


@given(junk=st.text(max_size=120))
@settings(max_examples=60, deadline=None)
def test_fuzzed_text_never_escapes_trace_format_error(junk):
    """Arbitrary text either parses or raises TraceFormatError — nothing
    else (the CLI maps that single type to exit 2)."""
    try:
        trace = parse_trace_text(junk, source="fuzz")
        assert len(trace) >= 1
    except TraceFormatError as exc:
        assert exc.source == "fuzz"
        assert exc.lineno >= 1


# ----------------------------------------------------------------------
# Engine-vs-replay bit-identity on ingested traces (the acceptance bar)
# ----------------------------------------------------------------------

INGEST_TEXT = """\
# mixed-spelling external trace exercising sharing, rmw, and block splits
p0 LOAD 0x0
p1 W 0x0 4
0 R 0x3c 16        # crosses a 64B block boundary
1 rmw 0x80
t2 store 192 8
2 READ 0x0
c3 A 0xc0
3 ld 0x100 64
0 wr 0x100 8
"""


#: the adapter's op stream for INGEST_TEXT at 64-byte blocks: thread ->
#: (op type, trace address, size).  ``0 R 0x3c 16`` crosses a block
#: boundary and splits in two; ``3 ld 0x100 64`` fills one block exactly.
INGEST_OPS = {
    0: [("LoadOp", 0x0, 8), ("LoadOp", 0x3c, 4), ("LoadOp", 0x40, 12),
        ("StoreOp", 0x100, 8)],
    1: [("StoreOp", 0x0, 4), ("RmwOp", 0x80, 8)],
    2: [("StoreOp", 0xc0, 8), ("LoadOp", 0x0, 8)],
    3: [("RmwOp", 0xc0, 8), ("LoadOp", 0x100, 64)],
}


def test_adapter_op_stream_is_pinned():
    # The engine-vs-replay test below cannot see a changed split: both
    # sides read the same stream.  Read it here, op by op, as the engine
    # does.
    trace = parse_trace_text(INGEST_TEXT)
    machine = SimpleNamespace(config=dual_socket())
    ctx = SimpleNamespace(rt=SimpleNamespace(machine=machine))
    for thread, expected in INGEST_OPS.items():
        body = _thread_body(trace, thread)(ctx)
        stream = []
        with pytest.raises(StopIteration) as done:
            while True:
                op = next(body)
                assert op.heap is None
                stream.append(
                    (type(op).__name__, op.addr - TRACE_ADDR_BASE, op.size)
                )
        assert stream == expected
        assert done.value.value == trace.thread_checksum(thread)


@pytest.fixture(scope="module")
def ingested_trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("ingest") / "external.trace"
    path.write_text(INGEST_TEXT)
    return str(path)


@pytest.mark.parametrize("protocol", sorted(available_protocols()))
def test_engine_vs_replay_bit_identity_on_ingested_trace(
    ingested_trace_path, protocol
):
    name = f"trace:{ingested_trace_path}"
    config = dual_socket()
    engine = run_benchmark(
        name, protocol, config, size="test", seed=42,
        use_cache=False, use_disk_cache=False,
    )
    trace, recorded = record_benchmark(
        name, protocol, config, size="test", seed=42
    )
    replayed = replay_trace(trace, config)
    assert stats_digest(engine.stats) == stats_digest(recorded.stats)
    assert stats_digest(engine.stats) == stats_digest(replayed.stats)
    # and the simulated result equals the host-side checksum
    expected = load_trace_file(ingested_trace_path).checksum()
    assert engine.result == expected


def test_ingested_result_is_protocol_independent(ingested_trace_path):
    name = f"trace:{ingested_trace_path}"
    config = dual_socket()
    results = {
        protocol: run_benchmark(
            name, protocol, config, size="test", seed=42,
            use_cache=False, use_disk_cache=False,
        ).result
        for protocol in available_protocols()
    }
    assert len(set(results.values())) == 1
