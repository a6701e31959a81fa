"""Tests for utilities, dot export, trace, and report aggregation."""

from hypothesis import given, strategies as st

from repro.ir.builder import DFGBuilder
from repro.ir.dot import dfg_to_dot
from repro.ir.ops import Opcode
from repro.eval.reporting import ClaimResult
from repro.sim.trace import TraceRecorder
from repro.utils.rng import make_rng
from repro.utils.tables import format_table


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------
def test_make_rng_from_seed_deterministic():
    assert make_rng(5).random() == make_rng(5).random()


def test_make_rng_passthrough():
    rng = make_rng(1)
    assert make_rng(rng) is rng


def test_make_rng_default():
    assert make_rng(None).random() == make_rng(None).random()


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["a", "bbb"], [[1, 2.5], [100, 3.25]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "100" in text and "3.250" in text
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1      # all rows equally wide


@given(rows=st.lists(
    st.tuples(st.integers(-999, 999), st.floats(0, 10)), min_size=1,
    max_size=8))
def test_format_table_handles_any_rows(rows):
    text = format_table(["i", "f"], [list(r) for r in rows])
    assert len(text.splitlines()) == len(rows) + 2


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------
def test_claim_result_tolerance():
    good = ClaimResult("x", paper=1.0, measured=1.1)
    assert good.within_25_percent
    bad = ClaimResult("x", paper=1.0, measured=2.0)
    assert not bad.within_25_percent


# ---------------------------------------------------------------------------
# Dot export
# ---------------------------------------------------------------------------
def _small_dfg():
    b = DFGBuilder("g", trip_counts=(4,))
    x = b.load("x", coeffs=(1,))
    n = b.op(Opcode.ADD, x, const=1)
    b.recurrence(n, n, operand_index=1, distance=1)
    b.store("y", n, coeffs=(1,))
    return b.build()


def test_dot_contains_nodes_and_edges():
    dfg = _small_dfg()
    dot = dfg_to_dot(dfg)
    assert dot.startswith('digraph "g"')
    assert dot.count("->") == dfg.num_edges
    assert "d=1" in dot          # recurrence edge labeled


def test_dot_highlighting():
    dfg = _small_dfg()
    dot = dfg_to_dot(dfg, highlight={1: "red"})
    assert 'fillcolor="red"' in dot


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------
def test_trace_limit_enforced():
    trace = TraceRecorder(limit=2)
    for cycle in range(5):
        trace.record(cycle, "exec", node=cycle)
    assert len(trace.events) == 2


def test_trace_render_and_filter():
    trace = TraceRecorder()
    trace.record(0, "exec", node=1)
    trace.record(1, "move", wire="x")
    assert len(trace.of_kind("exec")) == 1
    assert "move" in trace.render()
