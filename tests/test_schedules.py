"""Tests for motif schedule templates."""

from hypothesis import given, strategies as st

from repro.arch.plaid import PCU_ALUS
from repro.motifs.schedules import schedule_templates
from repro.motifs.types import MOTIF_SIZE, PATTERN_EDGES, MotifKind

KINDS = [MotifKind.FAN_OUT, MotifKind.FAN_IN, MotifKind.UNICAST,
         MotifKind.PAIR, MotifKind.SINGLETON]


def test_every_kind_has_templates():
    for kind in KINDS:
        assert schedule_templates(kind)


def test_fan_out_has_at_least_six_templates():
    # The paper enumerates six fan-out templates; ours is a superset family.
    assert len(schedule_templates(MotifKind.FAN_OUT)) >= 6


def test_templates_respect_dependences():
    for kind in KINDS:
        for template in schedule_templates(kind):
            for src, dst in PATTERN_EDGES[kind]:
                assert template.offsets[dst] >= template.offsets[src] + 1


def test_templates_have_distinct_slots():
    for kind in KINDS:
        for template in schedule_templates(kind):
            assert len(set(template.slots)) == MOTIF_SIZE[kind]
            assert all(0 <= slot < PCU_ALUS for slot in template.slots)


def test_templates_anchored_at_zero():
    for kind in KINDS:
        for template in schedule_templates(kind):
            assert min(template.offsets) == 0


def test_forward_and_reversed_orders_present():
    templates = schedule_templates(MotifKind.UNICAST)
    orders = {t.slots for t in templates}
    assert (0, 1, 2) in orders          # forward, bypass-friendly
    assert any(s[0] > s[2] for s in orders)    # some reversed order


def test_bypass_detection_forward_unicast():
    templates = schedule_templates(MotifKind.UNICAST)
    forward = next(t for t in templates
                   if t.slots == (0, 1, 2) and t.offsets == (0, 1, 2))
    assert forward.bypass_edges() == {(0, 1), (1, 2)}
    assert not forward.local_router_edges()


def test_bypass_unused_in_reversed_unicast():
    templates = schedule_templates(MotifKind.UNICAST)
    reversed_t = [t for t in templates if t.slots == (2, 1, 0)]
    for template in reversed_t:
        assert not template.bypass_edges()


def test_compact_templates_first():
    for kind in KINDS:
        spans = [t.makespan for t in schedule_templates(kind)]
        assert spans == sorted(spans)


@given(kind=st.sampled_from(KINDS))
def test_bypass_plus_local_router_covers_pattern(kind):
    for template in schedule_templates(kind):
        served = template.bypass_edges() | template.local_router_edges()
        assert served == set(PATTERN_EDGES[kind])
