"""Flexible schedule templates for motifs (Section 5.2).

A template assigns each motif role to an ALU slot of the motif compute unit
and a cycle offset relative to the motif's start cycle.  The paper's example
for the fan-out motif enumerates six templates (forward and reversed slot
orders, with offset slack on the consumers); we generate the analogous
template families programmatically for every kind, ordered so the mapper
tries compact schedules first.

Internal pattern edges ride the bypass path when the consumer sits on the
slot immediately right of the producer and fires exactly one cycle later;
otherwise they use the PCU's local router.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from repro.arch.plaid import PCU_ALUS
from repro.motifs.types import MOTIF_SIZE, PATTERN_EDGES, MotifKind

#: Largest cycle offset a template may use.
_MAX_OFFSET = 3

#: Templates kept per motif kind, most compact first.
MAX_TEMPLATES = 12


@dataclass(frozen=True)
class ScheduleTemplate:
    """slots[role] = ALU slot index; offsets[role] = cycle offset."""

    kind: MotifKind
    slots: tuple[int, ...]
    offsets: tuple[int, ...]

    @property
    def makespan(self) -> int:
        """Cycles the template spans (last offset + 1)."""
        return max(self.offsets) + 1

    def bypass_edges(self) -> set[tuple[int, int]]:
        """Role-index pattern edges served by the bypass path."""
        served = set()
        for src_role, dst_role in PATTERN_EDGES[self.kind]:
            if (self.slots[dst_role] == self.slots[src_role] + 1
                    and self.offsets[dst_role] == self.offsets[src_role] + 1):
                served.add((src_role, dst_role))
        return served

    def local_router_edges(self) -> set[tuple[int, int]]:
        """Role-index pattern edges that need the local router."""
        return set(PATTERN_EDGES[self.kind]) - self.bypass_edges()

    def validate(self) -> None:
        size = MOTIF_SIZE[self.kind]
        assert len(self.slots) == len(self.offsets) == size
        assert len(set(self.slots)) == size, "slots must be distinct"
        for src_role, dst_role in PATTERN_EDGES[self.kind]:
            assert self.offsets[dst_role] >= self.offsets[src_role] + 1, (
                f"template violates dependence {src_role}->{dst_role}"
            )


def _offset_choices(kind: MotifKind) -> list[tuple[int, ...]]:
    """Dependence-respecting offset tuples, compact ones first."""
    size = MOTIF_SIZE[kind]
    edges = PATTERN_EDGES[kind]
    choices = []
    for offsets in itertools.product(range(_MAX_OFFSET + 1), repeat=size):
        if min(offsets) != 0:
            continue   # anchored at the motif start cycle
        if any(offsets[d] < offsets[s] + 1 for s, d in edges):
            continue
        choices.append(offsets)
    choices.sort(key=lambda offs: (max(offs), sum(offs)))
    return choices


@lru_cache(maxsize=None)
def schedule_templates(kind: MotifKind) -> tuple[ScheduleTemplate, ...]:
    """Template family for a motif kind, most compact first.

    Slot assignments cover every injective role->slot mapping; offset
    assignments cover every dependence-legal anchored tuple up to the
    offset cap.  The list is truncated to :data:`MAX_TEMPLATES` after
    sorting by makespan, keeping the diversity the paper's flexible
    scheduling needs (forward and reversed orders appear before deep
    schedules).
    """
    size = MOTIF_SIZE[kind]
    templates: list[ScheduleTemplate] = []
    slot_orders = list(itertools.permutations(range(PCU_ALUS), size))
    for offsets in _offset_choices(kind):
        for slots in slot_orders:
            template = ScheduleTemplate(kind, slots, offsets)
            template.validate()
            templates.append(template)
    # Compact first; among equals prefer templates that exploit bypass.
    templates.sort(
        key=lambda t: (t.makespan, -len(t.bypass_edges()), t.slots)
    )
    return tuple(templates[:MAX_TEMPLATES])
