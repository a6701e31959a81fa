"""Configuration bitstream generation (Section 4.3).

Every tile (PE or PCU) stores ``II`` configuration entries read modulo the
initiation interval.  An entry packs, per functional unit, an opcode field
(4 bits, 0 = idle) and an 8-bit constant, plus one activity bit per routing
resource the tile owns (move wires, read ports) for that cycle slot.  The
encoder walks a mapping's placement and routes, packs every entry into an
integer, and can decode it back (the round trip is tested).  It checks
that a mapping fits the fabric's configuration memory (an II within the
tile's entry count, one op per FU column per entry) and sizes the
bitstream, as the quickstart example prints.  The power model does not
read these bits: it prices the configuration memories from the paper's
per-module breakdowns (:mod:`repro.power.tech`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.base import Architecture
from repro.errors import ConfigError
from repro.ir.ops import Opcode
from repro.mapping.base import Mapping

#: Stable opcode numbering for the 4-bit op field (0 = idle).
_OPCODE_IDS: dict[Opcode, int] = {
    op: index + 1 for index, op in enumerate(Opcode)
}
_ID_OPCODES = {v: k for k, v in _OPCODE_IDS.items()}

OP_FIELD_BITS = 5          # 17 codes incl. idle
CONST_FIELD_BITS = 8


@dataclass
class TileEntry:
    """Decoded configuration entry of one tile for one cycle slot."""

    ops: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: fu slot -> (opcode id, constant)
    routing: dict[str, int] = field(default_factory=dict)
    #: resource name -> activity bit


@dataclass
class ConfigBundle:
    """The full static configuration of a mapping."""

    arch_name: str
    ii: int
    entries: dict[int, list[TileEntry]]          # tile -> II entries
    entry_bits: int                              # bits per entry per tile

    @property
    def total_bits(self) -> int:
        return sum(len(rows) for rows in self.entries.values()) \
            * self.entry_bits

    def pack(self) -> dict[int, list[int]]:
        """Pack each entry into an integer bit pattern."""
        packed: dict[int, list[int]] = {}
        for tile, rows in self.entries.items():
            packed[tile] = [self._pack_entry(tile, row) for row in rows]
        return packed

    def _layout(self, tile: int) -> tuple[list[int], list[str]]:
        rows = self.entries[tile]
        fu_slots = sorted({slot for row in rows for slot in row.ops})
        resources = sorted({name for row in rows for name in row.routing})
        return fu_slots, resources

    def _pack_entry(self, tile: int, row: TileEntry) -> int:
        fu_slots, resources = self._layout(tile)
        word = 0
        offset = 0
        for slot in fu_slots:
            op_id, const = row.ops.get(slot, (0, 0))
            word |= (op_id & ((1 << OP_FIELD_BITS) - 1)) << offset
            offset += OP_FIELD_BITS
            word |= (const & ((1 << CONST_FIELD_BITS) - 1)) << offset
            offset += CONST_FIELD_BITS
        for name in resources:
            word |= (row.routing.get(name, 0) & 1) << offset
            offset += 1
        return word

    def unpack(self, packed: dict[int, list[int]]) -> dict[int, list[TileEntry]]:
        """Inverse of :meth:`pack` (drops idle fields)."""
        decoded: dict[int, list[TileEntry]] = {}
        for tile, words in packed.items():
            fu_slots, resources = self._layout(tile)
            rows = []
            for word in words:
                row = TileEntry()
                offset = 0
                for slot in fu_slots:
                    op_id = (word >> offset) & ((1 << OP_FIELD_BITS) - 1)
                    offset += OP_FIELD_BITS
                    const = (word >> offset) & ((1 << CONST_FIELD_BITS) - 1)
                    offset += CONST_FIELD_BITS
                    if op_id:
                        row.ops[slot] = (op_id, const)
                for name in resources:
                    bit = (word >> offset) & 1
                    offset += 1
                    if bit:
                        row.routing[name] = 1
                rows.append(row)
            decoded[tile] = rows
        return decoded

    def activity(self) -> float:
        """Fraction of non-idle fields across all entries (config-memory
        toggling proxy for the power model)."""
        total = 0
        active = 0
        for rows in self.entries.values():
            for row in rows:
                total += 1
                if row.ops or row.routing:
                    active += 1
        return active / total if total else 0.0


def encode_mapping(mapping: Mapping) -> ConfigBundle:
    """Generate the per-tile configuration entries for a mapping."""
    arch: Architecture = mapping.arch
    ii = mapping.ii
    if ii > arch.config_entries:
        raise ConfigError(
            f"II {ii} exceeds config memory ({arch.config_entries} entries)"
        )
    entries: dict[int, list[TileEntry]] = {
        tile: [TileEntry() for _ in range(ii)]
        for tile in range(arch.num_tiles)
    }
    # FU op fields.
    for node_id, (fu_id, cycle) in mapping.placement.items():
        fu = arch.fu(fu_id)
        node = mapping.dfg.node(node_id)
        slot = cycle % ii
        entry = entries[fu.tile][slot]
        if fu.slot in entry.ops:
            raise ConfigError(
                f"tile {fu.tile} slot {slot}: two ops on FU column {fu.slot}"
            )
        const = node.const if node.const is not None else 0
        entry.ops[fu.slot] = (_OPCODE_IDS[node.op], const & 0xFF)
    # Routing activity bits.
    for route in mapping.routes.values():
        for step in route.steps:
            if step.kind not in ("move", "read"):
                continue
            kind, name = step.resource
            if kind != "res":
                continue
            tile = _resource_tile(arch, str(name))
            if tile is None:
                continue
            entries[tile][step.cycle % ii].routing[str(name)] = 1
    entry_bits = int(arch.params.get(
        "config_bits",
        arch.params.get("compute_config_bits", 16)
        + arch.params.get("comm_config_bits", 20),
    ))
    return ConfigBundle(arch_name=arch.name, ii=ii, entries=entries,
                        entry_bits=entry_bits)


def _resource_tile(arch: Architecture, name: str) -> int | None:
    """Owning tile of a named routing resource (from its index syntax)."""
    if "[" not in name:
        return None
    inside = name[name.index("[") + 1:name.index("]")]
    if "->" in inside:
        src = inside.split("->")[0]
        try:
            return int(src)
        except ValueError:
            return None
    try:
        return int(inside)
    except ValueError:
        return None
