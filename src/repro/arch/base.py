"""Architecture resource model shared by every fabric.

The model is a *transport graph* over value places:

* A :class:`FunctionalUnit` executes one DFG node per cycle.  Executing at
  cycle ``s`` deposits the result into the FU's *produce place* at ``s+1``.
* A :class:`Place` holds values; holding a value for a cycle charges the
  place's capacity.  Values move between places along :class:`Move` edges
  (one cycle per move), charging the move's named resource.
* A consumer FU at cycle ``t`` reads any value occupying one of its
  *consume places* at ``t``; reads from places not co-located with the FU
  charge the connecting resource (the operand wire is the same physical
  port as the link).
* *Bypass pairs* (Plaid only) let a producer ALU feed the ALU on its right
  one cycle later with no resource charge at all.

Every capacity is per cycle; the MRRG folds cycles modulo II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.errors import ArchitectureError
from repro.ir.ops import COMPUTE_OPS, MEMORY_OPS, Opcode

T = TypeVar("T")


@dataclass(frozen=True)
class FunctionalUnit:
    """One executable slot of the fabric."""

    fu_id: int
    name: str
    tile: int                       # PE index or PCU index
    slot: int                       # position within the tile (ALU column)
    ops: frozenset[Opcode]
    is_memory: bool = False         # can execute LOAD/STORE

    def supports(self, op: Opcode) -> bool:
        return op in self.ops


@dataclass(frozen=True)
class Place:
    """A register site holding values between production and consumption."""

    place_id: int
    name: str
    tile: int
    capacity: int
    #: Places flagged terminal may not forward values onward (encodes the
    #: paper's hardware-loop constraint on the global->local path).
    terminal: bool = False


@dataclass(frozen=True)
class Move:
    """A one-cycle transfer between places, charging ``resource``."""

    src: int                        # place id
    dst: int                        # place id
    resource: str
    capacity: int


@dataclass
class Architecture:
    """A complete fabric description consumed by MRRG, mapper, simulator,
    and the power model.

    Fabrics are immutable after construction: derived tables (resource
    index, route cores, latency tables, the store signature, ...) are
    memoized on the instance through :meth:`memo`.  To vary a fabric,
    edit a ``copy.copy``/``copy.deepcopy`` of it — copies (and pickles)
    start with no memos, so they derive every table from their own
    fields.
    """

    name: str
    style: str                      # 'spatio-temporal' | 'spatial' | 'plaid'
    rows: int
    cols: int
    fus: list[FunctionalUnit] = field(default_factory=list)
    places: list[Place] = field(default_factory=list)
    moves: list[Move] = field(default_factory=list)
    #: fu_id -> place_id receiving the FU's results.
    produce_place: dict[int, int] = field(default_factory=dict)
    #: fu_id -> {place_id: resource_name_or_None} readable at execution time.
    #: None means the read is free (same-tile register file read).
    consume_places: dict[int, dict[int, str | None]] = field(
        default_factory=dict)
    #: (producer_fu, consumer_fu) pairs wired with a free bypass path.
    bypass_pairs: set[tuple[int, int]] = field(default_factory=set)
    #: resource name -> per-cycle capacity (for consume-side charges that
    #: share link resources with moves).
    resource_caps: dict[str, int] = field(default_factory=dict)
    #: SPM configuration.
    spm_banks: int = 4
    spm_bytes_per_bank: int = 4096
    #: Config memory entries (bounds the II).
    config_entries: int = 16
    #: Free-form parameters the power model and mappers read (crossbar
    #: sizes, pruning scales, hardwired motif kinds, ...).
    params: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Deliberately not a field: the store signature walks every field.
        self._memos: dict[object, object] = {}

    def __getstate__(self) -> dict:
        # copy.copy, copy.deepcopy and pickle all take the state from
        # here, so a copy never inherits tables derived from the original.
        state = self.__dict__.copy()
        state["_memos"] = {}
        return state

    def memo(self, key: object, build: Callable[[], T]) -> T:
        """The value memoized under ``key``, built by ``build()`` on first
        use.  The one home of every per-fabric derived table."""
        memos = self._memos
        value = memos.get(key)
        if value is None:
            value = memos[key] = build()
        return value

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        return self.rows * self.cols

    @property
    def memory_fus(self) -> list[FunctionalUnit]:
        return [fu for fu in self.fus if fu.is_memory]

    def fu(self, fu_id: int) -> FunctionalUnit:
        try:
            return self.fus[fu_id]
        except IndexError:
            raise ArchitectureError(f"no FU {fu_id} in {self.name}") from None

    def place(self, place_id: int) -> Place:
        try:
            return self.places[place_id]
        except IndexError:
            raise ArchitectureError(
                f"no place {place_id} in {self.name}"
            ) from None

    def fus_supporting(self, op: Opcode) -> tuple[FunctionalUnit, ...]:
        """FUs that can execute ``op``, in fabric order (indexed once per
        opcode; fabrics are immutable after construction).  The mappers'
        candidate-enumeration hot paths call this per node per restart —
        callers that shuffle must copy the returned tuple."""
        index = self.memo("op_index", dict)
        cached = index.get(op)
        if cached is None:
            cached = tuple(fu for fu in self.fus if fu.supports(op))
            index[op] = cached
        return cached

    def moves_from(self, place_id: int) -> list[Move]:
        """Outgoing moves of a place (indexed once; fabrics are immutable
        after construction)."""
        return self.memo("moves_from", self._index_moves).get(place_id, [])

    def _index_moves(self) -> dict[int, list[Move]]:
        index: dict[int, list[Move]] = {}
        for move in self.moves:
            index.setdefault(move.src, []).append(move)
        return index

    def validate(self) -> None:
        """Structural sanity: ids dense, references valid, capacities > 0."""
        for index, fu in enumerate(self.fus):
            if fu.fu_id != index:
                raise ArchitectureError("FU ids must be dense and ordered")
        for index, place in enumerate(self.places):
            if place.place_id != index:
                raise ArchitectureError("place ids must be dense and ordered")
            if place.capacity <= 0:
                raise ArchitectureError(f"place {place.name} has no capacity")
        place_ids = {p.place_id for p in self.places}
        for move in self.moves:
            if move.src not in place_ids or move.dst not in place_ids:
                raise ArchitectureError(f"move {move} references unknown place")
            if self.place(move.src).terminal:
                raise ArchitectureError(
                    f"terminal place {self.place(move.src).name} has an "
                    "outgoing move (hardware loop hazard)"
                )
        for fu in self.fus:
            if fu.fu_id not in self.produce_place:
                raise ArchitectureError(f"{fu.name} has no produce place")
            if fu.fu_id not in self.consume_places:
                raise ArchitectureError(f"{fu.name} has no consume places")
            if fu.is_memory and not any(
                op in fu.ops for op in MEMORY_OPS
            ):
                raise ArchitectureError(f"{fu.name} flagged memory, no mem ops")

    def summary(self) -> str:
        return (
            f"{self.name}: {self.rows}x{self.cols} tiles, {len(self.fus)} FUs "
            f"({len(self.memory_fus)} memory-capable), "
            f"{len(self.places)} places, {len(self.moves)} moves, "
            f"{self.spm_banks}x{self.spm_bytes_per_bank}B SPM"
        )


#: Full compute op set (shared by all unspecialized fabrics).
ALL_COMPUTE = frozenset(COMPUTE_OPS)
ALL_OPS = frozenset(COMPUTE_OPS) | frozenset(MEMORY_OPS)
