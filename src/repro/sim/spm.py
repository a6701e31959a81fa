"""Scratchpad memory model: banked, port-limited, 16-bit words.

Arrays live at allocator-assigned base offsets in a flat word space that is
interleaved across banks; the host interface (tests and the evaluation
harness) moves whole arrays in and out.  The simulator calls
:meth:`begin_cycle` each cycle so port pressure can be enforced.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.ir.interpreter import MemoryImage
from repro.ir.ops import to_unsigned


class Scratchpad:
    """Banked scratchpad with per-cycle port accounting.

    Words interleave across banks (word ``w`` lives in bank
    ``w % banks``).  Two accounting layers run per cycle:

    * the **aggregate port check** — more than ``banks`` accesses in one
      cycle is a hard error (the historical model, and the only check
      that raises, so metrics are unchanged);
    * **per-bank charges** — a second access to an already-charged bank
      in the same cycle is a *bank conflict*, counted in
      :attr:`bank_conflicts` (surfaced on ``SimulationReport``) so
      banked-interleaving pressure is visible even where the aggregate
      check stays quiet.
    """

    def __init__(self, banks: int = 4, bytes_per_bank: int = 4096) -> None:
        self.banks = banks
        self.words_total = banks * bytes_per_bank // 2
        self._data: list[int] = [0] * self.words_total
        self._base: dict[str, int] = {}
        self._sizes: dict[str, int] = {}
        self._next_free = 0
        self._accesses_this_cycle = 0
        self._banks_this_cycle: set[int] = set()
        self.bank_conflicts = 0

    # ------------------------------------------------------------------
    # Allocation / host interface
    # ------------------------------------------------------------------
    def allocate(self, name: str, size: int) -> int:
        """Reserve ``size`` words for array ``name``; returns base offset."""
        if name in self._base:
            if self._sizes[name] < size:
                raise SimulationError(
                    f"array '{name}' reallocated larger ({size} > "
                    f"{self._sizes[name]})"
                )
            return self._base[name]
        if self._next_free + size > self.words_total:
            raise SimulationError(
                f"SPM exhausted allocating '{name}' ({size} words; "
                f"{self.words_total - self._next_free} free)"
            )
        self._base[name] = self._next_free
        self._sizes[name] = size
        self._next_free += size
        return self._base[name]

    def load_image(self, image: MemoryImage) -> None:
        """Host -> SPM: copy a whole memory image in."""
        for name in image.names:
            values = image.array(name)
            base = self.allocate(name, len(values))
            self._data[base:base + len(values)] = [
                to_unsigned(v) for v in values
            ]

    def dump_image(self) -> MemoryImage:
        """SPM -> host: copy every array out."""
        arrays = {}
        for name, base in self._base.items():
            size = self._sizes[name]
            arrays[name] = list(self._data[base:base + size])
        return MemoryImage(arrays)

    # ------------------------------------------------------------------
    # Fabric-side access
    # ------------------------------------------------------------------
    def begin_cycle(self) -> None:
        self._accesses_this_cycle = 0
        self._banks_this_cycle.clear()

    def _check_port(self) -> None:
        self._accesses_this_cycle += 1
        if self._accesses_this_cycle > self.banks:
            raise SimulationError(
                f"more than {self.banks} SPM accesses in one cycle"
            )

    def _charge_bank(self, offset: int) -> None:
        """Per-bank charge: a repeat hit on an already-charged bank this
        cycle is a conflict.  Diagnostic only — the raise stays with the
        aggregate check so golden metrics are value-preserved."""
        bank = offset % self.banks
        if bank in self._banks_this_cycle:
            self.bank_conflicts += 1
        else:
            self._banks_this_cycle.add(bank)

    def _offset(self, array: str, index: int) -> int:
        base = self._base.get(array)
        if base is None:
            raise SimulationError(f"access to unallocated array '{array}'")
        if not 0 <= index < self._sizes[array]:
            raise SimulationError(
                f"'{array}'[{index}] out of bounds (size {self._sizes[array]})"
            )
        return base + index

    @property
    def accesses_this_cycle(self) -> int:
        """Port charges since the last :meth:`begin_cycle` (diagnostics)."""
        return self._accesses_this_cycle

    def read(self, array: str, index: int) -> int:
        self._check_port()
        offset = self._offset(array, index)
        self._charge_bank(offset)
        return self._data[offset]

    def write(self, array: str, index: int, value: int) -> None:
        self._check_port()
        offset = self._offset(array, index)
        self._charge_bank(offset)
        self._data[offset] = to_unsigned(value)
