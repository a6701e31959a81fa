"""The Plaid architecture (Section 4, Figure 9).

A ``rows x cols`` mesh of Plaid Collective Units (PCUs).  Every PCU holds:

* a **motif compute unit**: three 16-bit ALUs with virtual bypass paths
  between left-to-right adjacent ALUs;
* an **ALSU** (arithmetic-load-store unit) with a dedicated SPM datapath,
  which also executes standalone/predication nodes;
* an 8x8 **local router** serving all intra-PCU operand traffic;
* a 7x9 **global router** linking the PCU to its mesh neighbours and to the
  local router, with register buffering on the global-local paths.

Transport model: results land in the PCU's local register bank (``lreg``) a
cycle after execution; any FU of the same PCU reads them there through the
local router.  Crossing PCUs costs one hop onto the PCU's global registers
(``greg``) plus one hop per mesh link; a consumer PCU reads an adjacent
PCU's ``greg`` through its own global/local routers in the consuming cycle.
Values parked from the global network into the PCU (``lregG``) are terminal
— they may be held and consumed but never forwarded back to the global
router, which is the compiler half of the paper's hardware-loop constraint.
"""

from __future__ import annotations

from repro.arch.base import ALL_COMPUTE, ALL_OPS, Architecture, FunctionalUnit, Move, Place
from repro.arch.topology import mesh_neighbors, tile_coords

#: ALUs on the motif compute unit of each PCU.
PCU_ALUS = 3
#: FUs per PCU: the ALUs (slots ``0..PCU_ALUS - 1``) and the ALSU (slot
#: ``PCU_ALUS``); slot s of PCU u is FU ``u * PCU_FUS + s``.
PCU_FUS = PCU_ALUS + 1

#: Local register bank entries (local-router side).
LREG_CAPACITY = 4
#: Entries for values parked from the global network.
LREGG_CAPACITY = 2
#: Global-router buffer registers.
GREG_CAPACITY = 4

#: Port capacities.
L2G_CAPACITY = 2      # local -> global transfers per cycle
G2L_CAPACITY = 2      # global -> local transfers per cycle
LR_PORT_CAPACITY = 8  # local-router operand deliveries per cycle (8x8 xbar)
GLINK_CAPACITY = 1    # per-direction global mesh wires

#: Config-word widths (bits per cycle per PCU): one 120-bit entry carries
#: three ALU fields (4b op + 8b const each), one ALSU field, and the local
#: plus global router selects (the routers consume about half the bits).
PCU_CONFIG_BITS = 120
PCU_COMPUTE_CONFIG_BITS = PCU_FUS * (4 + 8)   # ALU + ALSU op/const fields
PCU_COMM_CONFIG_BITS = PCU_CONFIG_BITS - PCU_COMPUTE_CONFIG_BITS

#: Router geometries for the power model.
LOCAL_ROUTER_IN = 8
LOCAL_ROUTER_OUT = 8
GLOBAL_ROUTER_IN = 7
GLOBAL_ROUTER_OUT = 9


def make_plaid(rows: int = 2, cols: int = 2,
               name: str | None = None) -> Architecture:
    """Build a Plaid CGRA (default 2x2 PCUs = 16 FUs, like a 4x4 CGRA)."""
    arch = Architecture(
        name=name or f"plaid-{rows}x{cols}",
        style="plaid",
        rows=rows,
        cols=cols,
        spm_banks=rows * cols,
        params={
            "pcus": rows * cols,
            "local_router_in": LOCAL_ROUTER_IN,
            "local_router_out": LOCAL_ROUTER_OUT,
            "global_router_in": GLOBAL_ROUTER_IN,
            "global_router_out": GLOBAL_ROUTER_OUT,
            "compute_config_bits": PCU_COMPUTE_CONFIG_BITS,
            "comm_config_bits": PCU_COMM_CONFIG_BITS,
            "config_bits": PCU_CONFIG_BITS,
            "registers_per_tile": LREG_CAPACITY + LREGG_CAPACITY + GREG_CAPACITY,
        },
    )
    num_pcus = rows * cols
    # Places: lreg / lregG / greg per PCU, ids = pcu*3 + {0,1,2}.
    for pcu in range(num_pcus):
        row, col = tile_coords(pcu, cols)
        arch.places.append(Place(3 * pcu + 0, f"lreg[{row}][{col}]",
                                 pcu, LREG_CAPACITY))
        arch.places.append(Place(3 * pcu + 1, f"lregG[{row}][{col}]",
                                 pcu, LREGG_CAPACITY, terminal=True))
        arch.places.append(Place(3 * pcu + 2, f"greg[{row}][{col}]",
                                 pcu, GREG_CAPACITY))

    def lreg(pcu: int) -> int:
        return 3 * pcu + 0

    def lreg_global(pcu: int) -> int:
        return 3 * pcu + 1

    def greg(pcu: int) -> int:
        return 3 * pcu + 2

    # FUs: three ALUs (slots 0-2) + one ALSU (slot 3) per PCU.
    fu_id = 0
    for pcu in range(num_pcus):
        row, col = tile_coords(pcu, cols)
        consume: dict[int, str | None] = {
            lreg(pcu): f"lr[{pcu}]",
            lreg_global(pcu): f"lr[{pcu}]",
            greg(pcu): f"g2l[{pcu}]",
        }
        for direction, neighbor in mesh_neighbors(pcu, rows, cols):
            consume[greg(neighbor)] = f"glink[{neighbor}->{pcu}]"
        for slot in range(PCU_ALUS):
            arch.fus.append(FunctionalUnit(
                fu_id=fu_id,
                name=f"alu[{row}][{col}].{slot}",
                tile=pcu,
                slot=slot,
                ops=ALL_COMPUTE,
            ))
            arch.produce_place[fu_id] = lreg(pcu)
            arch.consume_places[fu_id] = dict(consume)
            fu_id += 1
        arch.fus.append(FunctionalUnit(
            fu_id=fu_id,
            name=f"alsu[{row}][{col}]",
            tile=pcu,
            slot=PCU_ALUS,
            ops=ALL_OPS,
            is_memory=True,
        ))
        arch.produce_place[fu_id] = lreg(pcu)
        arch.consume_places[fu_id] = dict(consume)
        fu_id += 1

    # Bypass pairs: ALU slot i feeds slot i+1 of the same PCU for free.
    for pcu in range(num_pcus):
        base = pcu * PCU_FUS
        for slot in range(PCU_ALUS - 1):
            arch.bypass_pairs.add((base + slot, base + slot + 1))

    # Moves.
    for pcu in range(num_pcus):
        arch.moves.append(Move(lreg(pcu), greg(pcu),
                               f"l2g[{pcu}]", L2G_CAPACITY))
        arch.resource_caps[f"l2g[{pcu}]"] = L2G_CAPACITY
        arch.moves.append(Move(greg(pcu), lreg_global(pcu),
                               f"g2l[{pcu}]", G2L_CAPACITY))
        arch.resource_caps[f"g2l[{pcu}]"] = G2L_CAPACITY
        arch.resource_caps[f"lr[{pcu}]"] = LR_PORT_CAPACITY
        for direction, neighbor in mesh_neighbors(pcu, rows, cols):
            resource = f"glink[{pcu}->{neighbor}]"
            arch.moves.append(Move(greg(pcu), greg(neighbor),
                                   resource, GLINK_CAPACITY))
            arch.resource_caps[resource] = GLINK_CAPACITY
    arch.validate()
    return arch
