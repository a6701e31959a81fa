"""Tests for architecture models: structure, provisioning, invariants."""

import copy
import pickle

import pytest

from repro.arch import (
    make_plaid, make_plaid_ml, make_spatial, make_spatio_temporal, make_st_ml,
)
from repro.arch.base import ALL_COMPUTE
from repro.arch.mrrg import resource_index
from repro.arch.specialize import hardwired_motif_kinds
from repro.arch.topology import manhattan, mesh_neighbors, tile_coords, tile_index
from repro.errors import ArchitectureError
from repro.ir.ops import Opcode
from repro.mapping.routecore import route_core_for
from repro.motifs.types import MotifKind
from repro.utils.signature import arch_signature_text


# ---------------------------------------------------------------------------
# Topology helpers
# ---------------------------------------------------------------------------
def test_tile_index_roundtrip():
    for tile in range(12):
        row, col = tile_coords(tile, 4)
        assert tile_index(row, col, 4) == tile


def test_mesh_neighbors_corner_and_center():
    # 4x4 mesh: corner has 2 neighbours, center has 4.
    assert len(mesh_neighbors(0, 4, 4)) == 2
    assert len(mesh_neighbors(5, 4, 4)) == 4
    directions = {d for d, _ in mesh_neighbors(5, 4, 4)}
    assert directions == {"N", "S", "E", "W"}


def test_manhattan():
    assert manhattan(0, 15, 4) == 6
    assert manhattan(5, 5, 4) == 0


# ---------------------------------------------------------------------------
# Spatio-temporal baseline
# ---------------------------------------------------------------------------
def test_st_has_16_fus_and_4_memory_ports():
    arch = make_spatio_temporal()
    assert len(arch.fus) == 16
    assert len(arch.memory_fus) == 4          # one per row (west column)
    assert arch.spm_banks == 4


def test_st_mesh_links_bidirectional():
    arch = make_spatio_temporal()
    links = {(m.src, m.dst) for m in arch.moves}
    for src, dst in links:
        assert (dst, src) in links


def test_st_neighbor_reads_charge_links():
    arch = make_spatio_temporal()
    consume = arch.consume_places[5]
    assert consume[5] is None                 # own RF read is free
    paid = [res for place, res in consume.items() if place != 5]
    assert all(res and res.startswith("link[") for res in paid)


# ---------------------------------------------------------------------------
# Plaid
# ---------------------------------------------------------------------------
def test_plaid_2x2_matches_4x4_fu_count():
    plaid = make_plaid(2, 2)
    st = make_spatio_temporal(4, 4)
    assert len(plaid.fus) == len(st.fus) == 16
    assert len(plaid.memory_fus) == 4         # one ALSU per PCU


def test_plaid_alus_support_15_compute_ops():
    plaid = make_plaid()
    alu = plaid.fus[0]
    assert not alu.is_memory
    assert alu.ops == ALL_COMPUTE
    assert len(alu.ops) == 15


def test_plaid_alsu_is_memory_capable_and_arithmetic():
    plaid = make_plaid()
    alsu = plaid.fus[3]
    assert alsu.is_memory
    assert alsu.supports(Opcode.LOAD) and alsu.supports(Opcode.ADD)


def test_plaid_bypass_pairs_left_to_right():
    plaid = make_plaid()
    for pcu in range(4):
        base = pcu * 4
        assert (base, base + 1) in plaid.bypass_pairs
        assert (base + 1, base + 2) in plaid.bypass_pairs
        assert (base + 2, base + 1) not in plaid.bypass_pairs


def test_plaid_terminal_place_has_no_outgoing_moves():
    """The hardware-loop constraint: values parked from the global network
    cannot be forwarded back out."""
    plaid = make_plaid()
    terminal = [p for p in plaid.places if p.terminal]
    assert terminal
    for place in terminal:
        assert not plaid.moves_from(place.place_id)


def test_plaid_scales_to_3x3():
    plaid = make_plaid(3, 3)
    assert len(plaid.fus) == 36               # same as a 6x6 CGRA
    assert len(plaid.memory_fus) == 9
    assert plaid.spm_banks == 9


def test_validate_catches_terminal_with_move():
    from repro.arch.base import Architecture, Move, Place
    arch = make_plaid()
    terminal_id = next(p.place_id for p in arch.places if p.terminal)
    arch.moves.append(Move(terminal_id, 0, "bad", 1))
    with pytest.raises(ArchitectureError):
        arch.validate()


# ---------------------------------------------------------------------------
# Specialized variants
# ---------------------------------------------------------------------------
def test_st_ml_prunes_ops():
    st_ml = make_st_ml()
    alu_ops = st_ml.fus[1].ops                # non-memory PE
    assert Opcode.MUL in alu_ops
    assert Opcode.XOR not in alu_ops          # pruned
    mem_pe = st_ml.fus[0]
    assert mem_pe.supports(Opcode.LOAD)


def test_plaid_ml_hardwires_paper_motif_mix():
    plaid_ml = make_plaid_ml()
    kinds = hardwired_motif_kinds(plaid_ml)
    assert kinds is not None
    values = list(kinds.values())
    assert values.count(MotifKind.FAN_IN) == 2
    assert values.count(MotifKind.UNICAST) == 1
    assert values.count(MotifKind.FAN_OUT) == 1


def test_plaid_ml_rejects_bad_motif_counts():
    with pytest.raises(ArchitectureError):
        make_plaid_ml(2, 2, hardwired=(MotifKind.FAN_IN,))
    with pytest.raises(ArchitectureError):
        make_plaid_ml(2, 2, hardwired=(
            MotifKind.PAIR, MotifKind.FAN_IN, MotifKind.FAN_IN,
            MotifKind.FAN_IN))


def test_general_plaid_reports_no_hardwiring():
    assert hardwired_motif_kinds(make_plaid()) is None


def test_spatial_is_st_shaped_with_gated_config():
    spatial = make_spatial()
    assert spatial.style == "spatial"
    assert len(spatial.fus) == 16
    assert "reconfig_cycles" in spatial.params


# ---------------------------------------------------------------------------
# Per-fabric memos
# ---------------------------------------------------------------------------
def test_fabric_memos_are_per_instance():
    plaid = make_plaid()
    assert resource_index(plaid) is resource_index(plaid)
    assert route_core_for(plaid, 2) is route_core_for(plaid, 2)
    assert arch_signature_text(plaid) is arch_signature_text(plaid)
    # A deep copy derives its text afresh from its own fields.
    assert arch_signature_text(plaid) == \
        arch_signature_text(copy.deepcopy(plaid))


def test_deep_copied_fabric_derives_fresh_memos():
    """Regression: a deep copy used to inherit the original's resource
    index and route cores, so edits to the copy went unseen."""
    plaid = make_plaid()
    index = resource_index(plaid)
    core = route_core_for(plaid, 2)
    text = arch_signature_text(plaid)
    wire = plaid.moves[0].resource
    rid = index.rid_of[("res", wire)]

    edited = copy.deepcopy(plaid)
    edited.resource_caps[wire] = index.caps[rid] + 5
    edited.bypass_pairs.clear()

    edited_index = resource_index(edited)
    assert edited_index is not index
    assert edited_index.caps[rid] == index.caps[rid] + 5
    edited_core = route_core_for(edited, 2)
    assert edited_core is not core
    assert not edited_core.bypass_pairs and core.bypass_pairs
    assert arch_signature_text(edited) != text
    assert arch_signature_text(edited) == \
        arch_signature_text(copy.deepcopy(edited))
    # The original keeps its own memos.
    assert resource_index(plaid) is index
    assert route_core_for(plaid, 2) is core
    assert arch_signature_text(plaid) is text


def test_shallow_copies_and_pickles_drop_memos():
    plaid = make_plaid()
    text = arch_signature_text(plaid)
    index = resource_index(plaid)

    shallow = copy.copy(plaid)
    shallow.config_entries += 1
    assert arch_signature_text(shallow) != text
    assert resource_index(shallow) is not index

    restored = pickle.loads(pickle.dumps(plaid))
    assert resource_index(restored) is not index
    assert arch_signature_text(restored) == text
