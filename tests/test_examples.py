"""Smoke tests for the runnable examples (they must not rot).

Each example's fast path runs in-process; the expensive full sweeps are
exercised by the benchmarks instead.
"""

import sys

import pytest


def test_quickstart_runs(capsys):
    sys.path.insert(0, "examples")
    try:
        import quickstart
        quickstart.main()
    finally:
        sys.path.pop(0)
    out = capsys.readouterr().out
    assert "VERIFIED" in out
    assert "Power" in out and "Config" in out


def test_motif_explorer_dot(capsys, monkeypatch):
    sys.path.insert(0, "examples")
    try:
        import motif_explorer
        monkeypatch.setattr(sys, "argv", ["motif_explorer", "--dot", "dwconv"])
        motif_explorer.main()
    finally:
        sys.path.pop(0)
    assert capsys.readouterr().out.startswith("digraph")


def test_polybench_sweep_single_domain(capsys, monkeypatch):
    """The ML domain is the cheapest sweep (5 kernels, cached harness)."""
    sys.path.insert(0, "examples")
    try:
        import polybench_sweep
        monkeypatch.setattr(sys, "argv",
                            ["polybench_sweep", "--domain", "ml"])
        polybench_sweep.main()
    finally:
        sys.path.pop(0)
    out = capsys.readouterr().out
    assert "conv3x3" in out and "dwconv" in out


def test_dnn_application_layer_detail(capsys):
    sys.path.insert(0, "examples")
    try:
        import dnn_application
        from repro.workloads import DNN_APPS
        dnn_application.layer_detail(DNN_APPS[0])
    finally:
        sys.path.pop(0)
    out = capsys.readouterr().out
    assert "per-layer breakdown" in out


def test_domain_specialization_generality_check(capsys):
    sys.path.insert(0, "examples")
    try:
        import domain_specialization
        domain_specialization.generality_check()
    finally:
        sys.path.pop(0)
    out = capsys.readouterr().out
    assert "generality loss" in out


def test_serve_client_demo(capsys):
    """The self-contained mode: in-process server, cold + warm stream."""
    from repro.eval.harness import clear_caches

    clear_caches()
    sys.path.insert(0, "examples")
    try:
        import serve_client
        serve_client.main([])
    finally:
        sys.path.pop(0)
        clear_caches()
    out = capsys.readouterr().out
    assert "cold request" in out and "warm request" in out
    assert "4 evaluated" in out         # cold: every cell computed
    assert "0 evaluated" in out         # warm: all served from the store
    assert "GET /stats" in out
