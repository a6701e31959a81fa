"""Tests for the command-line interface."""

import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data"
                     / "golden_small_grid.json").read_text())["results"]


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "gemm_u2" in out and "seidel_u2" in out


def test_compile_registered_workload(capsys):
    assert main(["compile", "--workload", "dwconv"]) == 0
    out = capsys.readouterr().out
    assert "dwconv" in out and "motifs" in out


def test_compile_dot_output(capsys):
    assert main(["compile", "--workload", "dwconv", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")


def test_compile_kernel_file(tmp_path, capsys):
    kernel = tmp_path / "k.c"
    kernel.write_text("""
    for (i = 0; i < 8; i++) {
      y[i] = (x[i] + 1) * 3;
    }
    """)
    assert main(["compile", "--file", str(kernel)]) == 0
    assert "nodes" in capsys.readouterr().out


def test_map_workload_on_plaid(capsys):
    assert main(["map", "--workload", "dwconv", "--arch", "plaid"]) == 0
    out = capsys.readouterr().out
    assert "II=" in out and "plaid" in out


@pytest.mark.parametrize("cell", GOLDEN,
                         ids=lambda cell: f"{cell['workload']}/{cell['arch']}")
def test_map_prints_the_priced_mapping(cell, capsys):
    """``repro map`` with no ``--mapper`` maps the cell the sweep prices:
    the golden fixture's II and cycles, the ``best`` composite on ``st``
    included."""
    assert main(["map", "--workload", cell["workload"],
                 "--arch", cell["arch"]]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    found = re.search(r"II=(\d+), makespan=\d+, cycles=(\d+)", summary)
    assert (int(found[1]), int(found[2])) == (cell["ii"], cell["cycles"])


@pytest.mark.parametrize("command", ["compile", "map", "simulate"])
def test_seed_is_not_an_option(command, capsys):
    """The harness alone seeds mappers; a stale ``--seed`` is a usage
    error."""
    with pytest.raises(SystemExit) as exited:
        main([command, "--workload", "dwconv", "--seed", "7"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_map_verbose_prints_search_stats(capsys):
    assert main(["map", "--workload", "dwconv", "--arch", "st",
                 "--mapper", "pathfinder", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "placement attempts" in out
    assert "routing failures" in out
    assert "routing engine" not in out


def test_map_workload_spatial(capsys):
    assert main(["map", "--workload", "dwconv", "--arch", "spatial"]) == 0
    assert "phases" in capsys.readouterr().out


def test_simulate_verifies(capsys):
    assert main(["simulate", "--workload", "dwconv", "--arch", "plaid",
                 "--iterations", "4"]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_simulate_spatial(capsys):
    assert main(["simulate", "--workload", "dwconv", "--arch", "spatial",
                 "--iterations", "4"]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_report_table1(capsys):
    assert main(["report", "table1"]) == 0
    assert "landscape" in capsys.readouterr().out


def test_report_table2(capsys):
    assert main(["report", "table2"]) == 0
    assert "Table 2" in capsys.readouterr().out


def test_report_unknown(capsys):
    assert main(["report", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_sweep_table_output(tmp_path, capsys):
    from repro.eval.harness import clear_caches

    clear_caches()
    assert main(["sweep", "--workloads", "dwconv", "--arch", "st",
                 "--arch", "plaid", "--cache-dir",
                 str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "Sweep results" in out
    assert "dwconv" in out and "plaid" in out
    assert "2 cells" in out and "0 failed" in out
    clear_caches()


def test_sweep_warm_rerun_evaluates_nothing(tmp_path, capsys):
    from repro.eval.harness import clear_caches

    args = ["sweep", "--workloads", "dwconv,conv2x2", "--arch", "plaid",
            "--cache-dir", str(tmp_path / "cache"), "--format", "json"]
    clear_caches()
    assert main(args) == 0
    capsys.readouterr()
    clear_caches()                      # fresh memo: only the store is warm
    assert main(args) == 0
    captured = capsys.readouterr()
    import json
    summary = json.loads(captured.out)["summary"]
    assert summary["evaluated"] == 0
    assert summary["cached"] == 2
    clear_caches()


def test_sweep_csv_and_failures_exit_code(tmp_path, capsys):
    from repro.eval.harness import clear_caches

    clear_caches()
    assert main(["sweep", "--workloads", "dwconv,bogus", "--arch",
                 "plaid", "--no-cache", "--format", "csv"]) == 1
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("workload,arch,mapper,status")
    assert any(line.startswith("dwconv,plaid,plaid,ok") for line in lines)
    assert any(line.startswith("bogus,plaid,plaid,error") for line in lines)
    clear_caches()


def test_sweep_output_file(tmp_path, capsys):
    from repro.eval.harness import clear_caches

    clear_caches()
    out_file = tmp_path / "sweep.json"
    assert main(["sweep", "--workloads", "dwconv", "--arch", "plaid",
                 "--no-cache", "--format", "json", "--output",
                 str(out_file)]) == 0
    import json
    data = json.loads(out_file.read_text())
    assert data["summary"]["total"] == 1
    assert data["cells"][0]["workload"] == "dwconv"
    assert "cells:" in capsys.readouterr().out     # summary still printed
    clear_caches()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_summary_names_failed_store_writes(tmp_path, capsys, jobs):
    """A directory at dwconv/plaid's ``<fp>.json`` makes that cell's
    store write fail.  The sweep still answers every cell and exits 0,
    but each summary line (table, ``--output``, stderr) says so; at
    ``--jobs 2`` the failed write happens in a worker process."""
    from repro.eval.cache import ResultStore
    from repro.eval.harness import clear_caches, try_fingerprint

    root = tmp_path / "cache"
    ResultStore(root).entry_path(
        try_fingerprint("dwconv", "plaid", "plaid")).mkdir(parents=True)
    args = ["sweep", "--workloads", "dwconv,conv2x2", "--arch", "plaid",
            "--cache-dir", str(root), "--jobs", jobs]
    summary = re.compile(r"^2 cells: (\d) evaluated, (\d) from cache, 0 "
                         r"failed \(\d jobs, [\d.]+s\)"
                         r"(, 1 store writes failed)?$", re.M)
    clear_caches()
    assert main(args) == 0
    assert summary.search(capsys.readouterr().out).groups() == (
        "2", "0", ", 1 store writes failed")
    clear_caches()                      # conv2x2 now comes from the store
    assert main(args + ["--format", "csv"]) == 0
    assert summary.search(capsys.readouterr().err).groups() == (
        "1", "1", ", 1 store writes failed")
    out_file = tmp_path / "sweep.json"
    clear_caches()
    assert main(args + ["--format", "json", "--output", str(out_file)]) == 0
    assert summary.search(capsys.readouterr().out).groups() == (
        "1", "1", ", 1 store writes failed")
    assert json.loads(out_file.read_text())["store"]["write_errors"] == 1
    clear_caches()


def test_sweep_summary_is_silent_on_a_writable_store(tmp_path, capsys):
    from repro.eval.harness import clear_caches

    clear_caches()
    assert main(["sweep", "--workloads", "dwconv", "--arch", "plaid",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "store writes failed" not in capsys.readouterr().out
    clear_caches()


def test_sweep_shard_then_cache_stats(tmp_path, capsys):
    from repro.eval.harness import clear_caches

    clear_caches()
    assert main(["sweep", "--workloads", "dwconv,conv2x2", "--arch",
                 "plaid", "--shard", "1/1", "--cache-dir",
                 str(tmp_path / "cache")]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "entries: 2" in out and "2 results" in out
    clear_caches()


def test_cache_gc_resolves_env_default_dir(tmp_path, monkeypatch, capsys):
    from repro.eval.harness import clear_caches

    clear_caches()
    assert main(["sweep", "--workloads", "dwconv", "--arch", "plaid",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    capsys.readouterr()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["cache", "gc"]) == 0
    assert "kept 1" in capsys.readouterr().out
    clear_caches()


def test_mappers_listing(capsys):
    assert main(["mappers"]) == 0
    out = capsys.readouterr().out
    for key in ("pathfinder", "sa", "plaid", "greedy", "best", "spatial"):
        assert key in out
    assert "composite" in out          # "best" advertises its candidates
    assert "pathfinder, sa" in out


def test_closed_stdout_exits_quietly():
    """``python -m repro mappers`` into a reader that closes the pipe
    before reading (like ``| grep -q``) exits 0 with an empty stderr,
    buffered or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    for unbuffered in ("", "1"):
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "mappers"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0, stderr
        assert stderr == b"", unbuffered


def test_map_accepts_registry_mapper(capsys):
    assert main(["map", "--workload", "dwconv", "--arch", "st",
                 "--mapper", "greedy"]) == 0
    out = capsys.readouterr().out
    assert "mapper: greedy" in out


@pytest.mark.parametrize("mapper", ["best", "race"])
def test_simulate_runs_composite_mappers(mapper, capsys):
    """``simulate`` maps composites the way ``map`` does: every
    candidate under the seed the sweep gives it, the better mapping
    simulated."""
    assert main(["simulate", "--workload", "dwconv", "--arch", "st",
                 "--mapper", mapper, "--iterations", "4"]) == 0
    assert "VERIFIED" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["map", "simulate"])
def test_mapper_that_does_not_fit_the_fabric_fails(command, capsys):
    """``--mapper plaid`` on a spatial fabric is the mapper's own error,
    not silently replaced by the spatial mapper."""
    assert main([command, "--workload", "dwconv", "--arch", "spatial",
                 "--mapper", "plaid"]) == 2
    assert "PlaidMapper targets Plaid fabrics, not spatial" in \
        capsys.readouterr().err


@pytest.mark.parametrize("mapper", ["pathfinder", "sa", "greedy"])
def test_temporal_mapper_refuses_the_spatial_fabric(mapper, capsys):
    """A modulo schedule would time-multiplex the fixed-configuration
    spatial fabric; every temporal mapper refuses it, even for a kernel
    that would map at II 1 (dwconv) or one that needs more (gemm_u4)."""
    for workload in ("dwconv", "gemm_u4"):
        assert main(["map", "--workload", workload, "--arch", "spatial",
                     "--mapper", mapper]) == 2
        assert "fixed-configuration spatial fabric" in \
            capsys.readouterr().err


def test_unknown_mapper_key_exits_with_error(capsys):
    assert main(["map", "--workload", "dwconv", "--mapper", "bogus"]) == 2
    assert "unknown mapper key 'bogus'" in capsys.readouterr().err


def test_sweep_rejects_unknown_mapper_before_evaluating(capsys):
    assert main(["sweep", "--workloads", "dwconv", "--arch", "plaid",
                 "--no-cache", "--mapper", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown mapper key 'bogus'" in err and "registered:" in err


def test_missing_dfg_source_errors(capsys):
    assert main(["compile"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compile", "map", "simulate"])
@pytest.mark.parametrize("extra, flags", [
    (["--unroll", "4"], "--unroll"),
    (["--shape", "A=4x4"], "--shape"),
    (["--file", "/nonexistent.c", "--unroll", "4"], "--file/--unroll"),
])
def test_workload_rejects_source_flags(command, extra, flags, capsys):
    assert main([command, "--workload", "gemm_u2", *extra]) == 2
    err = capsys.readouterr().err
    assert f"{flags} cannot change --workload gemm_u2" in err
    assert "repro workloads --variants" in err
    if "--unroll" in extra:
        assert "e.g. --workload gemm_u4" in err    # the variant spelling


@pytest.mark.parametrize("command", ["compile", "map", "simulate"])
@pytest.mark.parametrize("make, reason", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"\xff\xfe y[i] = x[i];"),
     "can't decode byte 0xff"),
])
def test_unreadable_kernel_file_exits_2(tmp_path, capsys, command, make,
                                        reason):
    kernel = tmp_path / "k.c"
    make(kernel)
    assert main([command, "--file", str(kernel)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read --file {kernel}: " in err and reason in err


def test_shape_parsing(tmp_path, capsys):
    kernel = tmp_path / "m.c"
    kernel.write_text("""
    for (i = 0; i < 4; i++) {
      for (j = 0; j < 4; j++) {
        B[i][j] = A[i][j] >> 1;
      }
    }
    """)
    assert main(["compile", "--file", str(kernel),
                 "--shape", "A=4x4", "--shape", "B=4x4"]) == 0


@pytest.mark.parametrize("bad", ["A=8x", "A8x8", "A=", "=8x8", "A=0x8"])
def test_malformed_shape_exits_with_usage_hint(tmp_path, capsys, bad):
    kernel = tmp_path / "m.c"
    kernel.write_text("""
    for (i = 0; i < 4; i++) {
      y[i] = x[i] + 1;
    }
    """)
    assert main(["compile", "--file", str(kernel), "--shape", bad]) == 2
    err = capsys.readouterr().err
    assert "malformed --shape" in err
    assert "A=16x16" in err            # the usage hint names a valid spec


def test_workloads_variants_listing(capsys):
    assert main(["workloads", "--variants"]) == 0
    out = capsys.readouterr().out
    assert "Workload families" in out
    assert "gemm_t4x4_u2" in out and "atax_u8" in out


def test_map_accepts_variant_name(capsys):
    assert main(["map", "--workload", "gemm_t4x4_u2", "--arch",
                 "plaid"]) == 0
    out = capsys.readouterr().out
    assert "gemm_t4x4_u2" in out and "II=" in out


def test_map_rejects_illegal_variant(capsys):
    assert main(["map", "--workload", "seidel_ic0", "--arch", "plaid"]) == 2
    assert "not semantically equivalent" in capsys.readouterr().err


def test_sweep_variants_reports_best_per_family(tmp_path, capsys):
    from repro.eval.harness import clear_caches

    clear_caches()
    assert main(["sweep", "--workloads", "dwconv", "--variants",
                 "--arch", "st", "--no-cache", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "Best variant per (family, arch)" in out
    assert "dwconv_u3" in out          # curated variant appears in the grid
    clear_caches()


def test_sweep_variants_json_has_best_variants(tmp_path, capsys):
    from repro.eval.harness import clear_caches

    clear_caches()
    assert main(["sweep", "--workloads", "conv2x2", "--variants",
                 "--arch", "plaid", "--no-cache", "--jobs", "2",
                 "--format", "json"]) == 0
    import json
    record = json.loads(capsys.readouterr().out)
    assert record["summary"]["failed"] == 0
    rows = record["best_variants"]
    assert rows and all(row["family"] == "conv2x2" for row in rows)
    assert all(row["speedup"] >= 1.0 for row in rows)
    clear_caches()


# ---------------------------------------------------------------------------
# Cache-command failure paths: exit 2 with a usage hint, never a traceback
# ---------------------------------------------------------------------------
def test_cache_stats_missing_dir_exits_2(tmp_path, capsys):
    assert main(["cache", "stats", str(tmp_path / "no-such-store")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "store directory" in err and ".repro-cache" in err


def test_cache_stats_regular_file_exits_2(tmp_path, capsys):
    bogus = tmp_path / "bogus"
    bogus.write_text("not a store")
    assert main(["cache", "stats", str(bogus)]) == 2
    err = capsys.readouterr().err
    assert "regular file" in err and "store directory" in err


def test_cache_gc_missing_dir_exits_2(tmp_path, capsys):
    assert main(["cache", "gc", str(tmp_path / "nope")]) == 2
    assert "store directory" in capsys.readouterr().err


def test_cache_gc_regular_file_exits_2(tmp_path, capsys):
    bogus = tmp_path / "bogus"
    bogus.write_text("x")
    assert main(["cache", "gc", str(bogus)]) == 2
    assert "regular file" in capsys.readouterr().err


def test_cache_merge_missing_source_exits_2(tmp_path, capsys):
    assert main(["cache", "merge", str(tmp_path / "ghost"),
                 "--into", str(tmp_path / "merged")]) == 2
    err = capsys.readouterr().err
    assert "does not exist" in err
    # The typo'd merge must not leave an empty destination behind.
    assert not (tmp_path / "merged").exists()


def test_cache_merge_source_regular_file_exits_2(tmp_path, capsys):
    bogus = tmp_path / "file-source"
    bogus.write_text("x")
    assert main(["cache", "merge", str(bogus),
                 "--into", str(tmp_path / "merged")]) == 2
    assert "regular file" in capsys.readouterr().err


def test_cache_merge_destination_regular_file_exits_2(tmp_path, capsys):
    source = tmp_path / "src-store"
    source.mkdir()
    bogus = tmp_path / "dest-file"
    bogus.write_text("x")
    assert main(["cache", "merge", str(source),
                 "--into", str(bogus)]) == 2
    assert "--into takes a store directory" in capsys.readouterr().err


def test_sweep_cache_dir_regular_file_exits_2(tmp_path, capsys):
    bogus = tmp_path / "cache-file"
    bogus.write_text("x")
    assert main(["sweep", "--workloads", "dwconv", "--arch", "st",
                 "--cache-dir", str(bogus)]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_cache_stats_surfaces_reader_skipped(tmp_path, capsys):
    import json

    store_dir = tmp_path / "store"
    assert main(["sweep", "--workloads", "dwconv", "--arch", "st",
                 "--cache-dir", str(store_dir)]) == 0
    (store_dir / ("b" * 64 + ".json")).write_text("{ damaged")
    capsys.readouterr()

    assert main(["cache", "stats", str(store_dir)]) == 0
    assert "reader-skipped: 1" in capsys.readouterr().out
    assert main(["cache", "stats", str(store_dir), "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["reader_skipped"] == 1 and record["corrupt"] == 1


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
def test_serve_cache_dir_regular_file_exits_2(tmp_path, capsys):
    bogus = tmp_path / "cache-file"
    bogus.write_text("x")
    assert main(["serve", "--cache-dir", str(bogus), "--port", "0"]) == 2
    assert "not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["-1", "70000", "taken"])
def test_serve_that_cannot_listen_exits_2(port, capsys):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        if port == "taken":
            port = str(taken.getsockname()[1])
        assert main(["serve", "--no-cache", "--port", port]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
    assert "Traceback" not in err


def test_serve_parser_defaults():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve"])
    assert args.host == "127.0.0.1" and args.port == 8640
    assert args.queue_limit == 32 and not args.no_cache
