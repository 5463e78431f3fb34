"""Smoke + shape tests for the experiment functions at a tiny scale.

The benchmarks run these at QUICK/PAPER scale with the paper's shape
assertions; here a TINY scale keeps `pytest tests/` self-contained and
checks structure (records, series, headers) plus the cheapest invariants.
"""

import pytest

from repro.bench.ablations import (
    ablation_eps_chunks,
    ablation_per_shard_models,
    ablation_push_filters,
    ablation_stragglers,
)
from repro.bench.figures import (
    fig1_pmls_scaling,
    fig3_tradeoff_trace,
    fig5_timeline,
    fig6_overlap,
    fig7_scalability,
    fig8_lazy_vs_soft,
    fig9_dpr_pairs,
    fig10_models,
)
from repro.bench.harness import TINY
from repro.bench.scale_grid import (
    GRID_PRESETS,
    GRID_SYNCS,
    grid_worker_counts,
    scale_grid,
)
from repro.bench.tables import table1_model_matrix, table3_conditions, table4_grid
from repro.bench.theory_bench import theory_bounds


class TestFigureFunctions:
    def test_fig1_structure(self):
        r = fig1_pmls_scaling(TINY)
        assert len(r.rows) == len(TINY.worker_counts)
        assert len(r.series) == len(TINY.worker_counts)

    def test_fig3_exact(self):
        r = fig3_tradeoff_trace()
        assert r.find("soft").metrics["missing"] == 3
        assert r.find("lazy").metrics["missing"] == 0

    def test_fig5_overlap_never_slower(self):
        r = fig5_timeline(TINY)
        assert (
            r.find("fluentps-overlap").metrics["duration"]
            <= r.find("pslite-nonoverlap").metrics["duration"]
        )

    def test_fig6_rows_per_system(self):
        r = fig6_overlap(TINY)
        systems = {row[1] for row in r.rows}
        assert systems == {"pslite", "fluentps", "fluentps+eps"}

    def test_fig7_rows(self):
        r = fig7_scalability(TINY)
        assert len(r.rows) == len(TINY.worker_counts)
        for row in r.rows:
            assert 0.0 <= row[1] <= 1.0 and 0.0 <= row[2] <= 1.0

    def test_fig8_both_modes(self):
        r = fig8_lazy_vs_soft(TINY)
        assert {rec.name for rec in r.records} == {"soft", "lazy"}
        assert len(r.series) == 2

    def test_fig9_groups(self):
        r = fig9_dpr_pairs(TINY, n_workers=6)
        names = {rec.name for rec in r.records}
        assert {"A/B_soft", "G/H_lazy"} <= names

    def test_fig10_all_models(self):
        r = fig10_models(TINY, n_workers=4)
        assert len(r.records) == 6
        assert r.find("asp").metrics["dprs_per_100"] == 0


class TestTableFunctions:
    def test_table1(self):
        r = table1_model_matrix()
        assert len(r.rows) == 8

    def test_table3(self):
        r = table3_conditions(TINY)
        assert r.find("bsp").metrics["max_staleness"] == 0
        assert r.find("asp").metrics["dprs"] == 0

    def test_table4_single_row(self):
        r = table4_grid(TINY, workloads=["alexnet-cifar10"])
        assert len(r.rows) == 12  # 2 executions x 6 P values
        assert r.find("alexnet-cifar10_soft_P0.0").metrics["dprs_per_100"] == 0

    def test_theory(self):
        r = theory_bounds(TINY)
        for rec in r.records:
            assert rec.metrics["series"] <= rec.metrics["bound"] * (1 + 1e-9)


class TestAblationFunctions:
    def test_stragglers(self):
        r = ablation_stragglers(TINY)
        assert any("pareto" in rec.name for rec in r.records)

    def test_eps_chunks(self):
        r = ablation_eps_chunks(TINY)
        assert r.records[-1].metrics["imbalance8"] <= r.records[0].metrics["imbalance8"]

    def test_per_shard(self):
        r = ablation_per_shard_models(TINY)
        assert len(r.records) == 2

    def test_filters(self):
        r = ablation_push_filters(TINY)
        none = r.find("none")
        for rec in r.records:
            assert rec.metrics["wire_bytes"] <= none.metrics["wire_bytes"] * 1.001

    def test_specsync(self):
        from repro.bench.ablations import ablation_specsync

        r = ablation_specsync(TINY)
        assert r.find("pssp(3,0.3)").metrics["aborts"] == 0
        assert r.find("specsync").metrics["duration"] > 0

    def test_scale_grid_structure(self):
        r = scale_grid(TINY)
        counts = grid_worker_counts(TINY)
        n_cells = len(GRID_PRESETS) * len(counts) * len(GRID_SYNCS)
        assert len(r.rows) == n_cells
        assert len(r.records) == n_cells
        for preset in GRID_PRESETS:
            for n in counts:
                for sync in GRID_SYNCS:
                    rec = r.find(f"scale-grid/{preset}/N{n}/{sync}")
                    assert rec.metrics["wall_s"] > 0
                    assert rec.metrics["events"] > 0
                    assert rec.metrics["sim_s_per_iter"] > 0
                    # Collapse / memory columns are present in every cell
                    # (counter values are population-dependent).
                    assert rec.metrics["rounds_collapsed"] >= 0
                    assert rec.metrics["pending_event_hwm"] > 0
                    assert rec.metrics["peak_rss_mb"] > 0
        # Barrier pressure is visible in the grid: at the largest N, BSP
        # issues at least as many DPRs as PSSP on every topology (the
        # sim-time ordering itself is a scaling claim, only stable at
        # quick/paper worker counts).
        n = max(counts)
        for preset in GRID_PRESETS:
            bsp_cell = r.find(f"scale-grid/{preset}/N{n}/bsp").metrics
            pssp_cell = r.find(f"scale-grid/{preset}/N{n}/pssp").metrics
            assert bsp_cell["dprs"] >= pssp_cell["dprs"]


class TestCli:
    def test_list_and_run(self, capsys, tmp_path, monkeypatch):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table4" in out

        assert main(["--only", "fig3", "--save-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert list(tmp_path.glob("*.json"))

    def test_unknown_id_rejected(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["--only", "fig99"])
