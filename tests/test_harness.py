import json
import os

import pytest

from gibbs_qaoa import harness
from gibbs_qaoa.harness import (
    MissingPanelData,
    PointSpec,
    SweepConfig,
    SweepRecord,
    emit_csv,
    emit_fig_data,
    emit_json,
    grid_points,
    record_to_dict,
    run_point,
    run_sweep,
)
from gibbs_qaoa.ising import IsingInstance, toy_instance
from gibbs_qaoa.powell import PowellOptions

FAST_OPTIMIZER = PowellOptions(max_evaluations=3000)


def fast_config(**overrides):
    defaults = dict(
        instance=toy_instance(),
        methods=("qaoa", "sbo"),
        schemes=("full", "linearized"),
        depths=(1, 2),
        temperatures=(1.0,),
        optimizer=FAST_OPTIMIZER,
        point_budget_s=60.0,
        workers=1,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


class TestGrid:
    def test_default_grid_size(self):
        cfg = SweepConfig(instance=toy_instance())
        # 12 depths x (2 classical schemes + 2 schemes x 3 temperatures)
        assert len(grid_points(cfg)) == 96

    def test_default_has_no_wall_clock_budget(self):
        # evaluation caps bound a point, so records do not depend on machine speed
        assert SweepConfig(instance=toy_instance()).point_budget_s is None

    def test_empty_methods_rejected(self):
        cfg = fast_config(methods=())
        with pytest.raises(ValueError, match="nothing to run"):
            grid_points(cfg)

    def test_single_point(self):
        cfg = fast_config(methods=("qaoa",), schemes=("full",), depths=(1,))
        assert grid_points(cfg) == [PointSpec("qaoa", "full", 1, None)]

    def test_validation(self):
        with pytest.raises(ValueError):
            fast_config(depths=(2, 1))
        with pytest.raises(ValueError):
            fast_config(temperatures=(0.0,))
        with pytest.raises(ValueError):
            fast_config(methods=("other",))

    def test_deterministic_order(self):
        cfg = fast_config(temperatures=(2.0, 0.5))
        points = grid_points(cfg)
        sbo = [p for p in points if p.method == "sbo"]
        assert [(p.scheme, p.temperature, p.p) for p in sbo] == [
            ("full", 0.5, 1), ("full", 0.5, 2), ("full", 2.0, 1), ("full", 2.0, 2),
            ("linearized", 0.5, 1), ("linearized", 0.5, 2),
            ("linearized", 2.0, 1), ("linearized", 2.0, 2),
        ]


class TestRunPoint:
    def test_sbo_record(self):
        cfg = fast_config()
        rec = run_point(cfg, PointSpec("sbo", "linearized", 2, 1.0))
        assert rec.method == "sbo" and rec.temperature == 1.0
        assert 0.0 <= rec.p_gs <= 1.0
        assert rec.tvd is not None and 0.0 <= rec.tvd <= 1.0
        assert rec.tvd_by_temperature == ()
        assert sum(rec.orbit_probs) == pytest.approx(rec.p_gs, abs=1e-12)
        assert rec.n_evaluations > 0
        assert rec.wall_time_s > 0

    def test_point_budget_stops_the_point(self):
        # point_budget_s is the one wall-clock budget: run_point hands it to
        # the optimizer, which stops every start at the deadline.
        point = PointSpec("sbo", "linearized", 2, 1.0)
        cut = run_point(fast_config(point_budget_s=0.0), point)
        full = run_point(fast_config(point_budget_s=None), point)
        assert not cut.converged
        assert cut.n_evaluations < full.n_evaluations

    def test_classical_record_has_per_temperature_tvds(self):
        cfg = fast_config(temperatures=(0.5, 1.0))
        rec = run_point(cfg, PointSpec("qaoa", "full", 1, None))
        assert rec.temperature is None and rec.tvd is None
        assert [t for t, _ in rec.tvd_by_temperature] == [0.5, 1.0]
        assert all(0.0 <= v <= 1.0 for _, v in rec.tvd_by_temperature)


class TestRunSweep:
    def test_serial_sweep_completes(self):
        cfg = fast_config(methods=("qaoa",), schemes=("full",), depths=(1, 2))
        records, failures = run_sweep(cfg)
        assert len(records) == 2 and not failures
        assert [r.p for r in records] == [1, 2]

    def test_parallel_matches_serial(self):
        base = fast_config(methods=("sbo",), schemes=("linearized",), depths=(1, 2),
                           point_budget_s=None)
        serial, _ = run_sweep(base)
        parallel, _ = run_sweep(fast_config(
            methods=("sbo",), schemes=("linearized",), depths=(1, 2),
            point_budget_s=None, workers=2))
        assert [r.objective for r in serial] == [r.objective for r in parallel]
        assert [r.p_gs for r in serial] == [r.p_gs for r in parallel]

    def test_failures_collected_not_fatal(self, monkeypatch):
        cfg = fast_config(methods=("qaoa",), schemes=("full",), depths=(1, 2))
        real = harness.run_point

        def flaky(cfg_, point):
            if point.p == 2:
                raise RuntimeError("boom")
            return real(cfg_, point)

        monkeypatch.setattr(harness, "run_point", flaky)
        records, failures = run_sweep(cfg)
        assert len(records) == 1 and len(failures) == 1
        assert failures[0].point.p == 2
        assert "boom" in failures[0].error

    def test_workers_come_from_the_config_only(self, monkeypatch):
        # no environment variable overrides an explicit worker count
        monkeypatch.setenv("GIBBS_QAOA_THREADS", "3")
        assert harness.resolve_workers(1) == 1
        assert harness.resolve_workers(None) == (os.cpu_count() or 1)


@pytest.fixture(scope="module")
def small_table():
    cfg = fast_config(depths=(1, 2), temperatures=(1.0,))
    records, failures = run_sweep(cfg)
    assert not failures
    return records


class TestSerialization:
    def test_csv_layout(self, small_table, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(small_table, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:14] == list(harness.CSV_BASE_COLUMNS)
        assert header[14:] == ["tvd_T1.0"]
        assert len(lines) == 1 + len(small_table)
        qaoa_row = lines[1].split(",")
        assert qaoa_row[0] == "qaoa" and qaoa_row[3] == ""  # blank T
        assert qaoa_row[10] == "" and qaoa_row[14] != ""
        sbo_rows = [l.split(",") for l in lines[1:] if l.startswith("sbo")]
        assert all(row[10] != "" and row[14] == "" for row in sbo_rows)

    def test_csv_blank_orbit_cells_without_orbits(self, tmp_path):
        # a field breaks the global flip symmetry: no orbits, blank p_orbit cells
        inst = IsingInstance(n=2, couplings={(1, 2): 1.0}, fields=(0.5, 0.0))
        cfg = fast_config(instance=inst, methods=("qaoa",), schemes=("full",),
                          depths=(1,), point_budget_s=None)
        record = run_point(cfg, PointSpec("qaoa", "full", 1, None))
        assert record.orbit_probs == ()
        path = tmp_path / "out.csv"
        emit_csv([record], path)
        header, row = (line.split(",") for line in path.read_text().splitlines())
        cells = dict(zip(header, row, strict=True))
        assert [cells[f"p_orbit{i}"] for i in (1, 2, 3)] == ["", "", ""]
        assert cells["fairness_gap"] == "0"
        assert float(cells["p_gs"]) == pytest.approx(record.p_gs, rel=1e-11)

    def test_csv_keeps_orbits_past_the_third(self, tmp_path):
        # no couplings: all 8 states are ground states, in 4 flip orbits
        cfg = fast_config(instance=IsingInstance(n=3), methods=("qaoa",), schemes=("full",),
                          depths=(1,), point_budget_s=None)
        record = run_point(cfg, PointSpec("qaoa", "full", 1, None))
        assert len(record.orbit_probs) == 4
        path = tmp_path / "out.csv"
        emit_csv([record], path)
        header, row = (line.split(",") for line in path.read_text().splitlines())
        assert header[:14] == list(harness.CSV_BASE_COLUMNS)
        assert set(header) == set(harness.CSV_BASE_COLUMNS) | set(record_to_dict(record))
        cells = dict(zip(header, row, strict=True))
        assert float(cells["p_orbit4"]) == pytest.approx(record.orbit_probs[3], rel=1e-11)

    def test_json_round_trip(self, small_table, tmp_path):
        path = tmp_path / "out.json"
        emit_json(small_table, path)
        assert json.loads(path.read_text()) == [record_to_dict(r) for r in small_table]

    def test_determinism_modulo_wall_time(self, tmp_path):
        cfg = fast_config(methods=("sbo",), schemes=("full",), depths=(1,),
                          point_budget_s=None)
        a, _ = run_sweep(cfg)
        b, _ = run_sweep(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(a, pa)
        emit_csv(b, pb)

        def strip_wall(text):
            rows = [line.split(",") for line in text.splitlines()]
            return [row[:13] + row[14:] for row in rows]

        assert strip_wall(pa.read_text()) == strip_wall(pb.read_text())


class TestFigureData:
    def test_panel_files(self, small_table, tmp_path):
        fig2 = emit_fig_data(small_table, "fig2", tmp_path)
        fig3 = emit_fig_data(small_table, "fig3", tmp_path)
        assert [p.split("/")[-1] for p in fig2] == [
            "fig2a.dat", "fig2b.dat", "fig2c.dat", "fig2d.dat"
        ]
        assert [p.split("/")[-1] for p in fig3] == ["fig3a.dat", "fig3b.dat"]
        body = (tmp_path / "fig2a.dat").read_text().splitlines()
        assert body[0] == "# p P_1 P_2 P_3 P_GS"
        assert len(body) == 3  # header + depths 1, 2

    def test_projection_consistency(self, small_table, tmp_path):
        emit_fig_data(small_table, "fig2", tmp_path)
        rec = next(r for r in small_table
                   if r.method == "sbo" and r.scheme == "full" and r.p == 1)
        row = (tmp_path / "fig2c.dat").read_text().splitlines()[1].split()
        assert float(row[1]) == pytest.approx(rec.orbit_probs[0], rel=1e-12)
        assert float(row[4]) == pytest.approx(rec.p_gs, rel=1e-12)

    def test_regeneration_is_byte_identical(self, small_table, tmp_path):
        first = emit_fig_data(small_table, "fig2", tmp_path / "one", svg=True)
        second = emit_fig_data(small_table, "fig2", tmp_path / "two", svg=True)
        for a, b in zip(first, second):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_missing_panel_raises(self, small_table, tmp_path):
        only_qaoa = [r for r in small_table if r.method == "qaoa"]
        with pytest.raises(MissingPanelData):
            emit_fig_data(only_qaoa, "fig2", tmp_path)
        with pytest.raises(MissingPanelData):
            emit_fig_data(only_qaoa, "fig3", tmp_path)

    def test_unknown_figure(self, small_table, tmp_path):
        with pytest.raises(ValueError):
            emit_fig_data(small_table, "fig9", tmp_path)

    def test_svg_written(self, small_table, tmp_path):
        paths = emit_fig_data(small_table, "fig3", tmp_path, svg=True)
        svgs = [p for p in paths if p.endswith(".svg")]
        assert len(svgs) == 2
        content = open(svgs[0]).read()
        assert content.startswith("<svg") and "polyline" in content


def test_record_metric_consistency(small_table):
    for rec in small_table:
        if rec.orbit_probs:
            assert sum(rec.orbit_probs) == pytest.approx(rec.p_gs, abs=1e-12)
        if rec.tvd is not None:
            assert 0.0 <= rec.tvd <= 1.0
