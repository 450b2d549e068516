import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cosetlab.blockmat import BlockMatrix
from cosetlab.experiments import (
    CSV_COLUMNS,
    ConcentrationReport,
    ExperimentConfig,
    ReportRow,
    run_block_decay,
    run_concentration,
    wilson_interval,
    write_report,
)
from cosetlab.haar import RandomStream, haar_unitary


def _cfg(**overrides):
    base = dict(
        family="symmetric", alpha=1, k=1, m=1, N_list=(3,), epsilon_list=(0.25,),
        samples=50, seed=7, g_spec="(1 2)", h_spec="(1 2)")
    base.update(overrides)
    return ExperimentConfig(**base)


class TestWilsonInterval:
    def test_zero_hits_pins_low_end(self):
        lo, hi = wilson_interval(0, 40)
        assert lo == 0.0
        assert 0 < hi < 0.2
        for n in (6, 10):
            assert wilson_interval(0, n)[0] == 0.0

    def test_full_hits_pins_high_end(self):
        lo, hi = wilson_interval(40, 40)
        assert hi == 1.0
        assert 0.8 < lo < 1
        for n in (6, 10):
            assert wilson_interval(n, n)[1] == 1.0

    def test_reference_point(self):
        # closed form at z = Phi^-1(0.975), p = 0.75, n = 100
        z = 1.959963984540054
        n, p = 100, 0.75
        denom = 1 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
        lo, hi = wilson_interval(75, 100)
        assert lo == pytest.approx(center - half, abs=1e-12)
        assert hi == pytest.approx(center + half, abs=1e-12)
        assert lo == pytest.approx(0.657, abs=0.005)
        assert hi == pytest.approx(0.826, abs=0.005)

    def test_higher_confidence_widens(self):
        lo95, hi95 = wilson_interval(30, 60)
        lo99, hi99 = wilson_interval(30, 60, confidence=0.99)
        assert lo99 < lo95 and hi99 > hi95

    @pytest.mark.parametrize("hits,samples", [(-1, 10), (11, 10), (0, 0)])
    def test_invalid_inputs(self, hits, samples):
        with pytest.raises(ValueError):
            wilson_interval(hits, samples)


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = _cfg()
        again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg

    def test_unknown_field_rejected(self):
        data = _cfg().to_json_dict()
        data["n_samples"] = 10
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_json_dict(data)

    def test_missing_field_rejected(self):
        data = _cfg().to_json_dict()
        del data["seed"]
        with pytest.raises(ValueError, match="missing config fields"):
            ExperimentConfig.from_json_dict(data)

    @pytest.mark.parametrize("overrides", [
        dict(family="noncompact"),
        dict(family="unitary_conjugation", m=2),
        dict(N_list=(0,), k=1),
        dict(N_list=()),
        dict(epsilon_list=(0.0,)),
        dict(epsilon_list=()),
        dict(samples=0),
        dict(measure="tau_squared"),
        dict(restarts=0),
        dict(restarts=-3),
        dict(max_iters=0),
        dict(tol=-1e-9),
        dict(tol=float("nan")),
        dict(tol=float("inf")),
    ])
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            _cfg(**overrides)


class TestRunConcentration:
    def test_identity_inputs_always_hit(self):
        cfg = _cfg(family="unitary_orthogonal", g_spec="identity", h_spec="identity",
                   N_list=(3,), samples=10, seed=1)
        report = run_concentration(cfg)
        (row,) = report.rows
        assert row.hits == 10
        assert row.fraction == 1.0
        assert row.median_dist <= 0.25

    def test_symmetric_fixture_ci_contains_three_quarters(self):
        cfg = _cfg(samples=2400, seed=11)
        (row,) = run_concentration(cfg).rows
        assert row.ci_low <= 0.75 <= row.ci_high

    def test_reports_are_reproducible(self):
        cfg = _cfg(family="unitary_orthogonal", N_list=(2, 4), epsilon_list=(0.25, 0.5),
                   samples=12, seed=5, g_spec="random_unitary", h_spec="random_unitary")
        a = run_concentration(cfg).with_zeroed_runtime().to_csv_text()
        b = run_concentration(cfg).with_zeroed_runtime().to_csv_text()
        assert a == b

    def test_thread_count_does_not_change_rows(self):
        cfg = _cfg(samples=200, seed=3)
        seq = run_concentration(cfg, threads=1).with_zeroed_runtime()
        par = run_concentration(cfg, threads=4).with_zeroed_runtime()
        assert seq == par

    def test_thread_count_does_not_change_unitary_rows(self):
        cfg = _cfg(family="unitary_orthogonal", N_list=(4, 64), epsilon_list=(0.3,),
                   samples=24, seed=8, g_spec="random_unitary", h_spec="random_unitary")
        seq = run_concentration(cfg, threads=1).with_zeroed_runtime()
        assert seq == run_concentration(cfg, threads=2).with_zeroed_runtime()

    @pytest.mark.parametrize("family", ["unitary_orthogonal", "unitary_conjugation"])
    def test_unitary_measures_share_the_core(self, family):
        # tau_full's outer draws leave the sample's core unchanged
        cfg = _cfg(family=family, N_list=(5,), epsilon_list=(0.4,), samples=10, seed=3,
                   g_spec="random_unitary", h_spec="random_unitary")
        full = replace(cfg, measure="tau_full")
        assert (run_concentration(cfg).with_zeroed_runtime()
                == run_concentration(full).with_zeroed_runtime())

    def test_threads_env_cap(self, monkeypatch):
        monkeypatch.setenv("COSETLAB_THREADS", "1")
        cfg = _cfg(samples=40, seed=3)
        report = run_concentration(cfg, threads=8).with_zeroed_runtime()
        assert report == run_concentration(cfg, threads=1).with_zeroed_runtime()

    def test_fraction_improves_with_tail_size(self):
        cfg = _cfg(family="unitary_orthogonal", N_list=(2, 8), epsilon_list=(0.5,),
                   samples=40, seed=42, g_spec="random_unitary", h_spec="random_unitary")
        fr = run_concentration(cfg).fractions_by_N(0.5)
        assert fr[8] >= fr[2]

    def test_conjugation_family_runs(self):
        cfg = _cfg(family="unitary_conjugation", N_list=(4,), epsilon_list=(0.6,),
                   samples=8, seed=9, g_spec="random_unitary", h_spec="random_unitary")
        (row,) = run_concentration(cfg).rows
        assert 0.0 <= row.fraction <= 1.0
        assert row.median_dist >= 0.0

    def test_file_source(self, tmp_path):
        u = BlockMatrix(haar_unitary(2, RandomStream(77, 0)))
        path = tmp_path / "g.json"
        path.write_text(json.dumps(u.to_json_dict()))
        cfg = _cfg(family="unitary_orthogonal", N_list=(3,), samples=5, seed=2,
                   g_spec=str(path), h_spec="identity")
        (row,) = run_concentration(cfg).rows
        assert row.samples == 5

    def test_symmetric_needs_exact_sources(self, tmp_path):
        u = BlockMatrix(haar_unitary(2, RandomStream(78, 0)))
        path = tmp_path / "g.json"
        path.write_text(json.dumps(u.to_json_dict()))
        cfg = _cfg(g_spec=str(path))
        with pytest.raises(ValueError, match="exact permutation"):
            run_concentration(cfg)


class TestReports:
    def test_csv_header_and_width(self):
        assert len(CSV_COLUMNS) == 15
        text = ConcentrationReport().to_csv_text()
        assert text == ",".join(CSV_COLUMNS) + "\n"

    def test_csv_floats_survive_round_trip(self):
        row = ReportRow(
            family="symmetric", alpha=1, k=1, m=1, N=3, epsilon=0.25, samples=10,
            hits=7, fraction=0.7, ci_low=1 / 3, ci_high=2 / 3, median_dist=0.1,
            mean_dist=0.2, seed=5, runtime_s=0.0)
        text = ConcentrationReport((row,)).to_csv_text()
        values = text.splitlines()[1].split(",")
        assert float(values[CSV_COLUMNS.index("ci_low")]) == 1 / 3

    def test_json_rows_match_csv_columns(self):
        cfg = _cfg(samples=30, seed=4)
        report = run_concentration(cfg)
        payload = json.loads(report.to_json_text())
        assert set(payload["rows"][0]) == set(CSV_COLUMNS)

    def test_write_report_csv_and_json(self, tmp_path):
        cfg = _cfg(samples=30, seed=4)
        report = run_concentration(cfg)
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        write_report(report, csv_path)
        write_report(report, json_path, format="json")
        assert csv_path.read_text().startswith(",".join(CSV_COLUMNS))
        assert "np.float64" not in report.to_csv_text()
        assert json.loads(json_path.read_text())["rows"]

    def test_write_block_decay_table(self, tmp_path):
        rows = run_block_decay(1, [0, 4], samples=30, seed=6)
        path = tmp_path / "decay.csv"
        write_report(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,median_norm,mean_norm"
        assert len(lines) == 3


class TestRunBlockDecay:
    def test_zero_tail_is_exactly_one(self):
        rows = run_block_decay(2, [0], samples=30, seed=1)
        assert rows[0] == (0, 1.0, 1.0)

    def test_norms_decay(self):
        rows = run_block_decay(2, [0, 8, 32], samples=60, seed=12)
        medians = {n: md for n, md, _ in rows}
        assert medians[0] == 1.0
        assert medians[8] < 1.0
        assert medians[32] < medians[8]
        assert medians[32] <= 3 * np.sqrt(2 / 34)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            run_block_decay(1, [4], samples=10, seed=0)

    def test_deterministic_in_seed(self):
        assert run_block_decay(1, [4], 30, 9) == run_block_decay(1, [4], 30, 9)
