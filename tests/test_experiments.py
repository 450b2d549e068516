import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

import cosetlab.experiments as experiments
from cosetlab.blockmat import BlockMatrix, BlockSpec, PermutationWord
from cosetlab.cosets import GroupFamily, circ_N, sample_core
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
from cosetlab.geometry import dist_conjugacy
from cosetlab.haar import RandomStream, haar_columns, haar_unitary
from cosetlab.hypergroup_exact import concentration_exact


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

    @pytest.mark.parametrize("confidence", [1e-6, 0.1, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999,
                                            1 - 1e-6, 1 - 1e-9])
    def test_matches_scipy_normal_quantile(self, confidence):
        from scipy.stats import norm

        z = float(norm.ppf(0.5 + confidence / 2))
        for hits, n in [(0, 1), (1, 1), (0, 40), (1, 40), (3, 7), (30, 60), (75, 100),
                        (1, 400), (399, 400), (400, 400)]:
            p = hits / n
            denom = 1 + z * z / n
            center = (p + z * z / (2 * n)) / denom
            half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
            lo, hi = wilson_interval(hits, n, confidence)
            assert (lo == 0.0) if hits == 0 else abs(lo - (center - half)) <= 1e-12 * lo
            assert (hi == 1.0) if hits == n else abs(hi - (center + half)) <= 1e-12 * hi

    @pytest.mark.parametrize("hits,samples", [(-1, 10), (11, 10), (0, 0)])
    def test_invalid_inputs(self, hits, samples):
        with pytest.raises(ValueError):
            wilson_interval(hits, samples)

    @pytest.mark.parametrize("confidence", [0, 1, 1.5, -0.2, float("nan")])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            wilson_interval(5, 10, confidence=confidence)


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

    def test_removed_measure_field_rejected(self):
        # tau_tilde and tau_full give the same report, so a config names no measure
        data = _cfg().to_json_dict()
        data["measure"] = "tau_full"
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_json_dict(data)

    def test_json_keys_are_the_fields(self):
        assert set(_cfg().to_json_dict()) == set(ExperimentConfig.__dataclass_fields__)

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
        dict(k=0),
        dict(restarts=0),
        dict(restarts=-3),
        dict(max_iters=0),
        dict(tol=-1e-9),
        dict(tol=float("nan")),
        dict(tol=float("inf")),
        dict(samples=2.5),
        dict(restarts=2.5),
        dict(alpha=1.5),
        dict(k=True),
        dict(seed="abc"),
        dict(m=1.0),
        dict(max_iters=2.5),
        dict(N_list="64"),
        dict(N_list=64),
        dict(N_list=(8.7,)),
        dict(N_list=(True,)),
        dict(epsilon_list="0.4"),
        dict(epsilon_list=0.4),
        dict(epsilon_list=(float("nan"),)),
        dict(epsilon_list=(float("inf"),)),
        dict(g_spec=5),
        dict(h_spec=None),
        dict(tol=True),
        dict(tol="1e-3"),
        dict(tol=None),
        dict(seed=-1),
        dict(g_spec=BlockMatrix.identity(2)),
        dict(h_spec=PermutationWord([2, 1])),
    ])
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            _cfg(**overrides)

    def test_tol_is_stored_as_float(self):
        cfg = _cfg(tol=1)
        assert type(cfg.tol) is float
        assert type(cfg.to_json_dict()["tol"]) is float


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

    @pytest.mark.parametrize("alpha,k,m,N,samples,g,h,confidence", [
        (1, 1, 2, 10**6, 200, "(1 2 3)", "(1 3)", 0.95),
        (0, 2, 2, 16, 3000, "(1 3)(2 4)", "(1 2)", 1 - 1e-6),
    ])
    def test_symmetric_sweep_covers_exact_probability(self, alpha, k, m, N, samples, g, h,
                                                      confidence):
        cfg = _cfg(alpha=alpha, k=k, m=m, N_list=(N,), samples=samples, seed=12,
                   g_spec=g, h_spec=h)
        (row,) = run_concentration(cfg).rows
        gw = PermutationWord.parse(g, degree=cfg.alpha + m * k)
        hw = PermutationWord.parse(h, degree=cfg.alpha + m * k)
        fam = GroupFamily("symmetric", BlockSpec(alpha, k, N, m))
        ((_, p),) = concentration_exact(gw, hw, fam, [N])
        lo, hi = wilson_interval(row.hits, row.samples, confidence)
        assert lo <= p <= hi, (row.hits, float(p))

    @pytest.mark.parametrize("family", ["symmetric", "unitary_orthogonal"])
    def test_sweep_starts_no_worker_threads(self, monkeypatch, family):
        def refuse(self):
            raise AssertionError("run_concentration started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = _cfg(samples=8, seed=3) if family == "symmetric" else _cfg(
            family=family, N_list=(8,), epsilon_list=(0.4,), samples=8, seed=3,
            g_spec="random_unitary", h_spec="random_unitary")
        (row,) = run_concentration(cfg).rows
        assert row.samples == 8

    def test_integral_float_tail_sizes_accepted(self):
        assert _cfg(N_list=[3.0, np.int64(4)]).N_list == (3, 4)

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

    def test_conjugation_report_matches_per_sample_loop(self, monkeypatch):
        # blocks of 7 samples at core dimension 3, so blocks are crossed
        monkeypatch.setattr(experiments, "_BLOCK_BYTES", 7 * 48 * 9 * 5)
        cfg = _cfg(family="unitary_conjugation", N_list=(8, 24), epsilon_list=(0.2, 0.4),
                   samples=38, seed=5, g_spec="random_unitary", h_spec="random_unitary")
        setup = RandomStream(cfg.seed, 0).generator()
        g, h = BlockMatrix(haar_unitary(2, setup)), BlockMatrix(haar_unitary(2, setup))
        target = circ_N(g, h, GroupFamily(cfg.family, BlockSpec(1, 1, 1, 1)))
        rows = iter(run_concentration(cfg).with_zeroed_runtime().rows)
        for N in cfg.N_list:
            fam = GroupFamily(cfg.family, BlockSpec(1, 1, N, 1))
            dists = [dist_conjugacy(sample_core(g, h, fam, haar_columns(
                1 + N, 1, RandomStream(cfg.seed, 1 + i).generator(), unitary=True).T),
                target).upper_bound for i in range(cfg.samples)]
            for eps in cfg.epsilon_list:
                hits = sum(d <= eps for d in dists)
                lo, hi = wilson_interval(hits, cfg.samples)
                assert next(rows) == ReportRow(
                    family=cfg.family, alpha=1, k=1, m=1, N=N, epsilon=eps,
                    samples=cfg.samples, hits=hits, fraction=hits / cfg.samples, ci_low=lo,
                    ci_high=hi, median_dist=float(np.median(dists)),
                    mean_dist=float(np.mean(dists)), seed=cfg.seed, runtime_s=0.0)

    def test_conjugation_stacks_stay_bounded(self, monkeypatch):
        # blocks of _BLOCK_BYTES // (48 d^2 (1 + w^2)) samples, w = d - alpha:
        # 1941 at d=3 (a whole sweep of 200), one at d=17
        seen = []
        real = experiments.dist_conjugacy_stack

        def spy(xs, *args, **kwargs):
            seen.append(len(xs))
            return real(xs, *args, **kwargs)

        monkeypatch.setattr(experiments, "dist_conjugacy_stack", spy)
        for k, samples, sizes in [(1, 2000, [1941, 59]), (8, 2, [1, 1])]:
            seen.clear()
            cfg = _cfg(family="unitary_conjugation", k=k, N_list=(k,), epsilon_list=(0.4,),
                       samples=samples, seed=2, g_spec="random_unitary",
                       h_spec="random_unitary", max_iters=2)
            run_concentration(cfg)
            assert seen == sizes, k

    def test_conjugation_block_memory(self):
        # the dense Sylvester map holds about 3.6 MB per sample at k=8; a block
        # of 32 samples peaked at 112 MB
        cfg = _cfg(family="unitary_conjugation", k=8, N_list=(8,), epsilon_list=(0.4,),
                   samples=6, seed=2, g_spec="random_unitary", h_spec="random_unitary",
                   max_iters=2)
        tracemalloc.start()
        try:
            run_concentration(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("k,m,samples,sizes", [(1, 1, 100, [100]), (8, 2, 50, [24, 24, 2])])
    def test_orthogonal_stacks_sized_by_core_dimension(self, monkeypatch, k, m, samples, sizes):
        # blocks of _BLOCK_BYTES // (160 d^2) samples: d=3 fits a sweep, d=33 does not
        seen = []
        real = experiments.dist_double_coset_stack

        def spy(xs, *args, **kwargs):
            seen.append(len(xs))
            return real(xs, *args, **kwargs)

        monkeypatch.setattr(experiments, "dist_double_coset_stack", spy)
        cfg = _cfg(family="unitary_orthogonal", k=k, m=m, N_list=(k,), epsilon_list=(0.4,),
                   samples=samples, seed=2, g_spec="random_unitary", h_spec="random_unitary",
                   restarts=1, max_iters=2)
        run_concentration(cfg)
        assert seen == sizes

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

    def test_block_decay_text_pinned(self, tmp_path):
        # the block-decay layout byte for byte, and the values pinned to the
        # seed up to rounding
        rows = run_block_decay(2, [0, 8], samples=30, seed=3)
        _, md, mn = rows[1]
        assert md == pytest.approx(0.5748332790334012, rel=1e-12)
        assert mn == pytest.approx(0.5645150995575252, rel=1e-12)
        write_report(rows, tmp_path / "d.csv")
        write_report(rows, tmp_path / "d.json", format="json")
        assert (tmp_path / "d.csv").read_text() == (
            f"N,median_norm,mean_norm\n0,1.0,1.0\n8,{md!r},{mn!r}\n")
        assert (tmp_path / "d.json").read_text() == (
            '{\n  "rows": [\n'
            '    {\n      "N": 0,\n      "median_norm": 1.0,\n      "mean_norm": 1.0\n    },\n'
            f'    {{\n      "N": 8,\n      "median_norm": {md!r},\n      "mean_norm": {mn!r}\n'
            '    }\n  ]\n}\n')


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
