import json
import math
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cosetlab.experiments as experiments
import cosetlab.geometry as geometry
from cosetlab.blockmat import BlockMatrix, BlockSpec, PermutationWord, load_source
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
from cosetlab.geometry import dist_conjugacy_stack, dist_double_coset_stack, sym_membership
from cosetlab.haar import (
    RandomStream,
    _block_normals,
    _pattern_draw,
    _patterns_at,
    _top_blocks,
    haar_unitary,
    uniform_permutation,
)
from cosetlab.hypergroup_exact import concentration_exact
import comparison_table
from testkit import fractions_by_N, radius_checked, zeroed_runtime


def _cfg(**overrides):
    base = dict(
        family="symmetric", alpha=1, k=1, m=1, N_list=(3,), epsilon_list=(0.25,),
        samples=50, seed=7, g_spec="(1 2)", h_spec="(1 2)")
    base.update(overrides)
    return ExperimentConfig(**base)


def _sample_row(seed, i, draw):
    # sample i's row in the sweeps' layout: row i mod 256 of one draw of 256
    # from stream 1 + i // 256
    return draw(RandomStream(seed, 1 + i // 256).generator(), 256)[i % 256]


def _sample_block(seed, i, N, unitary):
    # sample i's A at k=1: the QR of its row of its chunk's Gaussians
    z = _sample_row(seed, i, lambda gen, count: _block_normals(1, N, gen, unitary, count))
    return _top_blocks(z[None], N, unitary)[0]


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

    @pytest.mark.parametrize("field,value", [("measure", "tau_full"), ("tol", 1e-12),
                                             ("max_iters", 200)])
    def test_removed_field_rejected(self, field, value):
        # tau_tilde and tau_full give the same report, so a config names no
        # measure; the solvers' stop thresholds and step cap are constants,
        # not options
        data = _cfg().to_json_dict()
        data[field] = value
        with pytest.raises(ValueError, match=f"unknown config fields: \\['{field}'\\]"):
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
        dict(m=0),
        dict(samples=2.5),
        dict(alpha=1.5),
        dict(k=True),
        dict(seed="abc"),
        dict(m=1.0),
        dict(seed=2.5),
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
        dict(seed=-1),
        dict(g_spec=BlockMatrix.identity(2)),
        dict(h_spec=PermutationWord([2, 1])),
    ])
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            _cfg(**overrides)

    @pytest.mark.parametrize("k,g_spec", [(1, "(1 2)"), (2, "(1 3)")])
    def test_symmetric_any_copy_size(self, k, g_spec):
        # a symmetric sample draws its core pattern, which holds nothing of
        # size N, so tail sizes beyond 64 bits run
        for N in (2**63 - 1, 10**30):
            cfg = _cfg(k=k, g_spec=g_spec, N_list=(3, N), samples=300)
            assert cfg.N_list == (3, N)
            rows = run_concentration(cfg).rows
            assert [r.N for r in rows] == [3, N] and all(r.samples == 300 for r in rows)
        # the unitary draw takes N as a chi-square degree of freedom
        assert _cfg(family="unitary_orthogonal", k=k, N_list=(2**70,)).N_list == (2**70,)


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
        a = zeroed_runtime(run_concentration(cfg)).to_csv_text()
        b = zeroed_runtime(run_concentration(cfg)).to_csv_text()
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
        fr = fractions_by_N(run_concentration(cfg), 0.5)
        assert fr[8] >= fr[2]

    def test_conjugation_family_runs(self):
        cfg = _cfg(family="unitary_conjugation", N_list=(4,), epsilon_list=(0.6,),
                   samples=8, seed=9, g_spec="random_unitary", h_spec="random_unitary")
        (row,) = run_concentration(cfg).rows
        assert 0.0 <= row.fraction <= 1.0
        assert row.median_dist >= 0.0

    def test_conjugation_scale_holds_at_large_tail_sizes(self):
        # the distance to the class of r shrinks as N^(-1/2): sqrt(N) times the
        # median sample distance holds to 1e-4 from N = 10^8 to 10^20, so the
        # solver's rounding does not grow as the cores approach r
        N_list = (10**8, 10**12, 10**16, 10**20)
        cfg = _cfg(family="unitary_conjugation", N_list=N_list, epsilon_list=(0.4,),
                   samples=300, seed=3, g_spec="random_unitary", h_spec="random_unitary")
        scaled = [np.sqrt(float(row.N)) * row.median_dist for row in run_concentration(cfg).rows]
        assert max(scaled) - min(scaled) <= 1e-4 * min(scaled), scaled

    @pytest.mark.parametrize("family", ["unitary_orthogonal", "unitary_conjugation"])
    def test_step_cap_reaches_the_sweep_solvers(self, monkeypatch, family):
        # the solvers read geometry._MAX_ITERS at each call, so a patched cap
        # holds in the sweep too; in both, a sample's iterations sum its three
        # starts' steps (at eps = 1e-9 every orthogonal sample runs its Gram starts,
        # and at eps = 2, above any unitary distance, no sample is a certified miss)
        name = {"unitary_orthogonal": "dist_double_coset_stack",
                "unitary_conjugation": "dist_conjugacy_stack"}[family]
        real, iters = getattr(experiments, name), []

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            iters.extend(out[1])
            return out

        monkeypatch.setattr(experiments, name, spy)
        cfg = _cfg(family=family, N_list=(8,), epsilon_list=(1e-9, 2), samples=20, seed=2,
                   g_spec="random_unitary", h_spec="random_unitary")
        for cap in (200, 1):
            monkeypatch.setattr(geometry, "_MAX_ITERS", cap)
            iters.clear()
            run_concentration(cfg)
            assert len(iters) == 20
            assert (max(iters) <= 3) == (cap == 1)

    @pytest.mark.parametrize("family", ["unitary_conjugation", "unitary_orthogonal"])
    # the (alpha, k) shapes of the 15-config comparison
    @pytest.mark.parametrize("alpha,k", [(1, 1), (0, 1), (2, 1), (1, 2), (0, 2)])
    def test_certified_misses_move_no_hit(self, monkeypatch, family, alpha, k):
        # the sweep passes max(epsilon) as stop_above: a sample whose lower
        # bound exceeds it is a miss at every epsilon, so each row's hits equal
        # those of a sweep whose solver never hears of stop_above; only
        # median_dist and mean_dist may move
        name = {"unitary_orthogonal": "dist_double_coset_stack",
                "unitary_conjugation": "dist_conjugacy_stack"}[family]
        real, ceilings = getattr(experiments, name), []

        def spy(xs, target, **kwargs):
            ceilings.append(kwargs["stop_above"])
            return real(xs, target, **kwargs)

        def without(xs, target, stop_below, stop_above):
            return real(xs, target, stop_below=stop_below)

        cfg = _cfg(family=family, alpha=alpha, k=k, N_list=(8, 64), epsilon_list=(0.2, 0.4),
                   samples=60, seed=9, g_spec="random_unitary", h_spec="random_unitary")
        monkeypatch.setattr(experiments, name, spy)
        cut = run_concentration(cfg).rows
        assert ceilings == [0.4]
        monkeypatch.setattr(experiments, name, without)
        full = run_concentration(cfg).rows
        assert [replace(r, median_dist=0.0, mean_dist=0.0, runtime_s=0.0) for r in cut] == [
            replace(r, median_dist=0.0, mean_dist=0.0, runtime_s=0.0) for r in full]

    def test_conjugation_report_matches_per_sample_loop(self, monkeypatch):
        # blocks of 7 samples at core dimension 3, and 260 samples, so blocks
        # and a chunk edge are crossed; 20 steps keep the loop short
        monkeypatch.setattr(experiments, "_BLOCK_BYTES", 7 * (2048 + 480 * 9))
        monkeypatch.setattr(geometry, "_MAX_ITERS", 20)
        cfg = _cfg(family="unitary_conjugation", N_list=(8, 24), epsilon_list=(0.2, 0.4),
                   samples=260, seed=5, g_spec="random_unitary", h_spec="random_unitary")
        setup = RandomStream(cfg.seed, 0).generator()
        g, h = BlockMatrix(haar_unitary(2, setup)), BlockMatrix(haar_unitary(2, setup))
        target = circ_N(g, h, GroupFamily(cfg.family, BlockSpec(1, 1, 1, 1)))
        rows = iter(zeroed_runtime(run_concentration(cfg)).rows)
        for N in cfg.N_list:
            fam = GroupFamily(cfg.family, BlockSpec(1, 1, N, 1))
            # each sample a stack of one with the sweep's stops
            dists = [dist_conjugacy_stack(
                sample_core(g, h, fam, _sample_block(cfg.seed, i, N, True)).entries[None],
                target, stop_below=min(cfg.epsilon_list), stop_above=max(cfg.epsilon_list))[0][0]
                for i in range(cfg.samples)]
            for eps in cfg.epsilon_list:
                hits = sum(d <= eps for d in dists)
                lo, hi = wilson_interval(hits, cfg.samples)
                assert next(rows) == ReportRow(
                    family=cfg.family, alpha=1, k=1, m=1, N=N, epsilon=eps,
                    samples=cfg.samples, hits=hits, fraction=hits / cfg.samples, ci_low=lo,
                    ci_high=hi, median_dist=float(np.median(dists)),
                    mean_dist=float(np.mean(dists)), seed=cfg.seed, runtime_s=0.0)

    def test_orthogonal_report_matches_per_sample_loop(self, monkeypatch):
        # solver blocks of 7 samples at core dimension 3, and 260 samples, so
        # blocks and a chunk edge are crossed
        monkeypatch.setattr(experiments, "_BLOCK_BYTES", 7 * 175 * 9)
        cfg = _cfg(family="unitary_orthogonal", N_list=(8, 256), epsilon_list=(0.2, 0.4),
                   samples=260, seed=5, g_spec="random_unitary", h_spec="random_unitary")
        setup = RandomStream(cfg.seed, 0).generator()
        g, h = BlockMatrix(haar_unitary(2, setup)), BlockMatrix(haar_unitary(2, setup))
        target = circ_N(g, h, GroupFamily(cfg.family, BlockSpec(1, 1, 1, 1)))
        rows = iter(zeroed_runtime(run_concentration(cfg)).rows)
        for N in cfg.N_list:
            fam = GroupFamily(cfg.family, BlockSpec(1, 1, N, 1))
            dists = []
            for i in range(cfg.samples):
                core = sample_core(g, h, fam, _sample_block(cfg.seed, i, N, False))
                # a stack of one with the sweep's stops
                dists.append(dist_double_coset_stack(core.entries[None], target, stop_below=0.2,
                                                     stop_above=0.4)[0][0])
            for eps in cfg.epsilon_list:
                hits = sum(d <= eps for d in dists)
                lo, hi = wilson_interval(hits, cfg.samples)
                assert next(rows) == ReportRow(
                    family=cfg.family, alpha=1, k=1, m=1, N=N, epsilon=eps,
                    samples=cfg.samples, hits=hits, fraction=hits / cfg.samples, ci_low=lo,
                    ci_high=hi, median_dist=float(np.median(dists)),
                    mean_dist=float(np.mean(dists)), seed=cfg.seed, runtime_s=0.0)

    @pytest.mark.parametrize("alpha,k,m,N_list,g_spec,h_spec", [
        (1, 1, 2, (1, 3, 10**6), "(1 2 3)", "(1 3)"),
        (0, 2, 1, (2, 5, 10**6), "random_unitary", "random_unitary"),
        (2, 1, 2, (1, 4, 128), "random_unitary", "(1 2)(3 4)"),
        (1, 3, 1, (3, 7, 10**6), "random_unitary", "(1 4)(2 3)"),
        (0, 1, 2, (1, 2, 10**6), "(1 2)", "random_unitary"),
        (2, 2, 2, (2, 9, 10**6), "random_unitary", "random_unitary"),
        (1, 3, 1, (3, 10**12), "random_unitary", "random_unitary"),
        # tail sizes at the int64 bound and beyond 64 bits
        (1, 3, 1, (2**63 - 4, 10**30), "random_unitary", "random_unitary"),
        # patterns whose digits base 2k + 1 would not fit in 64 bits
        (1, 16, 1, (16, 40), "random_unitary", "random_unitary"),
    ])
    def test_symmetric_report_matches_per_sample_loop(self, alpha, k, m, N_list, g_spec, h_spec):
        self._symmetric_against_loop(alpha, k, m, N_list, g_spec, h_spec, seed=8)

    def test_symmetric_report_matches_per_sample_loop_at_seed_2_128(self):
        self._symmetric_against_loop(1, 2, 2, (2, 10**6), "random_unitary", "(1 2)", seed=2**128)

    @staticmethod
    def _symmetric_against_loop(alpha, k, m, N_list, g_spec, h_spec, seed):
        # every sample built at its own tail size and tested on its own; the
        # 300 samples cross a chunk edge
        cfg = _cfg(alpha=alpha, k=k, m=m, N_list=N_list, epsilon_list=(0.4, 0.1), samples=300,
                   seed=seed, g_spec=g_spec, h_spec=h_spec)
        window = alpha + m * k
        setup = RandomStream(cfg.seed, 0).generator()
        g, h = (BlockMatrix.from_permutation(uniform_permutation(window, setup))
                if src == "random_unitary" else load_source(src, window)
                for src in (g_spec, h_spec))
        target = circ_N(g, h, GroupFamily(cfg.family, BlockSpec(alpha, k, k, m)))
        rows = iter(zeroed_runtime(run_concentration(cfg)).rows)
        for N in cfg.N_list:
            fam = GroupFamily(cfg.family, BlockSpec(alpha, k, N, m))
            def draw(gen, count):
                return _patterns_at(k, N, _pattern_draw(k, gen, count))

            dists = [0.0 if sym_membership(sample_core(g, h, fam, _sample_row(cfg.seed, i, draw)),
                                           target) else 1.0 for i in range(cfg.samples)]
            for eps in cfg.epsilon_list:
                hits = dists.count(0.0)
                lo, hi = wilson_interval(hits, cfg.samples)
                assert next(rows) == ReportRow(
                    family=cfg.family, alpha=alpha, k=k, m=m, N=N, epsilon=eps,
                    samples=cfg.samples, hits=hits, fraction=hits / cfg.samples, ci_low=lo,
                    ci_high=hi, median_dist=float(np.median(dists)),
                    mean_dist=float(np.mean(dists)), seed=cfg.seed, runtime_s=0.0)

    # each case with the solvers' step cap (the symmetric sweep runs no solver)
    LAYOUT_CASES = [
        pytest.param(dict(family="symmetric", k=2, m=2, N_list=(2, 10**12),
                          g_spec="random_unitary", h_spec="random_unitary"), 200, id="symmetric"),
        pytest.param(dict(family="unitary_orthogonal", k=1, N_list=(8, 10**9),
                          g_spec="random_unitary", h_spec="random_unitary"), 20,
                     id="unitary_orthogonal"),
        pytest.param(dict(family="unitary_conjugation", k=1, N_list=(8,),
                          g_spec="random_unitary", h_spec="random_unitary"), 5,
                     id="unitary_conjugation"),
    ]

    @pytest.mark.parametrize("case,steps", LAYOUT_CASES)
    def test_sample_distances_do_not_depend_on_sample_count(self, monkeypatch, case, steps):
        # sample i's distance depends only on (seed, i, N): shorter sweeps,
        # inside the first chunk and across its edge, are prefixes of one
        # that crosses two chunk edges
        monkeypatch.setattr(geometry, "_MAX_ITERS", steps)

        def distances(samples):
            cfg = _cfg(**case, epsilon_list=(0.4,), samples=samples, seed=13)
            return {N: dists.tolist() for N, dists, _ in experiments._sweep_distances(cfg)}

        longest = distances(600)
        for samples in (1, 100, 300):
            assert distances(samples) == {N: d[:samples] for N, d in longest.items()}

    @pytest.mark.parametrize("case,steps", LAYOUT_CASES[1:])
    def test_report_does_not_depend_on_block_budget(self, monkeypatch, case, steps):
        # solver blocks of 1 sample, of 100 (crossing chunk edges) and the
        # default 658 or 2663
        monkeypatch.setattr(geometry, "_MAX_ITERS", steps)
        cfg = _cfg(**case, epsilon_list=(0.4,), samples=300, seed=13)
        want = zeroed_runtime(run_concentration(cfg))
        lane_bytes = 2048 + 480 * 9 if case["family"] == "unitary_conjugation" else 175 * 9
        for per in (1, 100):
            monkeypatch.setattr(experiments, "_BLOCK_BYTES", per * lane_bytes)
            assert zeroed_runtime(run_concentration(cfg)) == want

    @pytest.mark.parametrize("family,samples,sizes", [
        ("unitary_orthogonal", 1000, [2663, 337]), ("unitary_conjugation", 300, [658, 242])])
    def test_multi_N_sweep_equals_single_N_sweeps(self, monkeypatch, family, samples, sizes):
        # solver blocks fill in N order, so the first block holds every sample
        # of N=8 and N=64 and the first of N=10^6; each N's rows still equal
        # its own sweep's, as every N reuses the same streams
        seen = []
        name = {"unitary_orthogonal": "dist_double_coset_stack",
                "unitary_conjugation": "dist_conjugacy_stack"}[family]
        monkeypatch.setattr(geometry, "_MAX_ITERS", 20)
        real = getattr(experiments, name)

        def spy(xs, *args, **kwargs):
            seen.append(len(xs))
            return real(xs, *args, **kwargs)

        monkeypatch.setattr(experiments, name, spy)
        kwargs = dict(family=family, epsilon_list=(0.2, 0.4), samples=samples, seed=11,
                      g_spec="random_unitary", h_spec="random_unitary")
        def rows(N_list):
            return zeroed_runtime(run_concentration(_cfg(**kwargs, N_list=N_list))).rows

        swept = rows((8, 64, 10**6))
        assert seen == sizes
        assert swept == rows((8,)) + rows((64,)) + rows((10**6,))

    @pytest.mark.parametrize("family,N_list,spec,lanes", [
        # one solver block holds the 600 samples of both N, so each N's runtime
        # takes its share of the block's solve time
        pytest.param("unitary_orthogonal", (8, 64), "random_unitary", None, id="orthogonal"),
        pytest.param("unitary_conjugation", (8, 64), "random_unitary", None, id="conjugation"),
        # blocks of 7 samples: one holds the last 6 of N=8 and the first of
        # N=64, and the last holds the 5 samples left
        pytest.param("unitary_orthogonal", (8, 64), "random_unitary", 7, id="orthogonal_7"),
        pytest.param("symmetric", (3, 128), "(1 2)", None, id="symmetric")])
    def test_runtime_is_each_N_share_of_the_wall_time(self, monkeypatch, family, N_list, spec,
                                                      lanes):
        if lanes is not None:
            monkeypatch.setattr(experiments, "_BLOCK_BYTES", lanes * 175 * 9)
        cfg = _cfg(family=family, N_list=N_list, epsilon_list=(0.2, 0.4, 0.8), samples=300,
                   seed=5, g_spec=spec, h_spec=spec)
        start = time.perf_counter()
        report = run_concentration(cfg)
        wall = time.perf_counter() - start
        per_N = {}
        for row in report.rows:
            assert math.isfinite(row.runtime_s) and row.runtime_s > 0
            assert per_N.setdefault(row.N, row.runtime_s) == row.runtime_s
        assert list(per_N) == list(N_list)
        assert sum(per_N.values()) <= wall

    @pytest.mark.parametrize("k,samples,N_list", [
        (1, 400, tuple(range(1, 11))), (2, 500, (2, 3, 5, 8, 10**6)), (3, 60, (3, 4, 10**6))])
    def test_symmetric_sweep_tests_each_core_pattern_once(self, monkeypatch, k, samples, N_list):
        # a core is fixed by which active images lie above k and where, so a
        # sweep tests at most falling(2k, k) cores, however many N it has
        calls = []
        real = experiments.sym_membership

        def counted(x, target):
            calls.append(x)
            return real(x, target)

        monkeypatch.setattr(experiments, "sym_membership", counted)
        cfg = _cfg(k=k, m=2, N_list=N_list, samples=samples, seed=4, g_spec="random_unitary",
                   h_spec="random_unitary")
        run_concentration(cfg)
        assert 0 < len(calls) <= min(samples, math.perm(2 * k, k))

    STREAM_CASES = [
        # only the tail thresholds of a core pattern depend on N, so a
        # symmetric sweep opens each chunk's stream once for its whole N list,
        # after the setup stream 0
        pytest.param(dict(family="symmetric", k=2, m=2, N_list=(2, 5, 10**6, 10**30)),
                     [0, 1, 2, 3], id="symmetric"),
        # a unitary sweep runs N by N, each N drawing every chunk again
        pytest.param(dict(family="unitary_orthogonal", N_list=(8, 64)),
                     [0, 1, 2, 3, 1, 2, 3], id="orthogonal"),
        pytest.param(dict(family="unitary_conjugation", N_list=(8, 10**6)),
                     [0, 1, 2, 3, 1, 2, 3], id="conjugation"),
        # block decay has no setup draw
        pytest.param(None, [1, 2, 3, 1, 2, 3], id="block_decay"),
    ]

    @pytest.mark.parametrize("case,want", STREAM_CASES)
    def test_streams_opened_by_each_caller(self, monkeypatch, case, want):
        # 600 samples are 3 chunks, drawn from streams 1, 2 and 3
        streams = []
        real = RandomStream.generator

        def spy(stream):
            streams.append(stream.stream_index)
            return real(stream)

        monkeypatch.setattr(geometry, "_MAX_ITERS", 2)
        monkeypatch.setattr(RandomStream, "generator", spy)
        if case is None:
            run_block_decay(2, [4, 10**6], 600, 4)
        else:
            run_concentration(_cfg(**case, samples=600, seed=4, g_spec="random_unitary",
                                   h_spec="random_unitary"))
        assert streams == want

    def test_conjugation_stacks_stay_bounded(self, monkeypatch):
        # blocks of _BLOCK_BYTES // (2048 + 480 d^2) samples: 658 at d=3, 29 at d=17
        seen = []
        monkeypatch.setattr(geometry, "_MAX_ITERS", 2)
        real = experiments.dist_conjugacy_stack

        def spy(xs, *args, **kwargs):
            seen.append(len(xs))
            return real(xs, *args, **kwargs)

        monkeypatch.setattr(experiments, "dist_conjugacy_stack", spy)
        for k, samples, sizes in [(1, 2000, [658, 658, 658, 26]), (8, 2, [2])]:
            seen.clear()
            cfg = _cfg(family="unitary_conjugation", k=k, N_list=(k,), epsilon_list=(0.4,),
                       samples=samples, seed=2, g_spec="random_unitary",
                       h_spec="random_unitary")
            run_concentration(cfg)
            assert seen == sizes, k

    def test_symmetric_sweep_memory_per_sample(self):
        # the patterns are drawn a chunk of 256 samples at a time, so a sweep
        # holds its distances and little else per sample (drawn unchunked,
        # this sweep peaked at about 52 MB)
        samples = 200_000
        cfg = _cfg(k=1, m=2, N_list=(3,), epsilon_list=(0.4,), samples=samples, seed=3,
                   g_spec="(1 2 3)", h_spec="(1 3)")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_concentration(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 48 * samples + 2e6, f"peak {peak / 1e6:.1f} MB"

    def test_conjugation_block_memory(self, monkeypatch):
        # one block of six k=8 samples; each Sylvester map, about 3.6 MB, is
        # built one sample at a time, so only one is held at once
        monkeypatch.setattr(geometry, "_MAX_ITERS", 2)
        cfg = _cfg(family="unitary_conjugation", k=8, N_list=(8,), epsilon_list=(0.4,),
                   samples=6, seed=2, g_spec="random_unitary", h_spec="random_unitary")
        tracemalloc.start()
        try:
            run_concentration(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("family,k,samples,eps,N_list", [
        # at epsilon 0.4 the frame start decides most k = 1 conjugation samples
        # (the block then peaked at 0.21 budgets), at 1e-9 none
        ("unitary_conjugation", 1, 2000, 1e-9, (8,)), ("unitary_conjugation", 2, 400, 0.4, (8,)),
        ("unitary_orthogonal", 1, 3000, 0.4, (8,)), ("unitary_orthogonal", 2, 1200, 0.4, (8,)),
        ("unitary_orthogonal", 4, 600, 0.4, (8,)),
        # every lane, or (k=8) nearly every lane, runs the Gram starts
        ("unitary_orthogonal", 1, 3000, 1e-9, (8,)), ("unitary_orthogonal", 8, 200, 0.4, (8,)),
        # the first block holds 2000 samples at N=8 and 663 at N=64
        ("unitary_orthogonal", 1, 2000, 1e-9, (8, 64))])
    def test_full_block_stays_near_budget(self, monkeypatch, family, k, samples, eps, N_list):
        # more samples than one block holds (658 and 298; 2663, 958, 295 and
        # 82), so the first block is full; epsilon 2, above every unitary
        # distance, makes stop_above certify no miss, so every sample does
        # the work a block is sized for
        monkeypatch.setattr(geometry, "_MAX_ITERS", 2)
        kwargs = dict(family=family, k=k, N_list=N_list, epsilon_list=(eps, 2), seed=3,
                      g_spec="random_unitary", h_spec="random_unitary")
        # a first sweep pays its lazy imports and caches outside the trace, so
        # the peak is the block's whichever test runs first
        run_concentration(_cfg(**kwargs, samples=1))
        tracemalloc.start()
        try:
            run_concentration(_cfg(**kwargs, samples=samples))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = experiments._BLOCK_BYTES
        assert 0.5 * budget < peak < 1.15 * budget, f"peak {peak / budget:.3f} budgets"

    @pytest.mark.parametrize("run", [
        lambda: run_concentration(_cfg(
            family="unitary_orthogonal", N_list=(10**5,), epsilon_list=(0.4,), samples=64,
            seed=3, g_spec="random_unitary", h_spec="random_unitary")),
        lambda: run_block_decay(2, [10**5], 30, 4),
    ], ids=["orthogonal_sweep", "block_decay"])
    def test_long_tail_draws_stay_near_budget(self, monkeypatch, run):
        # one draw's Gaussians are 0.8 MB (k=1) or 1.6 MB (k=2) at N = 10^5, so
        # 64 or 30 draws as one stack would hold about 50 MB of Gaussians alone
        monkeypatch.setattr(geometry, "_MAX_ITERS", 2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        budget = experiments._BLOCK_BYTES
        assert peak < 2 * budget, f"peak {peak / budget:.3f} budgets"

    def test_block_decay_memory_per_sample(self):
        # each chunk's blocks are reduced to their norms as it is drawn, so the
        # run holds one chunk's draws and the norms (drawn as one stack, this
        # run peaked at about 42 MB, 2100 bytes per sample)
        samples = 20_000
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_block_decay(6, [10**9], samples, 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 64 * samples + 4e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("k,m,samples,N_list,sizes", [
        (1, 1, 100, (1,), [100]), (8, 2, 50, (8,), [22, 22, 6]),
        # blocks fill across tail sizes: the third holds 6 samples of N=8 and 16 of N=9
        (8, 2, 50, (8, 9), [22, 22, 22, 22, 12])])
    def test_orthogonal_stacks_sized_by_core_dimension(self, monkeypatch, k, m, samples, N_list,
                                                        sizes):
        # blocks of _BLOCK_BYTES // (175 d^2) samples: d=3 fits a sweep, d=33 does not
        seen = []
        monkeypatch.setattr(geometry, "_MAX_ITERS", 2)
        real = experiments.dist_double_coset_stack

        def spy(xs, *args, **kwargs):
            seen.append(len(xs))
            return real(xs, *args, **kwargs)

        monkeypatch.setattr(experiments, "dist_double_coset_stack", spy)
        cfg = _cfg(family="unitary_orthogonal", k=k, m=m, N_list=N_list, epsilon_list=(0.4,),
                   samples=samples, seed=2, g_spec="random_unitary", h_spec="random_unitary")
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


# The 15-config comparison's rows (``comparison_table``): per family and
# (alpha, k), for seeds 1-3, the hits of 150 samples at (N, epsilon) = (8, 0.2),
# (8, 0.4), (64, 0.2) and (64, 0.4), and (median_dist, mean_dist) at N = 8 and
# 64.  Solver changes are gated on these rows: a change that moves one re-pins
# the table with ``python tests/comparison_table.py`` and lists each move.
COMPARISON_ROWS = {
    "unitary_orthogonal": {
        (1, 1): (
            ([92, 142, 149, 150],
             [(0.148685313989486, 0.178714659789572), (0.0540965984840701, 0.0628630304492323)]),
            ([92, 138, 149, 150],
             [(0.159568546472302, 0.182090294848973), (0.0570605029532424, 0.0640164825102118)]),
            ([138, 150, 150, 150],
             [(0.0861704123609877, 0.0976994710531101), (0.0301545625583092, 0.0348247737714567)]),
        ),
        (0, 1): (
            ([137, 149, 150, 150],
             [(0.0994973620371071, 0.102566488487906), (0.0349158132380481, 0.0402906683719292)]),
            ([150, 150, 150, 150],
             [(0.0120429814703023, 0.0214970702059695), (0.00191240442753004, 0.00314286170518572)]),
            ([150, 150, 150, 150],
             [(0.00572353550757992, 0.00954766651301791), (0.0013062373796181, 0.00183929647505948)]),
        ),
        (2, 1): (
            ([89, 142, 149, 150],
             [(0.157670680294396, 0.184752821052869), (0.055821182815481, 0.06508207975828)]),
            ([89, 136, 149, 150],
             [(0.163622228049339, 0.186567330898282), (0.0587935915796367, 0.0654824675743944)]),
            ([85, 140, 148, 150],
             [(0.168225039111947, 0.192078950313336), (0.0637859521512177, 0.0725333051696254)]),
        ),
        (1, 2): (
            ([34, 114, 142, 150],
             [(0.293943193337946, 0.311196997770257), (0.109414960423945, 0.11493398199742)]),
            ([19, 86, 123, 150],
             [(0.37105713064298, 0.399354439838453), (0.136678702943897, 0.145920331591291)]),
            ([13, 72, 113, 150],
             [(0.415728874235247, 0.423125683857044), (0.150865266127354, 0.154458466815298)]),
        ),
        (0, 2): (
            ([58, 124, 150, 150],
             [(0.233635688864639, 0.270389748601477), (0.11038458701672, 0.109647479243)]),
            ([126, 150, 150, 150],
             [(0.144464967046261, 0.158735929328086), (0.0863787363662559, 0.0858664096311408)]),
            ([138, 150, 150, 150],
             [(0.118603999090112, 0.125331277672639), (0.0720748181386936, 0.0748591321215854)]),
        ),
    },
    "unitary_conjugation": {
        (1, 1): (
            ([103, 148, 150, 150],
             [(0.178604341433829, 0.188771895826565), (0.0810685968880065, 0.0907790592375868)]),
            ([99, 148, 149, 150],
             [(0.183259593426212, 0.183688217125466), (0.0726907324599193, 0.0744571803906018)]),
            ([147, 150, 150, 150],
             [(0.120087130005807, 0.115622931993389), (0.0418100736677806, 0.0430265636180683)]),
        ),
        (0, 1): (
            ([57, 102, 148, 150],
             [(0.258353226111176, 0.319788613727835), (0.117192451748643, 0.118305723093021)]),
            ([80, 127, 149, 150],
             [(0.182363763289538, 0.229373841725703), (0.0732702650326743, 0.0871443460755931)]),
            ([150, 150, 150, 150],
             [(0.0278001196558684, 0.0274857297645324), (0.00976817655736895, 0.0100419144583858)]),
        ),
        (2, 1): (
            ([88, 147, 150, 150],
             [(0.191703370577925, 0.197347036569348), (0.0691489447185117, 0.0779250042320598)]),
            ([74, 142, 149, 150],
             [(0.201420279496611, 0.222415629664277), (0.088404420321577, 0.0902465345349398)]),
            ([42, 121, 144, 150],
             [(0.280874797010255, 0.288975823009271), (0.124570339566446, 0.123664188246223)]),
        ),
        (1, 2): (
            ([8, 56, 90, 149],
             [(0.484299992166075, 0.590386610948177), (0.190217477672732, 0.202238114924454)]),
            ([2, 33, 63, 141],
             [(0.667790440716686, 0.693634007558369), (0.211222738780752, 0.237627012752521)]),
            ([4, 73, 112, 150],
             [(0.410920957243843, 0.502608713880291), (0.172749952929727, 0.179482734369963)]),
        ),
        (0, 2): (
            ([80, 137, 150, 150],
             [(0.185121308875251, 0.202359555758339), (0.0353688196013267, 0.0522917082360625)]),
            ([82, 127, 150, 150],
             [(0.17848974048674, 0.219992811222075), (0.0424273915287757, 0.0602655736354481)]),
            ([134, 149, 150, 150],
             [(0.0921116771227828, 0.108403559425093), (0.0728791140519435, 0.09006119872055)]),
        ),
    },
}


@pytest.mark.parametrize("family", comparison_table.FAMILIES)
@pytest.mark.parametrize("alpha,k", comparison_table.SHAPES)
def test_comparison_hits_pinned(monkeypatch, family, alpha, k):
    # every row, and the radius check (``testkit.radius_checked``)
    inside = 0
    for seed, (hits, dists) in zip(comparison_table.SEEDS, COMPARISON_ROWS[family][alpha, k]):
        cfg = comparison_table.config(family, alpha, k, seed)
        report, count = radius_checked(monkeypatch, cfg)
        rows = report.rows
        assert [row.hits for row in rows] == hits, seed
        assert [(row.median_dist, row.mean_dist) for row in rows] == [
            pytest.approx(pair, rel=1e-12) for pair in dists for _ in cfg.epsilon_list], seed
        inside += count
    assert inside


# The benchmark's unitary sweep shapes (``perfbench/workloads.py``), copied:
# name, family, N list and samples; each at alpha = k = m = 1, epsilon 0.4.
BENCH_SWEEPS = [
    ("orth_small", "unitary_orthogonal", (8,), 100),
    ("orth_large", "unitary_orthogonal", (32, 128, 256), 2),
    ("conj_small", "unitary_conjugation", (8,), 70),
    ("conj_mid", "unitary_conjugation", (24,), 1),
    ("conj_large", "unitary_conjugation", (64,), 6),
]


@pytest.mark.parametrize("family,N_list,samples", [s[1:] for s in BENCH_SWEEPS],
                         ids=[s[0] for s in BENCH_SWEEPS])
def test_bench_sweeps_inside_the_radius_are_hits(monkeypatch, tmp_path, family, N_list,
                                                 samples):
    # the radius check (``testkit.radius_checked``) on the benchmark's sweeps
    # at 10 seeds, with its fixed g and h: criterion 3's pair, two Haar draws
    # of U(2) from stream 0 of seed 42, read back from matrix JSON
    gen = RandomStream(42, 0).generator()
    g_spec, h_spec = (tmp_path / "g.json", tmp_path / "h.json")
    for path in (g_spec, h_spec):
        path.write_text(json.dumps(BlockMatrix(haar_unitary(2, gen)).to_json_dict()))
    inside = 0
    for seed in range(1, 11):
        cfg = ExperimentConfig(family=family, alpha=1, k=1, m=1, N_list=N_list,
                               epsilon_list=(0.4,), samples=samples, seed=seed,
                               g_spec=str(g_spec), h_spec=str(h_spec))
        inside += radius_checked(monkeypatch, cfg)[1]
    assert inside


class TestReports:
    def test_csv_header_and_width(self):
        header = ("family,alpha,k,m,N,epsilon,samples,hits,fraction,ci_low,ci_high,"
                  "median_dist,mean_dist,seed,runtime_s\n")
        assert len(CSV_COLUMNS) == 15
        assert ConcentrationReport().to_csv_text() == ",".join(CSV_COLUMNS) + "\n" == header

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

    @pytest.mark.parametrize("fmt", ["CSV", "xml", ""])
    def test_write_report_rejects_unknown_formats(self, capsys, fmt):
        report = run_concentration(_cfg(samples=5, seed=4))
        with pytest.raises(ValueError, match=f"^unknown report format {fmt!r}"):
            write_report(report, None, fmt)
        assert capsys.readouterr().out == ""

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
        assert md == pytest.approx(0.5543664067475917, rel=1e-12)
        assert mn == pytest.approx(0.5594329429632107, rel=1e-12)
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

    def test_far_tail_median_keeps_its_digits(self):
        # sqrt(N) times the median norm holds to 1e-9 from N = 10^24 to 10^300:
        # for N > k A is Z1 R^-1, while the Householder Q read was 6% off at
        # 10^30 and gave 0 from 10^60
        N_list = [10**24, 10**30, 10**60, 10**100, 10**200, 10**300]
        scaled = [math.sqrt(N) * md for N, md, _ in run_block_decay(1, N_list, 600, 3)]
        assert max(scaled) - min(scaled) <= 1e-9 * min(scaled), scaled

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            run_block_decay(1, [4], samples=10, seed=0)

    @pytest.mark.parametrize("samples", [30.5, "40", True, 40.0])
    def test_non_integer_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="integer samples >= 30"):
            run_block_decay(2, [20], samples, 1)

    @pytest.mark.parametrize("k,N_list,message", [
        (0, [4], "k must be an integer >= 1; got 0"),
        (1.5, [4], "k must be an integer >= 1; got 1.5"),
        (1, [4, 2.5], r"every N must be an integer; got \[4, 2.5\]"),
        (1, [4, -1], "every N must be >= 0; got N=-1"),
        (1, [True, 2], r"every N must be an integer; got \[True, 2\]"),
        (1, ["5"], r"every N must be an integer; got \['5'\]"),
    ])
    def test_bad_sizes_rejected(self, k, N_list, message):
        with pytest.raises(ValueError, match=message):
            run_block_decay(k, N_list, 30, 0)

    def test_deterministic_in_seed(self):
        assert run_block_decay(1, [4], 30, 9) == run_block_decay(1, [4], 30, 9)

    def test_multi_N_call_equals_single_N_calls(self):
        # every N reuses the same chunk streams, so each row of a call over
        # several N (600 samples, 3 chunks) is, bit for bit, its own call's
        N_list = [0, 3, 40, 10**9]
        rows = run_block_decay(2, N_list, 600, 8)
        assert [N for N, _, _ in rows] == N_list
        for row, N in zip(rows, N_list):
            (want,) = run_block_decay(2, [N], 600, 8)
            assert [v.hex() for v in row[1:]] == [v.hex() for v in want[1:]]
