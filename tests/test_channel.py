import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import risjam
from risjam import channel
from risjam.channel import (
    BadParams,
    ChannelSet,
    RwpParams,
    nakagami_fading,
    path_loss_linear,
    rwp_distance_grid,
    rwp_distance_pdf,
    rwp_nakagami_cdf,
    rwp_nakagami_pdf,
    sample_rwp_distance,
    sample_static_channels,
    sample_uncertain_realization,
    ue_radius_range,
    _links,
)
from risjam.system import adversary_interference

from oracles import adversary_interference_loops, uncertain_draw_loops

PAPER_B = (735.0 / 72.0, -1190.0 / 72.0, 455.0 / 72.0)
PAPER_UPS = (1.0, 3.0, 5.0)


def paper_rwp(**kw):
    args = dict(b_coeffs=np.array(PAPER_B), upsilon=np.array(PAPER_UPS),
                m_nakagami=1.0, alpha=2.75, d_lower=130.0, d_upper=170.0,
                p_t=1.0, n_f=8)
    args.update(kw)
    return RwpParams(**args)


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss_linear(1.0, 2.75, 30.0) == pytest.approx(1e-3)
        assert path_loss_linear(1.0, 4.0, 30.0) == pytest.approx(1e-3)

    def test_decade(self):
        assert path_loss_linear(10.0, 2.0, 30.0) == pytest.approx(1e-5)

    def test_scalar_recompute(self):
        # independent dB arithmetic: PL = 30 + 10*2.75*log10(37.4)
        d, alpha, z0 = 37.4, 2.75, 30.0
        pl_db = z0 + 10.0 * alpha * np.log10(d)
        assert path_loss_linear(d, alpha, z0) == pytest.approx(10 ** (-pl_db / 10.0), rel=1e-12)

    def test_monotone(self):
        vals_d = [path_loss_linear(d, 2.5, 30.0) for d in (1.0, 2.0, 5.0, 50.0)]
        assert all(a > b for a, b in zip(vals_d, vals_d[1:]))
        vals_a = [path_loss_linear(20.0, a, 30.0) for a in (2.0, 2.5, 3.0)]
        assert all(a > b for a, b in zip(vals_a, vals_a[1:]))

    def test_arrays_of_distances(self):
        # entry by entry as the scalar law
        d = np.array([[1.0, 10.0], [37.4, 150.0]])
        want = [[path_loss_linear(float(x), 2.0, 30.0) for x in row] for row in d]
        np.testing.assert_allclose(path_loss_linear(d, 2.0, 30.0), want, rtol=1e-14)


class TestRwpParams:
    def test_rejects_bad_range(self):
        with pytest.raises(BadParams):
            paper_rwp(d_lower=50.0, d_upper=10.0)

    def test_rejects_small_shape(self):
        with pytest.raises(BadParams):
            paper_rwp(m_nakagami=0.2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(BadParams):
            paper_rwp(b_coeffs=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("kw", [{"alpha": 0.0}, {"p_t": -1.0}, {"n_f": 0}])
    def test_rejects_nonpositive_scales(self, kw):
        with pytest.raises(BadParams, match="alpha, p_t must be positive and n_f >= 1"):
            paper_rwp(**kw)


class TestRwpNakagamiPdf:
    def _normalization(self, p):
        # the support spans (d_upper/d_lower)^alpha decades: adaptive
        # quadrature over log-spaced segments plus an open tail
        scale_hi = p.n_f * p.p_t / p.m_nakagami * p.d_lower ** (-p.alpha)
        scale_lo = p.n_f * p.p_t / p.m_nakagami * p.d_upper ** (-p.alpha)
        edges = np.concatenate([[0.0], np.geomspace(1e-4 * scale_lo, 30.0 * scale_hi, 40)])

        def f(x):
            return rwp_nakagami_pdf(x, p)

        total = sum(integrate.quad(f, lo, hi, limit=200)[0]
                    for lo, hi in zip(edges[:-1], edges[1:]))
        total += integrate.quad(f, edges[-1], np.inf, limit=200)[0]
        return total

    def test_normalization_paper_set(self):
        assert self._normalization(paper_rwp()) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("d_lo", [1.0, 10.0])
    @pytest.mark.parametrize("d_hi", [50.0, 170.0])
    @pytest.mark.parametrize("alpha", [2.0, 2.75])
    @pytest.mark.parametrize("m_n", [1.0, 2.0])
    def test_normalization_grid(self, d_lo, d_hi, alpha, m_n):
        p = paper_rwp(d_lower=d_lo, d_upper=d_hi, alpha=alpha, m_nakagami=m_n, n_f=4)
        assert self._normalization(p) == pytest.approx(1.0, abs=1e-3)

    def test_tail_decay(self):
        p = paper_rwp()
        scale = p.n_f * p.p_t * p.d_lower ** (-p.alpha)
        xs = scale * np.logspace(0.5, 3.0, 30)
        vals = rwp_nakagami_pdf(xs, p)
        assert np.all(np.diff(vals) <= 0)
        pos = vals > 0
        assert np.all(np.diff(vals[pos]) < 0)  # strictly decreasing until underflow
        assert vals[-1] < 1e-12 * vals[0]

    def test_rejects_nonpositive(self):
        with pytest.raises(BadParams):
            rwp_nakagami_pdf(0.0, paper_rwp())

    def test_ks_against_monte_carlo(self):
        # sampling oracle: RWP distance by inverse CDF, then Gamma power
        p = paper_rwp()
        rng = np.random.default_rng(123)
        n = 200_000
        r = sample_rwp_distance(rng, n, p.b_coeffs, p.upsilon, p.d_lower, p.d_upper)
        x = rng.gamma(p.n_f * p.m_nakagami, 1.0, size=n) * (p.p_t / p.m_nakagami) * r ** (-p.alpha)
        x = np.sort(x)
        grid = np.logspace(np.log10(x[0]) - 0.05, np.log10(x[-1]) + 0.05, 4000)
        cdf_grid = rwp_nakagami_cdf(grid, p)
        cdf = np.interp(x, grid, cdf_grid)
        emp = np.arange(1, n + 1) / n
        ks = np.max(np.abs(cdf - emp))
        assert ks < 0.01

    def test_pdf_integrates_to_cdf(self):
        # closed-form PDF route vs quadrature CDF route
        p = paper_rwp(m_nakagami=2.0, alpha=2.2, d_lower=40.0, d_upper=90.0, n_f=4)
        x1 = 4.0 * p.p_t * p.n_f * p.d_upper ** (-p.alpha)
        val, _ = integrate.quad(lambda x: rwp_nakagami_pdf(x, p), 1e-12, x1, limit=300)
        assert val == pytest.approx(rwp_nakagami_cdf(x1, p), abs=2e-6)


class TestRwpDistance:
    def test_density_normalized(self):
        p = paper_rwp()
        r = np.linspace(p.d_lower, p.d_upper, 20001)
        dens = rwp_distance_pdf(r, p)
        assert np.trapezoid(dens, r) == pytest.approx(1.0, abs=1e-6)
        assert np.all(dens >= 0)

    def test_sampler_matches_density(self):
        rng = np.random.default_rng(5)
        p = paper_rwp()
        draws = sample_rwp_distance(rng, 100_000, p.b_coeffs, p.upsilon, p.d_lower, p.d_upper)
        hist, edges = np.histogram(draws, bins=60, range=(p.d_lower, p.d_upper), density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        np.testing.assert_allclose(hist, rwp_distance_pdf(centers, p), atol=0.012)

    def test_cached_grid_synthesis_equals_a_fresh_grid(self):
        # the inverse-CDF grid is built once per polynomial and range: a
        # synthesis from the cached grid equals the one that built it, and
        # the distances equal an inversion on a grid built here
        cfg = risjam.paper_profile()
        channel._rwp_inverse_cdf.cache_clear()
        fresh = sample_static_channels(cfg, np.random.default_rng(3))
        cached = sample_static_channels(cfg, np.random.default_rng(3))
        assert channel._rwp_inverse_cdf.cache_info().hits == 1
        for f in fields(ChannelSet):
            np.testing.assert_array_equal(getattr(cached, f.name), getattr(fresh, f.name))
        span = ue_radius_range(cfg.ue_radius)
        grid, anti = rwp_distance_grid(cfg.rwp_b, cfg.rwp_upsilon, *span)
        want = np.interp(np.random.default_rng(4).random(50), anti / anti[-1], grid)
        got = sample_rwp_distance(np.random.default_rng(4), 50, cfg.rwp_b, cfg.rwp_upsilon, *span)
        np.testing.assert_array_equal(got, want)


class TestFading:
    def test_rayleigh_degeneracy(self):
        # m = 1: |h|^2 exponential with unit mean
        rng = np.random.default_rng(9)
        h = nakagami_fading(rng, (100_000,), m=1.0)
        power = np.abs(h) ** 2
        res = stats.kstest(power, "expon")
        assert res.statistic < 0.01

    def test_unit_mean_power_general_m(self):
        rng = np.random.default_rng(10)
        h = nakagami_fading(rng, (200_000,), m=2.5)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_link_budget(self):
        # mean received power over 1e4 links of one family at a common
        # distance matches the path-loss prediction
        rng = np.random.default_rng(11)
        n_f, d, alpha, z0 = 8, 150.0, 2.75, 30.0
        gain = path_loss_linear(d, alpha, z0)
        ends = np.zeros((10_000, 3))
        ends[:, 0] = d
        links = _links(rng, np.zeros(3), ends, (n_f,), alpha, z0, 1.0)
        assert links.shape == (10_000, n_f)
        draws = np.sum(np.abs(links) ** 2, axis=1)
        assert draws.mean() == pytest.approx(n_f * gain, rel=0.03)

    def test_family_takes_each_pair_distance(self):
        # a (2, 3) family of pairs at different distances: each link's mean
        # power over its entries follows its own pair's path loss
        rng = np.random.default_rng(12)
        starts = np.array([[0.0, 0.0, 0.0], [0.0, 5.0, 0.0]])[:, None]
        ends = np.array([[20.0, 0.0, 0.0], [0.0, 60.0, 0.0], [30.0, 40.0, 0.0]])
        links = _links(rng, starts, ends, (20_000,), 2.5, 0.0, 2.0)
        assert links.shape == (2, 3, 20_000)
        gain = path_loss_linear(np.linalg.norm(starts - ends, axis=-1), 2.5, 0.0)
        np.testing.assert_allclose(np.mean(np.abs(links) ** 2, axis=-1), gain, rtol=0.03)


class TestChannelSet:
    def test_paper_dimensions(self):
        cfg = risjam.paper_profile()
        cs = sample_static_channels(cfg, np.random.default_rng(0))
        assert cs.g_br.shape == (25, 8)
        assert cs.h_bu.shape == (4, 8)
        assert cs.h_ru.shape == (4, 25)
        assert cs.h_ju_est.shape == (3, 4, 8)
        assert cs.g_jr_est.shape == (3, 25, 8)
        assert cs.h_iu_est.shape == (4, 4, 8)
        assert cs.z_jam.shape == (3, 4, 8)
        assert cs.z_int.shape == (4, 4, 8)

    def test_entries_finite_nonzero(self):
        cfg = risjam.desk_profile()
        cs = sample_static_channels(cfg, np.random.default_rng(1))
        for arr in (cs.g_br, cs.h_bu, cs.h_ru, cs.h_ju_est, cs.g_jr_est, cs.h_iu_est):
            assert np.all(np.isfinite(arr))
            assert np.all(arr != 0)

    def test_ue_positions_inside_disc(self):
        cfg = risjam.paper_profile()
        for seed in range(20):
            cs = sample_static_channels(cfg, np.random.default_rng(seed))
            d = np.linalg.norm(cs.ue_pos - np.asarray(cfg.ue_center), axis=1)
            assert np.all(d <= cfg.ue_radius + 1e-9)
            assert np.all(cs.ue_pos[:, 2] == 0.0)


class TestRealization:
    def test_zero_error_exact(self):
        # ideal CSI is one draw, the estimates, whatever count is asked, and
        # no normals are drawn
        cfg = risjam.desk_profile()
        cs = sample_static_channels(cfg, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        for count in (1, 4, 100):
            rlz = sample_uncertain_realization(cs, 0.0, rng, count)
            assert len(rlz) == 1
            for draw in rlz:
                np.testing.assert_array_equal(draw.h_ju, cs.h_ju_est)
                np.testing.assert_array_equal(draw.g_jr, cs.g_jr_est)
                np.testing.assert_array_equal(draw.h_iu, cs.h_iu_est)
            # the batch is read-only views of the estimates, not copies
            for link, est in ((rlz.h_ju, cs.h_ju_est), (rlz.g_jr, cs.g_jr_est), (rlz.bounce, None)):
                assert not link.flags.writeable
                assert est is None or np.shares_memory(link, est)
        assert rng.standard_normal() == np.random.default_rng(3).standard_normal()

    def test_error_variance_ratio(self):
        cfg = risjam.desk_profile()
        cs = sample_static_channels(cfg, np.random.default_rng(4))
        e_mse = 0.1
        rlz = sample_uncertain_realization(cs, e_mse, np.random.default_rng(5), 2000)
        est = cs.h_ju_est[0, 0]
        diffs = rlz.h_ju[:, 0, 0] - est  # 2000 x N_jam entries
        ratio = np.mean(np.abs(diffs) ** 2) / np.mean(np.abs(est) ** 2)
        assert ratio == pytest.approx(e_mse, rel=0.02)

    def test_jammer_power_budget(self):
        # 10 dBm per jammer
        cfg = risjam.paper_profile()
        cs = sample_static_channels(cfg, np.random.default_rng(6))
        rlz = sample_uncertain_realization(cs, 0.05, np.random.default_rng(7), 1)
        for q in range(cfg.q):
            total = np.sum(np.abs(rlz.z_j[q]) ** 2)
            assert total == pytest.approx(0.01, rel=1e-10)
        for b in range(cfg.b):
            assert np.sum(np.abs(rlz.z_i[b]) ** 2) == pytest.approx(0.01, rel=1e-10)

    def test_distinct_indices_independent_streams(self):
        cfg = risjam.desk_profile()
        cs = sample_static_channels(cfg, np.random.default_rng(8))
        ss = np.random.SeedSequence(99)
        r1 = sample_uncertain_realization(cs, 0.1, np.random.default_rng(ss.spawn(1)[0]), 1)
        r2 = sample_uncertain_realization(cs, 0.1, np.random.default_rng(ss.spawn(1)[0]), 1)
        assert not np.allclose(r1.h_ju, r2.h_ju)

    @pytest.mark.parametrize("e_mse", [0.0, 0.1])
    @pytest.mark.parametrize("counts", [{}, {"q": 0}, {"b": 0}, {"q": 0, "b": 0}])
    def test_one_draw_per_link_equals_per_block_draws(self, e_mse, counts):
        # a batch of R draws consumes the stream exactly as the loop oracle
        # does one scalar normal at a time, link by link, so every draw
        # stays bitwise reproducible and the generator ends in the same state
        cfg = risjam.paper_profile(e_mse=e_mse, **counts)
        for seed in range(4):
            cs = sample_static_channels(cfg, np.random.default_rng(seed))
            rng, ref_rng = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
            rlz = sample_uncertain_realization(cs, e_mse, rng, 3)
            count = 1 if e_mse == 0 else 3  # ideal CSI is one draw
            assert len(rlz) == count
            for got, want in zip((rlz.h_ju, rlz.g_jr, rlz.h_iu), uncertain_draw_loops(cs, e_mse, ref_rng, count)):
                assert got.shape == want.shape
                np.testing.assert_array_equal(got, want)
            assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("e_mse", [0.0, 0.1])
    @pytest.mark.parametrize("counts", [{}, {"q": 0}, {"b": 0}, {"m": 0}])
    def test_held_out_batch_terms_match_loops(self, e_mse, counts):
        # the held-out batch derives every draw's adversary terms as it is
        # drawn; they give the loops' adversary powers draw by draw
        cfg = risjam.paper_profile(e_mse=e_mse, **{k: v for k, v in counts.items() if k != "m"})
        cs = sample_static_channels(cfg, np.random.default_rng(11))
        if "m" in counts:  # no RIS elements (a config needs at least one)
            cs = cs.without_ris()
        q, k, m = cs.h_ju_est.shape[0], cs.n_users, cs.g_br.shape[0]
        rng = np.random.default_rng(12)
        batch = sample_uncertain_realization(cs, e_mse, rng, 20)
        count = 1 if e_mse == 0 else 20  # ideal CSI is one draw
        assert batch.direct.shape == (count, q, k)
        assert batch.interf.shape == (count, k)
        assert batch.bounce.shape == (count, q, m, k)
        theta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
        for th in (theta, np.zeros(0, complex)):
            for got, want in zip(adversary_interference(th, batch, cs),
                                 adversary_interference_loops(th, batch, cs.h_ru)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_batches_of_any_size_equal_the_link_loops(self):
        # empty, one-draw and larger batches, each against the loop oracle
        cfg = risjam.desk_profile()
        cs = sample_static_channels(cfg, np.random.default_rng(13))
        for count in (0, 1, 19):
            rng, ref_rng = np.random.default_rng(14), np.random.default_rng(14)
            batch = sample_uncertain_realization(cs, 0.1, rng, count)
            assert len(batch) == count and batch.bounce.shape[0] == count
            for got, want in zip((batch.h_ju, batch.g_jr, batch.h_iu),
                                 uncertain_draw_loops(cs, 0.1, ref_rng, count)):
                np.testing.assert_array_equal(got, want)
            assert rng.standard_normal() == ref_rng.standard_normal()

    def test_batch_indexing(self):
        # an index gives one draw in the per-draw shapes, a slice a batch of
        # views
        cfg = risjam.desk_profile()
        cs = sample_static_channels(cfg, np.random.default_rng(9))
        rlz = sample_uncertain_realization(cs, 0.1, np.random.default_rng(10), 5)
        assert rlz.h_ju.shape == (5,) + cs.h_ju_est.shape
        assert rlz.g_jr.shape == (5,) + cs.g_jr_est.shape
        assert rlz.h_iu.shape == (5,) + cs.h_iu_est.shape
        draws = list(rlz)
        assert len(draws) == 5
        for i, draw in enumerate(draws):
            np.testing.assert_array_equal(draw.h_ju, rlz.h_ju[i])
            assert draw.g_jr.shape == cs.g_jr_est.shape and draw.h_iu.shape == cs.h_iu_est.shape
            assert draw.z_j is cs.z_jam and draw.z_i is cs.z_int
        head = rlz[1:3]
        assert len(head) == 2 and np.shares_memory(head.h_ju, rlz.h_ju)
        np.testing.assert_array_equal(head[0].g_jr, rlz.g_jr[1])
        assert np.shares_memory(head.bounce, rlz.bounce)


TRIALS_THEN_DENSITY = """
import json, sys
import risjam.cli
from risjam import channel, desk_profile, harness, paper_profile
paper_profile()
cfg = desk_profile(r_max=3, heldout=5)
for scheme in harness.SCHEMES:
    harness.run_trial(cfg, scheme, 0)
loaded = "scipy.special" in sys.modules
pool = "concurrent.futures.process" in sys.modules
p = channel.RwpParams(b_coeffs={b}, upsilon={ups}, m_nakagami=1.0, alpha=2.75,
                      d_lower=130.0, d_upper=170.0, p_t=1.0, n_f=8)
print(json.dumps([loaded, pool, channel.rwp_nakagami_pdf(8.0 * 150.0 ** -2.75, p)]))
"""


IMPORT_THEN_TRIAL = """
import json, sys
import risjam.cli
from risjam import harness, paper_profile
paper_profile()
loaded = "numpy.random" in sys.modules
print(json.dumps([loaded, harness.run_trial(paper_profile(r_max=3, heldout=5), "no-ris", 0).rate_bits]))
"""


def fresh_interpreter(code):
    """The JSON that code prints in a fresh interpreter importing this
    checkout's risjam."""
    src = Path(__file__).resolve().parents[1] / "src"
    return json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                                     env={**os.environ, "PYTHONPATH": str(src)}).stdout)


def test_trials_load_no_scipy_special():
    # the trial path needs only numpy: scipy.special, which costs every
    # fresh interpreter (CLI run, pool worker) about 0.2 s and 17 MB, is
    # loaded only when the closed-form channel-power law is evaluated; nor
    # do serial trials load the process pool, which only --jobs > 1 uses
    code = TRIALS_THEN_DENSITY.format(b=list(PAPER_B), ups=list(PAPER_UPS))
    loaded, pool, density = fresh_interpreter(code)
    assert not loaded
    assert not pool
    assert np.isfinite(density) and density > 0.0


def test_import_loads_no_numpy_random():
    # the sampler's annotations name np.random.Generator without evaluating
    # it, so importing the CLI and building a profile leave numpy.random
    # (12-16 ms and about 6 MB of a fresh interpreter) to the first trial
    loaded, rate = fresh_interpreter(IMPORT_THEN_TRIAL)
    assert not loaded
    assert np.isfinite(rate) and rate > 0.0
