import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pearsonlab as pl
from pearsonlab import spectrum
from pearsonlab.cli import canonical_potential

from util import bump_potentials as _potentials, one_bump, two_bump


def found_potential():
    """Two strong bumps whose pieces the stream splits; at L = 140.07... the
    crossing with phase index 50 is sharper than the root tolerance."""
    return pl.PearsonPotential(
        pl.canonical_bump(), (14.032342551674837, 34.47522353704621),
        (19.993287930937694, 62.692019262229735), monotone_from=2,
    )


class TestPhase:
    def test_free_rotation_rate(self):
        V0 = pl.zero_potential()
        for xi in (0.25, 1.0, 3.7):
            for L in (1.0, 10.0, 250.0):
                adv = pl.phase(V0, xi, L) - pl.phase(V0, xi, 0.0)
                assert adv == pytest.approx(math.sqrt(xi) * L, rel=1e-14)

    def test_starts_at_half_pi(self):
        assert pl.phase(two_bump(), 1.0, 0.0) == 0.5 * math.pi

    def test_monotone_in_energy(self):
        V = one_bump(0.5, 10.0)
        L = 50.0
        grid = np.linspace(0.05, 4.0, 100)
        thetas = [pl.phase(V, float(x), L) for x in grid]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            pl.phase(two_bump(), 0.0, 10.0)

    def test_nondecreasing_down_to_tiny_energy(self):
        # the bracketing floor of eigenvalues_near is 1e-14; the angle must
        # keep its branch there, where sqrt(xi) is tiny against the bump
        V = one_bump(0.5, 10.0)
        grid = np.geomspace(1e-12, 10.0, 200)
        thetas = [pl.phase(V, float(x), 50.0) for x in grid]
        assert all(b >= a for a, b in zip(thetas, thetas[1:]))

    @pytest.mark.parametrize("V, L, xi", [
        *(pytest.param(canonical_potential().build(), 1e4, xi, id=f"canonical-{xi}")
          for xi in (0.3, 1.0, 1.7)),
        *(pytest.param(found_potential(), 140.07244424291022, xi, id=f"split-{xi}")
          for xi in (0.5, 1.3, 2.9)),
    ])
    def test_walk_pair_is_the_neumann_pair(self, V, L, xi):
        # the search reads cos theta off the same pair as neumann_solution
        s = pl.neumann_solution(V, xi, L)
        cos_theta = spectrum._phase_walk(V, xi, L, 512)[2]
        assert cos_theta == s.du / math.sqrt(xi * s.u * s.u + s.du * s.du)

    def test_continuity_across_bump_edge(self):
        V = one_bump(0.5, 10.0)
        xi = 1.3
        a = pl.phase(V, xi, 10.0)
        b = pl.phase(V, xi, 10.001)
        assert abs(b - a) < 0.01


class TestEigenvalueCount:
    def test_free_formula(self):
        V0 = pl.zero_potential()
        for xi in (0.5, 1.0, 2.31):
            for L in (47.0, 100.0):
                assert pl.eigenvalue_count(V0, xi, L) == math.floor(
                    math.sqrt(xi) * L / math.pi
                ) + 1

    def test_small_energy_count(self):
        assert pl.eigenvalue_count(pl.zero_potential(), 1e-8, 50.0) in (0, 1)
        assert pl.eigenvalue_count(one_bump(0.5, 10.0), 1e-8, 50.0) in (0, 1)

    def test_nondecreasing(self):
        V = one_bump(0.5, 10.0)
        grid = np.linspace(0.1, 4.0, 60)
        counts = [pl.eigenvalue_count(V, float(x), 50.0) for x in grid]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_agrees_with_oracle_one_bump(self):
        V = one_bump(0.5, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a count mismatch would warn
            vals = pl.oracle_eigenvalues(V, 50.0, 20000, cutoff=4.0)
        assert len(vals) == pl.eigenvalue_count(V, 4.0, 50.0)


class TestEigenvaluesNear:
    def test_free_window_values(self):
        w = pl.eigenvalues_near(pl.zero_potential(), 100.0, 1.0, -2, 2)
        # the smallest free eigenvalue at or above 1 is (32 pi / 100)^2
        for n in range(-2, 3):
            j = 32 + n
            assert w.value(n) == pytest.approx((j * math.pi / 100) ** 2, rel=1e-12)

    def test_tie_convention_at_exact_eigenvalue(self):
        xs = (32 * math.pi / 100) ** 2
        w = pl.eigenvalues_near(pl.zero_potential(), 100.0, xs, -1, 1)
        assert w.value(0) == pytest.approx(xs, abs=1e-12)
        assert w.value(-1) < xs

    def test_roots_verified_by_direct_propagation(self):
        V = one_bump(0.5, 10.0)
        w = pl.eigenvalues_near(V, 50.0, 1.0, -2, 2)
        for n in range(w.n_min, w.n_max + 1):
            s = pl.neumann_solution(V, w.value(n), 50.0)
            scale = math.sqrt(w.value(n) * s.u**2 + s.du**2)
            assert abs(s.du) <= 1e-9 * scale
        spacings = [w.value(n + 1) - w.value(n) for n in range(w.n_min, w.n_max)]
        assert min(spacings) > 0.5 * math.pi / pl.phase(V, 1.0, 50.0)

    def test_window_below_bottom_reported_truncated(self):
        V0 = pl.zero_potential()
        w = pl.eigenvalues_near(V0, 20.0, 0.05, -5, 1)
        assert w.truncated
        assert w.n_min > -5

    def test_unconverged_polish_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum, "DEFAULTS", pl.Settings(root_rel_tol=0.0))
        with pytest.raises(RuntimeError, match="phase index") as info:
            pl.eigenvalues_near(one_bump(0.5, 10.0), 50.0, 1.0, -1, 1)
        assert "," not in str(info.value)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_length_rejected(self, L):
        V = one_bump(0.5, 10.0)
        for call in (
            lambda: pl.eigenvalues_near(V, L, 1.0, -1, 1),
            lambda: pl.clock_statistics(V, L, 1.0, 1),
        ):
            with pytest.raises(ValueError, match="positive and finite") as info:
                call()
            assert "," not in str(info.value)

    def test_residuals_within_tolerance(self):
        V = one_bump(0.5, 10.0)
        tol = pl.DEFAULTS.root_rel_tol
        w = pl.eigenvalues_near(V, 50.0, 1.0, -3, 3)
        assert len(w.iterations) == len(w.residuals) == len(w.values)
        assert all(walks >= 1 for walks in w.iterations)
        for n, res in zip(range(w.n_min, w.n_max + 1), w.residuals):
            assert res <= tol
            s = pl.neumann_solution(V, w.value(n), 50.0)
            assert abs(s.du) <= tol * math.sqrt(w.value(n) * s.u**2 + s.du**2)

    def test_interlacing_with_counting_function(self):
        V = one_bump(0.5, 10.0)
        w = pl.eigenvalues_near(V, 50.0, 1.0, -3, 3)
        for n in range(w.n_min, w.n_max):
            left = pl.eigenvalue_count(V, w.value(n) * (1 + 1e-9), 50.0)
            right = pl.eigenvalue_count(V, w.value(n + 1) * (1 + 1e-9), 50.0)
            assert right - left == 1


class TestWalkCount:
    @pytest.mark.parametrize("L", [1e3, 1e4])
    def test_at_most_four_walks_per_root(self, L, monkeypatch):
        walk = spectrum._phase_walk
        calls = []

        def counted(*args):
            calls.append(args[1])
            return walk(*args)

        monkeypatch.setattr(spectrum, "_phase_walk", counted)
        rep = pl.clock_statistics(canonical_potential().build(), L, 1.0, 6)
        roots = len(rep.window.values)
        assert len(calls) <= 4 * roots
        # one walk at xi_star, then the walks each root reports
        assert len(calls) == 1 + sum(rep.window.iterations)


def _assert_tolerance_out_of_reach(V, L, k):
    """The crossing of theta(., L) through pi/2 + k pi sits between two
    adjacent doubles, and neither meets |u'| <= root_rel_tol * sqrt(xi u^2 + u'^2).

    This is what a sharp resonance does: theta jumps by pi over so short a
    stretch of xi that one step in the last bit of xi moves |u'|/r by more
    than the tolerance, so the search has to report non-convergence.
    """
    target = 0.5 * math.pi + k * math.pi
    lo, hi = 1e-14, 1.0
    while pl.phase(V, hi, L) < target:
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if pl.phase(V, mid, L) < target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    for x in (lo, hi):
        s = pl.neumann_solution(V, x, L)
        assert abs(s.du) > pl.DEFAULTS.root_rel_tol * math.sqrt(x * s.u**2 + s.du**2)


_XI = st.floats(1e-3, 4.0)
_L = st.floats(1.0, 200.0)
_FEW = settings(max_examples=20, derandomize=True, deadline=None)


class TestPhaseSlopeProperties:
    @_FEW
    @given(_potentials(), _XI, _L)
    def test_slope_positive_and_matches_central_difference(self, V, xi, L):
        _, slope, _ = spectrum._phase_walk(V, xi, L, 512)
        assert slope > 0.0

        def central(h):
            return (pl.phase(V, xi + h, L) - pl.phase(V, xi - h, L)) / (2.0 * h)

        h = 1e-5 * xi
        fd = (4.0 * central(0.5 * h) - central(h)) / 3.0  # Richardson, O(h^4)
        assert slope == pytest.approx(fd, rel=1e-6)

    @_FEW
    @given(_potentials(), _XI, _XI, _L)
    def test_count_monotone(self, V, xi1, xi2, L):
        lo, hi = sorted((xi1, xi2))
        assert pl.eigenvalue_count(V, lo, L) <= pl.eigenvalue_count(V, hi, L)

    @settings(max_examples=8, derandomize=True, deadline=None)
    @example(V=found_potential(), cutoff=2.975720514665727, L=140.07244424291022)
    @given(_potentials(), _XI, _L)
    def test_count_matches_eigenvalues_below(self, V, cutoff, L):
        # eigenvalues_below lists (0, cutoff]; the count also holds the
        # eigenvalues at or below the floor 1e-14 (none for positive bumps)
        try:
            below = pl.eigenvalues_below(V, L, cutoff)
        except RuntimeError as exc:
            # a search may give up only where no double meets the tolerance
            k = int(re.search(r"phase index (\d+)", str(exc)).group(1))
            _assert_tolerance_out_of_reach(V, L, k)
            return
        bottom = pl.eigenvalue_count(V, 1e-14, L)
        assert pl.eigenvalue_count(V, cutoff, L) - bottom == len(below)

    @_FEW
    @given(_XI, _L)
    def test_free_slope_closed_form(self, xi, L):
        _, slope, _ = spectrum._phase_walk(pl.zero_potential(), xi, L, 512)
        assert slope == pytest.approx(L / (2.0 * math.sqrt(xi)), rel=1e-13)


class TestClockStatistics:
    def test_free_spacing_algebra(self):
        # free statistic is (2j + 1) pi / (2 L) at eigenvalue index j
        L = 100.0
        rep = pl.clock_statistics(pl.zero_potential(), L, 1.0, 2)
        for i, stat in enumerate(rep.statistics):
            j = 32 + rep.window.n_min + i
            assert stat == pytest.approx((2 * j + 1) * math.pi / (2 * L), rel=1e-10)

    def test_free_deviation_decays_like_one_over_L(self):
        devs = []
        for L in (100.0, 200.0, 400.0, 800.0):
            rep = pl.clock_statistics(pl.zero_potential(), L, 1.0, 2)
            devs.append(rep.max_deviation)
        for L, dev in zip((100.0, 200.0, 400.0, 800.0), devs):
            assert dev <= 25.0 / L
        assert devs[-1] < devs[0]

    def test_statistics_positive(self):
        rep = pl.clock_statistics(one_bump(0.5, 10.0), 60.0, 1.0, 3)
        assert all(s > 0 for s in rep.statistics)
        assert rep.max_deviation == max(abs(s - 1) for s in rep.statistics)

    def test_pearson_deviation_decreases_along_lengths(self):
        # full pipeline, canonical sparse potential; the deviation shrinks
        # along the length sequence (10 percent slack)
        V = canonical_potential().build()
        devs = [
            pl.clock_statistics(V, L, 1.0, 3).max_deviation
            for L in (100.0, 1000.0, 10000.0)
        ]
        assert devs[1] <= devs[0] * 1.1
        assert devs[2] <= devs[1] * 1.1


class TestDensityOfStates:
    def test_free_bins_match_free_prediction(self):
        # bin masses carry 1/L counting granularity, so the bin count keeps
        # each free mass well above it
        est = pl.density_of_states(pl.zero_potential(), 1000.0, (1.0, 4.0), 6)
        for mass, free in zip(est.masses, est.free_masses):
            assert abs(mass - free) / free < 0.02

    def test_total_mass_exact_bookkeeping(self):
        V = one_bump(0.5, 10.0)
        L = 200.0
        est = pl.density_of_states(V, L, (1.0, 4.0), 7)
        expected = (
            pl.eigenvalue_count(V, 4.0, L) - pl.eigenvalue_count(V, 1.0, L)
        ) / L
        assert est.total_mass == expected

    def test_pearson_two_percent_at_desk_scale(self):
        V = canonical_potential().build()
        est = pl.density_of_states(V, 10000.0, (1.0, 4.0), 12)
        for mass, free in zip(est.masses, est.free_masses):
            assert abs(mass - free) / free < 0.02

    @pytest.mark.parametrize("interval", [(1.0, math.inf), (math.nan, 4.0), (1.0, math.nan)])
    def test_non_finite_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="interval") as err:
            pl.density_of_states(canonical_potential().build(), 100.0, interval, 3)
        assert "," not in str(err.value)

    @pytest.mark.parametrize("L", [0.0, -3.0, math.inf, math.nan])
    def test_bad_length_rejected(self, L):
        with pytest.raises(ValueError, match="L must be positive and finite"):
            pl.density_of_states(pl.zero_potential(), L, (1.0, 4.0), 3)


class TestOracleEigenvalues:
    def test_free_spectrum(self):
        vals = pl.oracle_eigenvalues(pl.zero_potential(), 10.0, 10000, cutoff=4.0)
        exact = np.array([(j * math.pi / 10.0) ** 2 for j in range(len(vals))])
        rel = np.abs(vals[1:] - exact[1:]) / exact[1:]
        assert np.max(rel) < 1e-4
        assert abs(vals[0]) < 1e-8  # ground state at zero, up to solver noise

    def test_second_order_richardson_ratio(self):
        errs = []
        for n in (2000, 4000):
            vals = pl.oracle_eigenvalues(pl.zero_potential(), 10.0, n, cutoff=4.0)
            exact = np.array([(j * math.pi / 10.0) ** 2 for j in range(len(vals))])
            errs.append(np.abs(vals[1:] - exact[1:]))
        ratio = np.max(errs[0]) / np.max(errs[1])
        assert 3.5 <= ratio <= 4.5

    def test_matches_shooting_one_bump(self):
        V = one_bump(0.5, 10.0)
        shooting = pl.eigenvalues_below(V, 50.0, 4.0)
        oracle = pl.oracle_eigenvalues(V, 50.0, 20000, cutoff=4.0)
        assert len(shooting) == len(oracle)
        rel = np.abs(np.array(shooting) - oracle) / np.maximum(oracle, 1e-8)
        assert np.max(rel) < 1e-4

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            pl.oracle_eigenvalues(pl.zero_potential(), 10.0, 50)

    def test_resolution_warning_on_coarse_grid(self):
        # a grid too coarse to resolve the requested cutoff trips the
        # Weyl-count comparison
        with pytest.warns(pl.ResolutionWarning):
            pl.oracle_eigenvalues(pl.zero_potential(), 200.0, 150, cutoff=4.0)

    @pytest.mark.parametrize("lam", [40.0, -6.0])
    def test_counts_agree_for_strong_bumps(self, lam):
        # bumps this strong make the phase split the support to pin its branch
        V = one_bump(lam, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", pl.ResolutionWarning)
            for cutoff in (0.05, 0.5, 2.0, 4.0):
                pl.oracle_eigenvalues(V, 50.0, 20000, cutoff=cutoff)

    def test_bound_states_of_two_wells_counted(self):
        # both wells hold a negative eigenvalue; the count at a tiny
        # positive cutoff must see exactly those two
        V = pl.PearsonPotential(pl.canonical_bump(), (-0.9, -0.45), (10.0, 30.3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", pl.ResolutionWarning)
            vals = pl.oracle_eigenvalues(V, 50.0, 20000, cutoff=1e-9)
        assert len(vals) == 2
