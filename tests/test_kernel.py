import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pearsonlab as pl
from pearsonlab import cli, kernel, propagate, spectrum

from util import (
    bump_potentials, cell_edge_pairs, free_kernel, free_kernel_ratio, one_bump, sinc, strong_train,
    two_bump,
)


class TestSineKernel:
    def test_removable_singularity(self):
        assert pl.sine_kernel(1.3, 0.7, 0.7) == 1.0

    def test_first_clock_zero(self):
        # pi * rho(xi) * (b - a) = pi at b - a = 2 sqrt(xi) pi
        xi = 1.0
        assert pl.sine_kernel(xi, 0.0, 2 * math.sqrt(xi) * math.pi) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_free_density_of_states_value(self):
        assert pl.rho(1.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-15)
        assert pl.rho(4.0) == pytest.approx(1.0 / (4 * math.pi), rel=1e-15)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            pl.sine_kernel(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            pl.rho(-1.0)

    def test_nan_energy_rejected(self):
        # NaN compares false both ways, so only "not xi > 0" rejects it
        with pytest.raises(ValueError, match="xi > 0"):
            pl.sine_kernel(math.nan, 0.0, 1.0)
        with pytest.raises(ValueError, match="evaluated on"):
            pl.rho(math.nan)

    def test_infinite_energy_rejected(self):
        # rho(inf) used to return 0.0 and sine_kernel(inf, a, b) 1.0
        with pytest.raises(ValueError, match="finite xi > 0"):
            pl.sine_kernel(math.inf, 0.0, 1.0)
        with pytest.raises(ValueError, match="evaluated on"):
            pl.rho(math.inf)

    @pytest.mark.parametrize("name, a, b", [("a", math.inf, 0.0), ("b", 0.0, math.nan),
                                            ("b", 0.0, complex(1.0, math.inf))])
    def test_non_finite_shift_rejected(self, name, a, b):
        with pytest.raises(ValueError, match=f"requires a finite {name} "):
            pl.sine_kernel(1.0, a, b)

    def test_even_in_separation(self):
        assert pl.sine_kernel(2.0, -1.0, 1.5) == pl.sine_kernel(2.0, 1.5, -1.0)

    def test_complex_separation(self):
        v = pl.sine_kernel(1.0, 0.0, 1j)
        z = 1j / 2.0
        assert v == pytest.approx(np.sin(z) / z, rel=1e-14)


class TestQuadratureRoute:
    def test_free_diagonal_closed_form(self):
        for L in (3.0, 10.0, 27.5):
            ev = pl.cd_quadrature(pl.zero_potential(), 1.0, 1.0, L)
            assert ev.value == pytest.approx(L / 2 + math.sin(2 * L) / 4, rel=1e-12)
            assert ev.method == "quadrature"

    def test_free_off_diagonal_product_to_sum(self):
        L = 9.0
        ev = pl.cd_quadrature(pl.zero_potential(), 1.0, 4.0, L)
        assert ev.value == pytest.approx(
            (math.sin(3 * L) / 3 + math.sin(L)) / 2, abs=1e-12
        )

    def test_matches_formula_route_with_bumps(self):
        ev_q = pl.cd_quadrature(two_bump(), 1.0, 1.1, 200.0)
        ev_f = pl.cd_formula(two_bump(), 1.0, 1.1, 200.0)
        assert abs(ev_q.value - ev_f.value) / abs(ev_f.value) < 1e-8

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            pl.cd_quadrature(pl.zero_potential(), 1.0, 2.0, 0.0)

    def test_symmetry(self):
        a = pl.cd_quadrature(two_bump(), 0.7, 1.9, 120.0)
        b = pl.cd_quadrature(two_bump(), 1.9, 0.7, 120.0)
        assert a.value == pytest.approx(b.value, rel=1e-12)

    @pytest.mark.parametrize("t", [710.6, 710.9, 711.1])
    def test_overflowing_overlap_named(self, t):
        # sin of (sqrt(xi) + sqrt(zeta)) * gap overflows while the free
        # transfer of the gap still stays finite
        z = (1 + 1j * t / 8000) ** 2
        with pytest.raises(ValueError, match="overflows on the gap from 0.0 to 4000.0") as info:
            pl.cd_quadrature(pl.zero_potential(), z, z, 4000.0)
        assert "," not in str(info.value)

    @pytest.mark.parametrize("L", [2400.0, 2000.5])
    def test_overflowing_walk_named(self, L):
        # each gap alone stays finite, but the walk across the six bumps
        # overflows; the running integral used to come back as NaN
        V = pl.PearsonPotential(pl.canonical_bump(), (0.5,) * 6, (10.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0))
        with pytest.raises(ValueError, match=f"overflows between 0.0 and {L!r}") as info:
            pl.cd_quadrature(V, 1 + 1.2j, 1 + 1.3j, L)
        assert "," not in str(info.value)

    def test_cauchy_schwarz(self):
        V = two_bump()
        for (xi, zeta) in [(0.5, 1.0), (0.8, 1.7), (1.2, 2.0)]:
            for L in (10.0, 100.0):
                off = pl.cd_quadrature(V, xi, zeta, L).value
                d1 = pl.cd_quadrature(V, xi, xi, L).value
                d2 = pl.cd_quadrature(V, zeta, zeta, L).value
                assert abs(off) <= math.sqrt(d1 * d2) * (1 + 1e-12)


class TestFormulaRoute:
    def test_free_closed_form_zero(self):
        ev = pl.cd_formula(pl.zero_potential(), 1.0, 4.0, math.pi)
        assert ev.value == pytest.approx(0.0, abs=1e-13)
        assert ev.method == "cd_formula"

    def test_antisymmetric_numerator_invariant_value(self):
        V = two_bump()
        a = pl.cd_formula(V, 1.0, 1.7, 80.0)
        b = pl.cd_formula(V, 1.7, 1.0, 80.0)
        assert a.value == pytest.approx(b.value, rel=1e-13)

    def test_agreement_with_quadrature_two_bumps(self):
        ev_f = pl.cd_formula(two_bump(), 1.0, 1.05, 500.0)
        ev_q = pl.cd_quadrature(two_bump(), 1.0, 1.05, 500.0)
        assert abs(ev_f.value - ev_q.value) / abs(ev_q.value) < 1e-6

    def test_near_diagonal_reroutes_and_flags(self):
        ev = pl.cd_formula(two_bump(), 1.0, 1.0 + 1e-12, 50.0)
        assert ev.method == "accumulated"
        direct = pl.cd_diagonal(two_bump(), 1.0, 50.0)
        assert ev.value == pytest.approx(direct.value, rel=1e-9)

    @pytest.mark.parametrize("V, rel", [(two_bump(), 1e-9), (one_bump(40.0), 1e-8)],
                             ids=["two_bump", "lambda40"])
    def test_near_diagonal_complex_takes_the_midpoint_diagonal(self, V, rel):
        # the running integral is the independent reference; at lambda = 40
        # its RK4 error at 512 steps is about 1e-9
        ev = pl.cd_formula(V, 1.0 + 1e-12j, 1.0, 50.0)
        assert ev.method == "accumulated"
        ref = pl.cd_quadrature(V, 1.0 + 1e-12j, 1.0, 50.0).value
        assert abs(ev.value - ref) <= rel * abs(ref)

    @pytest.mark.parametrize("L", [1e6, 1e8])
    def test_clock_scale_pairs_use_the_formula_at_large_length(self, L):
        # the near-diagonal threshold is in units of 1/L and grows only like
        # L^(1/3) (7.5e-3 at 1e8): pairs a clock spacing apart keep the
        # boundary formula
        V = cli.canonical_potential().build()
        den = pl.cd_quadrature(V, 1.0, 1.0, L).value
        for a, b in ((0.25, 0.0), (0.5, 0.0), (-0.25, 0.25)):
            want = pl.cd_quadrature(V, 1.0 + a / L, 1.0 + b / L, L).value / den
            assert pl.kernel_ratio(V, 1.0, a, b, L) == pytest.approx(want, rel=1e-6)
            assert pl.cd_formula(V, 1.0 + a / L, 1.0 + b / L, L).method == "cd_formula"
        for gap in (0.0, 1e-9, 1e-8):
            assert pl.cd_formula(V, 1.0 + 0.5 / L, 1.0 + (0.5 + gap) / L, L).method == "accumulated"

    @pytest.mark.parametrize("gap, method", [(1e-2, "accumulated"), (3e-2, "cd_formula")])
    def test_near_diagonal_switch_scales_with_length(self, gap, method):
        # at L = 1e9 and xi = 1 the switch (19 eps L)^(1/3) is 1.6e-2 in clock
        # units; either side stays within 1e-5 of the running integral, which
        # differs from the midpoint diagonal by gap^2 / 24 (4.2e-6 at 1e-2)
        V, L = cli.canonical_potential().build(), 1e9
        xi, zeta = 1.0 + 1.0 / L, 1.0 + (1.0 + gap) / L
        ev = pl.cd_formula(V, xi, zeta, L)
        assert ev.method == method
        assert ev.value == pytest.approx(pl.cd_quadrature(V, xi, zeta, L).value, rel=1e-5)

    @pytest.mark.parametrize("L", [1e4, 1e6, 1e8, 1e9])
    def test_close_pairs_stay_near_the_midpoint_diagonal(self, L):
        # S(xi, zeta) / S(m, m) - 1 is (b - a)^2 / (24 xi) in the sinc limit,
        # at most 4.2e-6 here; with the switch fixed at |b - a| = 1e-6 the
        # boundary formula's rounding, about 0.8 eps L / |b - a|, read 8.3e-2
        # at (L, |b - a|) = (1e9, 2e-6)
        V = cli.canonical_potential().build()
        for gap in (2e-6, 1e-4, 1e-2):
            xi, zeta = 1.0 + 1.0 / L, 1.0 + (1.0 + gap) / L
            s = pl.cd_formula(V, xi, zeta, L).value
            assert abs(s / pl.cd_diagonal(V, 0.5 * (xi + zeta), L).value - 1.0) <= 1e-4


class TestDiagonalRoute:
    def test_free_closed_form(self):
        for L in (5.0, 40.0):
            ev = pl.cd_diagonal(pl.zero_potential(), 1.0, L)
            assert ev.value == pytest.approx(L / 2 + math.sin(2 * L) / 4, rel=1e-11)
            assert ev.method == "accumulated"

    def test_positivity(self):
        V = two_bump()
        for xi in (0.3, 1.0, 2.7):
            for L in (7.0, 63.0, 140.0):
                assert pl.cd_diagonal(V, xi, L).value > 0.0

    def test_richardson_limit_of_formula_route(self):
        # finite-difference oracle: S(xi, xi+d) -> S(xi, xi) linearly in d,
        # so two Richardson eliminations on d in {1e-3, 1e-4, 1e-5} give the
        # diagonal to high order
        V = two_bump()
        xi, L = 1.3, 60.0
        f = [pl.cd_formula(V, xi, xi + d, L).value for d in (1e-3, 1e-4, 1e-5)]
        g1 = (10 * f[1] - f[0]) / 9.0
        g2 = (10 * f[2] - f[1]) / 9.0
        extrap = (100 * g2 - g1) / 99.0
        diag = pl.cd_diagonal(V, xi, L).value
        assert abs(extrap - diag) / abs(diag) < 1e-6

    def test_complex_rejected(self):
        with pytest.raises(ValueError):
            pl.cd_diagonal(two_bump(), 1.0 + 0.1j, 10.0)


class TestRouteAgreementGrid:
    @pytest.mark.parametrize("potential", ["free", "two_bump"])
    def test_pairwise_agreement(self, potential):
        V = pl.zero_potential() if potential == "free" else two_bump()
        xis = (0.5, 1.1, 2.0)
        for L in (10.0, 100.0):
            for xi in xis:
                for zeta in xis:
                    q = pl.cd_quadrature(V, xi, zeta, L).value
                    if xi == zeta:
                        d = pl.cd_diagonal(V, xi, L).value
                        assert abs(q - d) / abs(d) < 1e-6
                    else:
                        f = pl.cd_formula(V, xi, zeta, L).value
                        assert abs(q - f) / max(abs(f), 1e-30) < 1e-6


class TestKernelRatio:
    def test_identity_at_zero_shifts(self):
        assert pl.kernel_ratio(two_bump(), 1.0, 0.0, 0.0, 50.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_free_ratio_against_closed_form(self):
        V0 = pl.zero_potential()
        for (a, b) in [(1.0, -1.0), (2.0, 0.5), (0.0, 2.0)]:
            got = pl.kernel_ratio(V0, 1.0, a, b, 500.0)
            assert got == pytest.approx(free_kernel_ratio(1.0, a, b, 500.0), rel=1e-10)

    def test_free_sup_error_small_at_large_length(self):
        # closed-form free kernel against the sinc target
        V0 = pl.zero_potential()
        L = 1e4
        sup = 0.0
        for a in np.linspace(-2, 2, 9):
            for b in np.linspace(-2, 2, 9):
                got = pl.kernel_ratio(V0, 1.0, float(a), float(b), L)
                sup = max(sup, abs(got - pl.sine_kernel(1.0, a, b)))
        assert sup < 1e-2

    def test_conjugate_symmetry(self):
        V = two_bump()
        a, b = 0.4 + 0.3j, -1.0 + 0.6j
        plain = pl.kernel_ratio(V, 1.2, a, b, 80.0)
        conj = pl.kernel_ratio(V, 1.2, a.conjugate(), b.conjugate(), 80.0)
        assert conj == pytest.approx(plain.conjugate(), rel=1e-11)

    def test_left_half_plane_rejected(self):
        with pytest.raises(ValueError):
            pl.kernel_ratio(two_bump(), 0.5, -60.0, 0.0, 100.0)

    def test_complex_strip_arguments(self):
        v = pl.kernel_ratio(two_bump(), 1.0, 1j, -0.5, 200.0)
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_default_steps_share_a_diagonal_entry(self):
        # three walks: both shifted arguments and the diagonal at xi
        V = two_bump()
        propagate._extended_walk.cache_clear()
        pl.kernel_ratio(V, 1.1, 0.5, -0.5, 70.0)
        pl.kernel_ratio(V, 1.1, 0.5, -0.5, 70.0, steps=propagate.STEPS_PER_BUMP)
        info = propagate._extended_walk.cache_info()
        assert (info.hits, info.misses) == (3, 3)


class TestOverflow:
    """Walks of strong_train at xi = 0.01 reach about 5.8e201 by x = 300: the
    walk is finite, but kernel and kappa values formed from it are not."""

    @pytest.mark.parametrize("call, zeta", [
        (lambda V: pl.cd_formula(V, 0.01, 0.02, 300.0), "0.02"),
        (lambda V: pl.cd_diagonal(V, 0.01, 300.0), "0.01"),
        (lambda V: pl.kernel_ratio(V, 0.01, 0, 1, 300.0), "0.013333333333333334"),
        (lambda V: pl.kappa_ratio(V, 150, 0.01, 0, 1, 300.0), "0.013333333333333334"),
    ], ids=["cd_formula", "cd_diagonal", "kernel_ratio", "kappa_ratio"])
    def test_overflowing_kernel_named(self, call, zeta):
        # these came back as NaN
        V = strong_train()
        assert math.isfinite(pl.neumann_solution(V, 0.01, 300.0).u)
        with pytest.raises(ValueError) as info:
            call(V)
        assert str(info.value) == f"the kernel at xi = 0.01 and zeta = {zeta} overflows at L = 300.0"

    def test_overflowing_kappa_named(self):
        # this came back as inf, which passed Kappa's check value > 0
        with pytest.raises(ValueError) as info:
            pl.kappa(strong_train(), 150, 0.01, 300.0)
        assert str(info.value) == "kappa at xi = 0.01 overflows at x = 300.0"


class TestKappa:
    def test_free_value_is_half(self):
        V = two_bump()
        for xi in (0.05, 0.3, 1.0, 1.9, 4.0, 7.5):
            for x in (0.5, 1.0, 17.3, 250.0, 333.3, 1e5):
                assert pl.kappa(V, 0, xi, x).value == pytest.approx(0.5, abs=1e-14)

    def test_constant_beyond_last_kept_bump(self):
        V = two_bump()
        base = pl.kappa(V, 2, 1.4, 101.0).value
        for x in (120.0, 500.0, 4000.0):
            assert pl.kappa(V, 2, 1.4, x).value == pytest.approx(base, rel=1e-9)

    def test_positive_everywhere(self):
        V = two_bump()
        for xi in (0.25, 0.9, 3.3):
            for x in (5.0, 10.5, 100.2, 333.0):
                assert pl.kappa(V, 2, xi, x).value > 0.0

    def test_matches_prufer_radius_identity(self):
        # the free-basis coordinates a1_tilde = (sin(w x) w u + cos(w x) u')/w
        # and a2_tilde = cos(w x) u - sin(w x) u'/w, w = sqrt(xi), rotate
        # (u, u'/w) by w x, so (a1_tilde^2 + a2_tilde^2)/2 is kappa
        V = two_bump()
        for ell, xi, x in [(0, 0.6, 3.0), (1, 1.7, 57.0), (2, 1.7, 57.0), (2, 3.1, 250.0), (2, 0.2, 1e4)]:
            s = pl.neumann_solution(V.truncate(ell), xi, x)
            w = math.sqrt(xi)
            c, sn = math.cos(w * x), math.sin(w * x)
            a1_tilde = sn * s.u + c * s.du / w
            a2_tilde = c * s.u - sn * s.du / w
            expected = 0.5 * (a1_tilde**2 + a2_tilde**2)
            assert pl.kappa(V, ell, xi, x).value == pytest.approx(expected, rel=1e-13)

    def test_constant_within_free_gaps(self):
        V = two_bump()
        for lo, hi in [(0.0, 10.0), (11.0, 100.0), (101.0, 400.0)]:
            values = [pl.kappa(V, 2, 1.0, float(x)).value for x in np.linspace(lo + 1e-6, hi - 1e-6, 7)]
            assert max(values) - min(values) <= 1e-10 * (hi - lo)


class TestKappaRatio:
    def test_free_level_matches_sinc_at_large_x(self):
        got = pl.kappa_ratio(two_bump(), 0, 1.0, 1.0, -1.0, 1e3)
        target = pl.sine_kernel(1.0, 1.0, -1.0)
        assert abs(got - target) < 1e-2

    def test_diagonal_normalization_limit(self):
        V = two_bump()
        vals = [abs(pl.kappa_ratio(V, 2, 1.0, 0.7, 0.7, x) - 1.0) for x in (200.0, 2000.0, 20000.0)]
        assert vals[-1] < 1e-2
        assert vals[-1] <= vals[0]

    def test_uniformity_probe_decreasing_sup(self):
        # sup over a small grid decreases along x = 1e2, 1e3, 1e4 (10% slack)
        V = two_bump()
        xi_grid = np.linspace(0.5, 2.0, 5)
        ab = np.linspace(-2.0, 2.0, 5)
        sups = []
        for x in (1e2, 1e3, 1e4):
            worst = 0.0
            for xi in xi_grid:
                for a in ab:
                    for b in ab:
                        got = pl.kappa_ratio(V, 2, float(xi), float(a), float(b), x)
                        worst = max(worst, abs(got - pl.sine_kernel(xi, a, b)))
            sups.append(worst)
        assert sups[1] <= sups[0] * 1.1
        assert sups[2] <= sups[1] * 1.1

    def test_truncates_once_with_unchanged_value(self, monkeypatch):
        V, x = two_bump(), 1e3
        expected = pl.cd_formula(V.truncate(1), 1.0 + 0.5 / x, 1.0 - 0.5 / x, x).value / (
            x * pl.kappa(V, 1, 1.0, x).value
        )
        calls = []
        original = pl.PearsonPotential.truncate

        def counting(self, ell):
            calls.append(ell)
            return original(self, ell)

        monkeypatch.setattr(pl.PearsonPotential, "truncate", counting)
        assert pl.kappa_ratio(V, 1, 1.0, 0.5, -0.5, x) == expected
        assert calls == [1]


class TestKappaRatioGap:
    def _potential(self, lam3=0.01):
        return pl.PearsonPotential(
            pl.canonical_bump(), (0.5, 0.25, lam3), (10.0, 100.0, 1000.0),
            monotone_from=3,
        )

    def test_zero_new_amplitude_gives_zero_gap(self):
        # the bump added between levels 1 and 2 has amplitude 0, so the two
        # truncations are the same operator
        V = pl.PearsonPotential(
            pl.canonical_bump(), (0.5, 0.0, 0.0), (10.0, 100.0, 1000.0)
        )
        gap = pl.kappa_ratio_gap(V, 1, 1.0, 0.5, -0.5, 150.0)
        assert gap.gap == pytest.approx(0.0, abs=1e-13)

    def test_window_enforced(self):
        V = self._potential()
        with pytest.raises(ValueError):
            pl.kappa_ratio_gap(V, 1, 1.0, 0.5, -0.5, 50.0)
        with pytest.raises(ValueError):
            pl.kappa_ratio_gap(V, 1, 1.0, 0.5, -0.5, 1500.0)

    def test_left_half_plane_rejected_with_shared_message(self):
        msg = "shifted arguments must stay in the right half-plane"
        with pytest.raises(ValueError, match=msg):
            pl.kappa_ratio_gap(self._potential(), 1, 1.0, -600.0, 0.5, 150.0)

    def test_linear_scaling_in_new_amplitude(self):
        # the gap divided by lam_{ell+1} is stable across two amplitude
        # decades; ell = 1 so the new bump is the one at 100
        x, xi, a, b = 150.0, 1.0, 1.0, -1.0
        gaps = []
        for lam2 in (1e-2, 1e-3):
            V = pl.PearsonPotential(
                pl.canonical_bump(), (0.5, lam2, 0.0), (10.0, 100.0, 1000.0),
                monotone_from=3,
            )
            gaps.append(pl.kappa_ratio_gap(V, 1, xi, a, b, x).gap / lam2)
        assert max(gaps) / min(gaps) < 1.2

    def test_triangle_split_bounds_gap(self):
        V = self._potential(0.1)
        for x in (100.0, 150.0, 400.0, 999.0):
            g = pl.kappa_ratio_gap(V, 1, 1.3, 0.8, -0.4, x)
            assert g.s_term + g.kappa_term >= g.gap * (1 - 1e-12)


_PAIR_L = st.floats(1.0, 200.0)
_STRIP_T = st.floats(-1.0, 1.0)  # imaginary parts t/L, as on criterion 8's strip


class TestKernelProperties:
    """Symmetries and Cauchy-Schwarz of S_L for arguments in neighbouring
    xi-jet cells, so the two solutions come from different bump jets; below
    L = 4 a strip point's imaginary part reaches a complex jet center."""

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(bump_potentials(), cell_edge_pairs(), _STRIP_T, _STRIP_T, _PAIR_L)
    def test_symmetric(self, V, pair, s, t, L):
        xi, zeta = complex(pair[0], s / L), complex(pair[1], t / L)
        assert pl.cd_formula(V, xi, zeta, L).value == pl.cd_formula(V, zeta, xi, L).value

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(bump_potentials(), cell_edge_pairs(), _STRIP_T, _STRIP_T, _PAIR_L)
    def test_conjugate_symmetric(self, V, pair, s, t, L):
        xi, zeta = complex(pair[0], s / L), complex(pair[1], t / L)
        value = pl.cd_formula(V, xi, zeta, L).value
        mirrored = pl.cd_formula(V, xi.conjugate(), zeta.conjugate(), L).value
        assert mirrored == pytest.approx(np.conj(value), rel=1e-10)

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(bump_potentials(), cell_edge_pairs(), _PAIR_L)
    def test_cauchy_schwarz(self, V, pair, L):
        xi, zeta = pair
        off = pl.cd_formula(V, xi, zeta, L)
        assert off.method == "cd_formula"
        bound = pl.cd_diagonal(V, xi, L).value * pl.cd_diagonal(V, zeta, L).value
        assert off.value**2 <= bound * (1.0 + 1e-10)


def _per_pair(V, alpha, beta, L):
    """S_L(alpha, beta) as the boundary formula computed it pair by pair:
    Neumann pairs from neumann_solution, and near the diagonal (the switch
    max(1e-6, (19 |m| eps L)^(1/3)) in clock units) the diagonal formula at
    the midpoint m, real or complex, from its extended walk."""
    mid = 0.5 * (alpha + beta)
    if abs(alpha - beta) * L < max(1e-6, (19.0 * abs(mid) * 2.0**-52 * L) ** (1.0 / 3.0)):
        s = propagate._extended_walk(
            V, propagate._as_scalar(mid), float(L), propagate.STEPS_PER_BUMP)
        return s.du * s.u_xi - s.du_xi * s.u
    s1, s2 = pl.neumann_solution(V, alpha, L), pl.neumann_solution(V, beta, L)
    return (s1.u * s2.du - s2.u * s1.du) / (alpha - beta)


def _arg(xi, shift, L):
    return propagate._as_scalar(xi + shift / L)


_SHIFTS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3)
_COMPLEX_SHIFT = st.complex_numbers(max_magnitude=1.0)


class TestRatioGrid:
    """Grid entries against the per-pair formula, compared exactly."""

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(bump_potentials(), st.integers(0, 2), st.floats(0.3, 3.0), st.floats(5.0, 200.0),
           _SHIFTS, _SHIFTS, st.floats(0.1, 1.0))
    def test_real_grid_is_the_per_pair_formula(self, V, ell, xi, L, a_grid, b_grid, t):
        # a_grid[0] + t * 5e-7 against a_grid[0] is a distinct pair within
        # the near-diagonal threshold, so the midpoint reroute runs off the
        # exact diagonal; b = 0 shares its walk with the normalisation
        near = a_grid[0] + t * 5e-7
        a_grid, b_grid = a_grid + [near], b_grid + [a_grid[0], 0.0]
        assert _arg(xi, near, L) != _arg(xi, a_grid[0], L)
        assert pl.cd_formula(V, _arg(xi, near, L), _arg(xi, a_grid[0], L), L).method == "accumulated"
        Vt = V.truncate(min(ell, V.bump_count))
        diag = pl.cd_diagonal(V, xi, L).value
        kappa_norm = L * pl.kappa(Vt, Vt.bump_count, xi, L).value
        plain = kernel._ratio_grid(V, xi, a_grid, b_grid, L, None)
        normed = kernel._ratio_grid(Vt, xi, a_grid, b_grid, L, None, kappa=True)
        for i, a in enumerate(a_grid):
            for j, b in enumerate(b_grid):
                alpha, beta = _arg(xi, a, L), _arg(xi, b, L)
                assert plain[i][j] == _per_pair(V, alpha, beta, L) / diag
                assert normed[i][j] == _per_pair(Vt, alpha, beta, L) / kappa_norm

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(bump_potentials(), st.integers(0, 2), st.floats(0.3, 3.0), st.floats(5.0, 200.0),
           _COMPLEX_SHIFT, _COMPLEX_SHIFT, st.booleans())
    def test_complex_pair_is_the_per_pair_formula(self, V, ell, xi, L, a, b, same):
        # same = True puts the pair on the diagonal: the diagonal formula
        # on the complex argument's own walk
        b = a if same else b
        ell = min(ell, V.bump_count)
        alpha, beta = _arg(xi, a, L), _arg(xi, b, L)
        want = _per_pair(V, alpha, beta, L) / pl.cd_diagonal(V, xi, L).value
        assert pl.kernel_ratio(V, xi, a, b, L) == want
        Vt = V.truncate(ell)
        want = _per_pair(Vt, alpha, beta, L) / (L * pl.kappa(V, ell, xi, L).value)
        assert pl.kappa_ratio(V, ell, xi, a, b, L) == want


class TestGridWalks:
    """Walks behind the grid users, counted by wrapping the walkers: every
    walk that misses the caches folds one _piece_maps stream, every call
    from kernel into the cached walk is one lookup, and walks to the same
    length share one plan, so one segments partition."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"_piece_maps": 0, "segments": 0, "propagate_to": 0, "truncate": 0, "lookups": 0}

        def counting(owner, name, key=None):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key or name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(propagate, "_piece_maps")
        counting(propagate, "segments")
        counting(propagate, "propagate_to")
        counting(pl.PearsonPotential, "truncate")
        counting(kernel, "_extended_walk", "lookups")
        propagate._extended_walk.cache_clear()
        propagate._plan.cache_clear()
        return calls

    def test_cli_kernel_task_walks_each_argument_once(self, calls):
        # seed-0 criterion-4 grid at L = 1e4, xi = 1: 9 distinct shifted
        # arguments, and a = 0 is the walk of the normalisation too; rows,
        # columns and the norm share one dict of walks, so 9 lookups
        ab = [-2.0 + 0.5 * i for i in range(9)]
        V = cli.canonical_potential().build()
        rows = cli._kernel_rows(V, 1e4, 1.0, ab, ab, None)
        assert len(rows) == 81 and all(row[-1] == "ok" for row in rows)
        assert calls.pop("lookups") == 9
        assert calls == {"_piece_maps": 9, "segments": 1, "propagate_to": 0, "truncate": 0}

    def test_hat_n_search_truncates_once(self, calls):
        # the answer 32 is settled after trials 8 to 128: trial 8 fails on
        # its fifth xi, 16 on its first, and 32, 64 and 128 pass on all 5,
        # so 21 grids of 5 shifted arguments; rows, columns and the kappa
        # norm share one dict of walks (0 is a shift): 5 lookups per grid
        V = cli.canonical_potential().build()
        assert pl.empirical_hat_N(V, 1, 0.5, (0.5, 2.0), 1.0, xi_points=5) == 32.0
        assert calls.pop("lookups") == 105
        assert calls == {"_piece_maps": 105, "segments": 5, "propagate_to": 0, "truncate": 1}

    def test_one_point_window_checks_one_xi(self, calls):
        # a window with lo == hi is one xi, whatever xi_points is: the answer 8
        # is settled by lengths 8, 16 and 32, one grid of 5 shifted arguments each
        V = cli.canonical_potential().build()
        assert pl.empirical_hat_N(V, 1, 0.5, (1.0, 1.0), 1.0) == 8.0
        assert calls.pop("lookups") == 15
        assert calls == {"_piece_maps": 15, "segments": 3, "propagate_to": 0, "truncate": 1}

    def test_clock_walks_share_one_plan(self, calls, monkeypatch):
        # every Newton and bisection walk of the clock is a phase walk from 0 to L
        walks, phase_walk = [], spectrum._phase_walk
        monkeypatch.setattr(spectrum, "_phase_walk", lambda *args: walks.append(args) or phase_walk(*args))
        V = cli.canonical_potential().build()
        assert len(pl.clock_statistics(V, 1e5, 1.0, 6).statistics) == 12
        assert len(walks) == 40
        assert calls == {"_piece_maps": 0, "segments": 1, "propagate_to": 0, "truncate": 0, "lookups": 0}

    def test_reference_walks_share_one_plan(self, calls):
        # cd_quadrature integrates by RK4 but reads its pieces off the cached
        # plan of the Magnus walks, so two references to one length share it
        V = cli.canonical_potential().build()
        kernel.cd_quadrature(V, 1.0, 1.0, 1e4)
        kernel.cd_quadrature(V, 0.5, 0.5001, 1e4)
        assert calls == {"_piece_maps": 0, "segments": 1, "propagate_to": 0, "truncate": 0, "lookups": 0}

    def test_cli_kernel_rows_are_the_per_pair_rows(self):
        # 0.5 + 5e-7 against 0.5 is a near-diagonal pair at L = 1e4 (the
        # midpoint reroute), 0.5 against 0.5 an exactly diagonal one, and
        # the complex diagonal reads its own walk
        V = cli.canonical_potential().build()
        L, xi = 1e4, 1.0
        a_grid, b_grid = [-1.0, 0.0, 0.5, 0.5 + 5e-7, 0.25j], [0.5, 0.0, 1.25, 0.25j]
        assert pl.cd_formula(V, xi + 0.5 / L, xi + (0.5 + 5e-7) / L, L).method == "accumulated"
        want = []
        for a in a_grid:
            for b in b_grid:
                value = pl.kernel_ratio(V, xi, a, b, L)
                target = pl.sine_kernel(xi, a, b)
                re = value.real if isinstance(value, complex) else value
                im = value.imag if isinstance(value, complex) else 0.0
                want.append(
                    ["kernel_ratio", xi, a, b, L, re, im, target, abs(value - target), "ok"])
        assert cli._kernel_rows(V, L, xi, a_grid, b_grid, None) == want


class TestLargeLengthLaw:
    """The L -> infinity law: past the bump at N_k = 10^k of the canonical
    potential, of amplitude lam_k = k^(-1/4), the sup kernel error over the
    criterion-4 grid at L = c N_k is first order in lam_k. Its ratio to
    lam_k W(2 sqrt(xi)) / xi, where W(q) = |int W(y) e^(iqy) dy| of the bump,
    depends on c alone: across the bump the Prufer radius jumps by
    (lam / (2 sqrt(xi))) Im(e^(2i theta) W(2 sqrt(xi))) to first order, and
    that jump weighs [N_k, L] against [0, N_k] differently for xi and zeta.
    The mean is over 30 xi in [xi0, xi0 (1 + 2e-3)], which turn the bump's
    phase sqrt(xi) N_k over many periods."""

    Y = np.linspace(0.0, 1.0, 4001)
    W = np.array([pl.canonical_bump().evaluate(t) for t in Y])

    def bump_transform(self, q):
        f = self.W * np.exp(1j * q * self.Y)
        return abs((f.sum() - 0.5 * (f[0] + f[-1])) * (self.Y[1] - self.Y[0]))  # trapezoid

    @pytest.mark.parametrize("xi0", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("c, lo, hi", [(2.0, 0.30, 0.47), (9.9, 0.11, 0.17)], ids=["c2", "c9.9"])
    @pytest.mark.parametrize("k", [4, 6])
    def test_mean_error_over_amplitude(self, k, c, lo, hi, xi0):
        V = cli.canonical_potential().build()
        assert V.centers[k - 1] == 10.0**k and V.amplitudes[k - 1] == k**-0.25
        ab = [-2.0 + 0.5 * i for i in range(9)]
        ratios = []
        for i in range(30):
            xi = xi0 * (1.0 + 2e-3 * i / 29)
            grid = kernel._ratio_grid(V, xi, ab, ab, c * 10.0**k, None)
            err = max(abs(value - pl.sine_kernel(xi, a, b))
                      for a, row in zip(ab, grid) for b, value in zip(ab, row))
            ratios.append(err * xi / (k**-0.25 * self.bump_transform(2.0 * math.sqrt(xi))))
        assert lo <= sum(ratios) / len(ratios) <= hi

    @pytest.mark.parametrize("c, ks, lo, hi", [(2.0, (3, 4, 5), 0.09, 0.16), (9.9, (3, 4), 0.03, 0.06)],
                             ids=["c2", "c9.9"])
    def test_clock_deviation_over_amplitude(self, c, ks, lo, hi):
        # the clock deviation at xi* = 1, depth 3, is first order in lam_k as
        # well; k = 5 at c = 9.9 (L = 9.9e5) is past the double resolution of
        # the eigenvalue polish
        V = cli.canonical_potential().build()
        for k in ks:
            assert V.centers[k - 1] == 10.0**k and V.amplitudes[k - 1] == k**-0.25
            deviation = pl.clock_statistics(V, c * 10.0**k, 1.0, 3).max_deviation
            assert lo <= deviation / k**-0.25 <= hi, k
