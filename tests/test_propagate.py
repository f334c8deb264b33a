import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pearsonlab as pl
from pearsonlab import propagate
from pearsonlab.propagate import DeterminantDriftError, _magnus_map

from util import bump_potentials, cell_edge_pairs, monolithic_rk4, one_bump, strong_train, two_bump


class TestFreeTransfer:
    def test_rotation_by_pi(self):
        T = pl.free_transfer(1.0, 0.0, math.pi)
        assert np.allclose(T.entries, [[-1.0, 0.0], [0.0, -1.0]], atol=1e-14)

    def test_zero_length_is_identity(self):
        T = pl.free_transfer(2.7, 5.0, 5.0)
        assert np.allclose(T.entries, np.eye(2), atol=0.0)

    def test_unit_determinant(self):
        T = pl.free_transfer(2.3, 0.0, 7.1)
        assert T.det() == pytest.approx(1.0, abs=1e-14)

    def test_nonpositive_real_part_rejected(self):
        with pytest.raises(ValueError):
            pl.free_transfer(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            pl.free_transfer(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            pl.free_transfer(complex(-0.5, 1.0), 0.0, 1.0)

    def test_small_argument_series_branch(self):
        # |z| < 1e-4 goes through the series; compare with a slightly
        # larger argument evaluated directly
        T = pl.free_transfer(1e-9, 0.0, 1.0)
        assert T.entries[0, 1] == pytest.approx(1.0, rel=1e-9)
        assert T.det() == pytest.approx(1.0, abs=1e-14)

    def test_group_property(self):
        xi = 1.9
        T1 = pl.free_transfer(xi, 0.0, 3.0)
        T2 = pl.free_transfer(xi, 3.0, 8.0)
        T = pl.free_transfer(xi, 0.0, 8.0)
        assert np.allclose(T2.entries @ T1.entries, T.entries, atol=1e-13)

    def test_complex_argument(self):
        T = pl.free_transfer(complex(1.0, 0.25), 0.0, 2.0)
        assert T.det() == pytest.approx(1.0, abs=1e-12)
        assert T.entries.dtype == np.complex128

    @pytest.mark.parametrize("call, gap", [
        (lambda V: pl.neumann_solution(V, 1 + 0.3j, 1e4), "[1001.0, 10000.0]"),
        (lambda V: pl.free_transfer(1 + 0.3j, 0.0, 1e4), "[0.0, 10000.0]"),
        (lambda V: pl.transfer_to(V, 1 + 0.3j, 1e4), "[1001.0, 10000.0]"),
        (lambda V: pl.cd_quadrature(V, 1 + 0.3j, 1 + 0.3j, 1e4), "[1001.0, 10000.0]"),
        (lambda V: pl.kernel_ratio(V, 1.0, 3000j, 0.0, 1e4), "[1001.0, 10000.0]"),
        (lambda V: pl.transfer_to(pl.zero_potential(), 1 + 0.3j, 4000.0), "[0.0, 4000.0]"),
    ], ids=["neumann", "free", "transfer", "quadrature", "kernel_ratio", "zero_potential"])
    def test_overflowing_rotation_named(self, call, gap):
        # cos and sin of sqrt(xi) * gap grow like exp(0.149 * gap): these
        # calls used to die in cmath.cos (OverflowError) or, where cos^2
        # alone overflowed, in the determinant check with a NaN drift
        from pearsonlab.cli import canonical_potential

        V = canonical_potential().build()
        with pytest.raises(ValueError, match=re.escape(f"xi = (1+0.3j) overflows across {gap}")):
            call(V)

    @pytest.mark.parametrize("call", [
        lambda V: pl.neumann_solution(V, 1 + 1.2j, 2400.0),
        lambda V: pl.propagate_to(V, 1 + 1.2j, 2400.0, pl.SolutionState(1.0, 0.0, 0.0)),
        lambda V: pl.transfer_to(V, 1 + 1.2j, 2400.0),
        lambda V: pl.cd_formula(V, 1 + 1.2j, 1 + 1.3j, 2400.0),
        lambda V: pl.kernel_ratio(V, 1.0, 2400j, 0.0, 2400.0),
    ], ids=["neumann", "propagate_to", "transfer", "cd_formula", "kernel_ratio"])
    def test_overflowing_walk_named(self, call):
        # each gap alone stays finite, but the walk across all six bumps
        # overflows
        V = pl.PearsonPotential(pl.canonical_bump(), (0.5,) * 6, (10.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0))
        with pytest.raises(ValueError, match=r"overflows between 0\.0 and 2400\.0") as info:
            call(V)
        assert "," not in str(info.value)

    @pytest.mark.parametrize("call", [
        lambda V: pl.neumann_solution(V, 0.01, 470.0),
        lambda V: pl.transfer_to(V, 0.01, 470.0),
    ], ids=["neumann", "transfer"])
    def test_overflowing_real_walk_named(self, call):
        # a real walk that overflows used to come back as u = du = nan, and
        # transfer_to died in the determinant check with a NaN drift
        with pytest.raises(ValueError, match=r"the walk at xi = 0\.01 overflows between 0\.0 and 470\.0") as info:
            call(strong_train())
        assert "," not in str(info.value)


class TestTrigHelpers:
    """vercosc and _gcub against 40-digit mpmath, within 1e-14 of the
    function's scale: |exact| for |z| <= 1, and the larger of |exact| and
    1/|z|^2 above (|cos z| grows like e^|Im z|/2 off the real axis)."""

    REAL = [float(z) for z in np.geomspace(1e-8, 20.0, 400)] + [
        math.nextafter(cut, side) for cut in (1e-4, 0.5) for side in (0.0, 1.0)
    ]
    COMPLEX = [r * complex(math.cos(t), math.sin(t)) for r in np.geomspace(1e-8, 20.0, 80)
               for t in (-math.pi / 4, -0.3, 0.1, math.pi / 4)]

    @pytest.mark.parametrize("name", ["vercosc", "_gcub"])
    def test_matches_mpmath(self, name):
        mpmath = pytest.importorskip("mpmath")
        exact = {
            "vercosc": lambda z: (1 - mpmath.cos(z)) / z,
            "_gcub": lambda z: (z * mpmath.cos(z) - mpmath.sin(z)) / z**3,
        }[name]
        got = {
            "vercosc": propagate.vercosc,
            "_gcub": lambda z: propagate._gcub(z, propagate._cos(z), propagate.sinc(z)),
        }[name]
        with mpmath.workdps(40):
            for z in self.REAL + self.COMPLEX:
                want = exact(mpmath.mpmathify(z))
                scale = abs(want) if abs(z) <= 1.0 else max(abs(want), 1.0 / abs(z) ** 2)
                assert abs(got(z) - want) <= 1e-14 * scale, z

    def test_vercosc_at_zero_and_below_the_square_underflow(self):
        assert propagate.vercosc(0.0) == 0.0 and propagate.vercosc(0j) == 0j
        assert propagate.vercosc(1e-300) == 5e-301
        assert propagate.vercosc(1e-300j) == 5e-301j


class TestBumpTransfer:
    def test_zero_amplitude_matches_free(self):
        for steps in (64, 256, 512):
            B = pl.bump_transfer(pl.canonical_bump(), 0.0, 1.0, steps)
            F = pl.free_transfer(1.0, 0.0, 1.0)
            defect = np.abs(B.entries - F.entries).max()
            assert defect <= 10.0 * (1.0 / steps) ** 4

    def test_unit_determinant(self):
        B = pl.bump_transfer(pl.canonical_bump(), 0.7, 1.3)
        assert B.det() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam, xi", [(0.7, 1.3), (4.0, 0.3)])
    def test_unit_determinant_at_coarse_steps(self, lam, xi):
        B = pl.bump_transfer(pl.canonical_bump(), lam, xi, 16)
        assert abs(B.det() - 1.0) <= 1e-13

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            pl.bump_transfer(pl.canonical_bump(), 0.5, 1.0, 8)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_rejected(self, lam):
        # rejected before any jet is built, so no NaN jet enters the cache
        propagate._bump_jet.cache_clear()
        with pytest.raises(ValueError, match=re.escape(f"(got lam = {lam!r})")):
            pl.bump_transfer(pl.canonical_bump(), lam, 1.0)
        assert propagate._bump_jet.cache_info().currsize == 0

    def test_perturbation_linear_in_amplitude(self):
        # ||A - B|| / |lam| stable across three amplitude decades
        F = pl.free_transfer(1.0, 0.0, 1.0).entries
        ratios = []
        for lam in (1e-2, 1e-3, 1e-4):
            B = pl.bump_transfer(pl.canonical_bump(), lam, 1.0).entries
            ratios.append(np.linalg.norm(F - B, 2) / lam)
        assert max(ratios) / min(ratios) < 1.1

    def test_step_halving_order(self):
        # defects against a common 4x-step reference shrink by >= 8x per halving
        ref = pl.bump_transfer(pl.canonical_bump(), 0.7, 1.3, 256).entries
        d32 = np.linalg.norm(pl.bump_transfer(pl.canonical_bump(), 0.7, 1.3, 32).entries - ref, 2)
        d64 = np.linalg.norm(pl.bump_transfer(pl.canonical_bump(), 0.7, 1.3, 64).entries - ref, 2)
        assert d32 / d64 >= 8.0


class TestMagnusFold:
    """The block fold of _magnus_map against an independent sequential fold."""

    @staticmethod
    def sequential(lam, xi, la, lb, steps):
        # per-step (S, dS/dxi) from scipy's expm of the 4x4 block
        # [[Omega, dOmega/dxi], [0, Omega]], folded one step at a time
        from scipy.linalg import expm

        profile = pl.canonical_bump()
        n = math.ceil(steps * (lb - la) - 1e-9)
        h = (lb - la) / n
        g1, g2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
        dtype = complex if isinstance(xi, complex) else float
        T, D = np.eye(2, dtype=dtype), np.zeros((2, 2), dtype=dtype)
        for i in range(n):
            q1 = lam * profile.evaluate(la + (i + g1) * h) - xi
            q2 = lam * profile.evaluate(la + (i + g2) * h) - xi
            c = math.sqrt(3.0) / 12.0 * h * h * (q1 - q2)
            omega = np.array([[c, h], [h * 0.5 * (q1 + q2), -c]], dtype=dtype)
            block = np.zeros((4, 4), dtype=dtype)
            block[:2, :2] = block[2:, 2:] = omega
            block[1, 2] = -h
            E = expm(block)
            S, dS = E[:2, :2], E[:2, 2:]
            T, D = S @ T, dS @ T + S @ D
        return T, D

    @pytest.mark.parametrize(
        "lam, xi, la, lb, steps",
        [
            (0.7, 1.3, 0.1, 0.77, 64),  # n = 43 steps: odd counts pad the tree
            (0.7, complex(1.3, 0.4), 0.1, 0.77, 64),
            (0.7, 50.0, 0.0, 1.0, 16),  # |mu^2| >= 1e-2: closed-form exponential
            (-3.0, 0.4, 0.0, 1.0, 512),
        ],
    )
    def test_matches_sequential_fold(self, lam, xi, la, lb, steps):
        T, D = _magnus_map(pl.canonical_bump(), lam, xi, la, lb, steps)
        T_ref, D_ref = self.sequential(lam, xi, la, lb, steps)
        assert np.abs(T - T_ref).max() <= 1e-13 * np.abs(T_ref).max()
        assert np.abs(D - D_ref).max() <= 1e-13 * np.abs(D_ref).max()

    def test_derivative_matches_central_difference(self):
        profile, lam, xi, h = pl.canonical_bump(), 0.7, 1.3, 1e-5
        _, D = _magnus_map(profile, lam, xi, 0.1, 0.77, 64)
        up, _ = _magnus_map(profile, lam, xi + h, 0.1, 0.77, 64)
        dn, _ = _magnus_map(profile, lam, xi - h, 0.1, 0.77, 64)
        fd = (up - dn) / (2.0 * h)
        assert np.abs(D - fd).max() <= 1e-8 * np.abs(D).max()


def _cell_edges():
    # the real lattice cells have edges at 0.25 + k/2; a tie rounds to even
    for b in np.arange(0.25, 4.0, 0.5):
        yield from (math.nextafter(b, 0.0), float(b), math.nextafter(b, 5.0))


_JET_GRID = (
    list(np.linspace(1e-3, 4.0, 13))
    + [1e-14]
    + list(_cell_edges())
    # criterion 8's strip points xi + i t/x with |t| <= 1 and x >= 10.5
    + [xi + 1j * t / x for xi in (0.25, 1.0, 4.0) for x in (10.5, 150.0) for t in (-1.0, 1.0)]
    # |Im xi| = 0.3 takes a complex lattice point
    + [complex(1.1, 0.3), complex(2.9, -0.3)]
)


def _jet_map(profile, lam, xi, steps=512):
    """(T, dT/dxi) of the full bump at normalised xi as 2 x 2 arrays, from its jet."""
    xi0 = propagate._lattice_point(xi)
    return (propagate._jet_powers(xi - xi0) @ propagate._bump_jet(profile, lam, steps, xi0)).reshape(2, 2, 2)


class TestBumpJet:
    """Full-bump maps from the xi-jet against the direct Magnus map."""

    @pytest.mark.parametrize("steps", [16, 64, 512])
    @pytest.mark.parametrize("lam", [-6.0, 1.0, 40.0, 1000.0])
    def test_matches_direct_map(self, lam, steps):
        profile = pl.canonical_bump()
        for xi in _JET_GRID:
            xi = propagate._as_scalar(xi)
            T, D = _jet_map(profile, lam, xi, steps)
            T_ref, D_ref = _magnus_map(profile, lam, xi, 0.0, 1.0, steps)
            assert T.dtype == T_ref.dtype
            assert np.abs(T - T_ref).max() <= 1e-12 * np.abs(T_ref).max(), xi
            assert np.abs(D - D_ref).max() <= 1e-12 * np.abs(D_ref).max(), xi

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(bump_potentials(), cell_edge_pairs(), st.floats(-1.0, 1.0), st.floats(1.0, 200.0))
    def test_transfer_determinant(self, V, pair, t, L):
        # an evaluated jet is unimodular only to rounding
        for xi in pair:
            T = pl.transfer_to(V, complex(xi, t / L), L)
            assert abs(T.det() - 1.0) <= propagate.DET_TOL_PER_UNIT * max(1.0, L)

    def test_lattice_points(self):
        assert propagate._lattice_point(1.25) == 1.0
        assert propagate._lattice_point(math.nextafter(1.25, 2.0)) == 1.5
        assert propagate._lattice_point(complex(1.0, 0.095)) == 1.0
        assert propagate._lattice_point(complex(1.1, 0.3)) == complex(1.0, 0.5)

    def test_neighbouring_jets_agree_on_the_cell_edge(self):
        profile, b = pl.canonical_bump(), 1.25
        for lam in (1.0, 40.0):
            lo = (propagate._jet_powers(b - 1.0) @ propagate._bump_jet(profile, lam, 512, 1.0)).reshape(2, 2, 2)
            hi = (propagate._jet_powers(b - 1.5) @ propagate._bump_jet(profile, lam, 512, 1.5)).reshape(2, 2, 2)
            for x, y in zip(lo, hi):
                assert np.abs(x - y).max() <= 1e-13 * np.abs(x).max()

    def test_phase_continuous_across_cell_edge(self):
        from pearsonlab.cli import canonical_potential

        V = canonical_potential().build()
        below, above = 1.25, math.nextafter(1.25, 2.0)
        assert propagate._lattice_point(below) != propagate._lattice_point(above)
        assert abs(pl.phase(V, below, 1e4) - pl.phase(V, above, 1e4)) <= 1e-12

    @staticmethod
    def _quotient_exp_coeffs(m):
        # the series as quotients m / k: the reference for the reciprocal form
        ch = 1.0 + m / 2 * (1.0 + m / 12 * (1.0 + m / 30 * (1.0 + m / 56)))
        sh = 1.0 + m / 6 * (1.0 + m / 20 * (1.0 + m / 42 * (1.0 + m / 72)))
        big = np.abs(m) >= propagate._EXP_SERIES_CUT
        r = np.sqrt(m[big].astype(complex))
        ch[big], sh[big] = np.cosh(r), np.sinh(r) / r
        return ch, sh

    def test_series_equal_quotient_form_on_complex_arrays(self):
        rng = np.random.default_rng(0)
        cut = propagate._EXP_SERIES_CUT
        moduli = np.concatenate((
            np.geomspace(1e-12, 10.0, 4000),
            cut * (1.0 + np.linspace(-1e-6, 1e-6, 2001)),
            [math.nextafter(cut, 0.0), cut, math.nextafter(cut, 1.0)],
        ))
        m = moduli * np.exp(2j * math.pi * rng.random(len(moduli)))
        for got, want in zip(propagate._exp_coeffs(m), self._quotient_exp_coeffs(m)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("lam", [1.0, 40.0])
    @pytest.mark.parametrize("xi0", [0.5, 1.0, complex(1.0, 0.5)])
    def test_jet_equals_quotient_form_jet(self, lam, xi0, monkeypatch):
        build = propagate._bump_jet.__wrapped__  # uncached
        profile = pl.canonical_bump()
        got = build(profile, lam, 512, xi0)
        monkeypatch.setattr(propagate, "_exp_coeffs", self._quotient_exp_coeffs)
        assert np.array_equal(got, build(profile, lam, 512, xi0))

    @staticmethod
    def _strided_circle_values(profile, lam, steps, xi0):
        # the circle values as folded before the in-place tree: steps in
        # natural order, pairs taken by stride, an identity appended to each
        # odd level and every level stacked afresh
        half = propagate._JET_POINTS // 2
        z = np.array([xi0 + propagate._JET_RADIUS * w for w in propagate._ROOTS])
        if not isinstance(xi0, complex):
            z = z[: half + 1]
        w1, w2, h, _ = propagate._gauss_samples(profile, 0.0, 1.0, steps)
        c = ((math.sqrt(3.0) / 12.0 * h * h * lam) * (w1 - w2))[:, None]
        qbar = (0.5 * lam * (w1 + w2))[:, None] - z
        ch, sh = propagate._exp_coeffs(c * c + h * h * qbar)
        S = np.stack((ch + sh * c, sh * h, sh * h * qbar, ch - sh * c))
        while S.shape[1] > 1:
            if S.shape[1] % 2:
                eye = np.broadcast_to(np.array([1.0, 0.0, 0.0, 1.0])[:, None, None], (4, 1, len(z)))
                S = np.concatenate((S, eye), axis=1)
            (a0, b0, c0, d0), (a1, b1, c1, d1) = S[:, 0::2], S[:, 1::2]
            S = np.stack((a1 * a0 + b1 * c0, a1 * b0 + b1 * d0, c1 * a0 + d1 * c0, c1 * b0 + d1 * d0))
        T = S[:, 0].T
        return T if len(T) == propagate._JET_POINTS else np.concatenate((T, T[half - 1 : 0 : -1].conj()))

    @pytest.mark.parametrize("steps", [16, 17, 100, 511, 512, 600, 1000, 1024])
    def test_tree_fold_equals_strided_tree(self, steps):
        # counts that are not powers of two take identity padding steps
        profile = pl.canonical_bump()
        for lam in (-2.0, 0.3, 1.0, 40.0):
            for xi0 in (0.5, 1.0, 2.0, 10.0, complex(1.0, 0.5), complex(3.0, -0.5)):
                got = propagate._circle_values(profile, lam, steps, xi0)
                want = self._strided_circle_values(profile, lam, steps, xi0)
                assert got.dtype == want.dtype and np.array_equal(got, want), (lam, xi0)
                assert got.tobytes() == want.tobytes(), (lam, xi0)  # signed zeros too

    def test_jet_build_peak_memory(self):
        import tracemalloc

        build, profile = propagate._bump_jet.__wrapped__, pl.canonical_bump()
        build(profile, 1.0, 512, 1.0)  # the cached samples are not counted
        tracemalloc.start()
        try:
            build(profile, 1.0, 512, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 640 * 1024

    def test_tail_check_raises(self):
        coefs = np.zeros((propagate._JET_POINTS, 4))
        coefs[0] = 1.0
        propagate._check_tail(coefs, 2.0, 1.5)
        coefs[-1] = 1e-6
        with pytest.raises(RuntimeError) as info:
            propagate._check_tail(coefs, 2.0, 1.5)
        message = str(info.value)
        assert "lam = 2.0" in message and "xi0 = 1.5" in message
        assert "," not in message
        coefs[-1] = math.nan  # a NaN tail is not negligible either
        with pytest.raises(RuntimeError):
            propagate._check_tail(coefs, 2.0, 1.5)

    def test_clock_builds_few_jets_and_no_direct_full_maps(self, monkeypatch):
        from pearsonlab.cli import canonical_potential

        builds, full = [], []
        circle, direct = propagate._circle_values, propagate._magnus_map

        def counted_circle(*args):
            builds.append(args)
            return circle(*args)

        def counted_direct(profile, lam, xi, la, lb, steps):
            if propagate._is_full_bump(la, lb):
                full.append(xi)
            return direct(profile, lam, xi, la, lb, steps)

        monkeypatch.setattr(propagate, "_circle_values", counted_circle)
        monkeypatch.setattr(propagate, "_magnus_map", counted_direct)
        propagate._bump_jet.cache_clear()
        V = canonical_potential().build()
        for L in (1e2, 1e3, 1e4):
            pl.clock_statistics(V, L, 1.0, 6)
        assert 0 < len(builds) <= 6
        assert full == []


class TestBumpOracle:
    """The full-bump T and dT/dxi of the default steps against an mpmath Taylor ODE solve.

    W < 1e-42 on [0, 0.01] and [0.99, 1], so those ends are free maps in
    closed form; in between (u, u', u_xi, u'_xi) of both columns are
    integrated at 20 digits with Taylor degree 20 (degree 12 has not
    converged; 25 digits and degree 25 give the same digits).
    """

    @staticmethod
    def exact(mpmath, lam, xi):
        with mpmath.workdps(20):
            lam, xi = mpmath.mpf(lam), mpmath.mpf(xi)
            k = mpmath.sqrt(xi)
            lo, hi = mpmath.mpf("0.01"), mpmath.mpf("0.99")

            def free(d):  # the free map over length d and its xi-derivative, dk/dxi = 1/(2k)
                c, s = mpmath.cos(k * d), mpmath.sin(k * d)
                T = mpmath.matrix([[c, s / k], [-k * s, c]])
                D = mpmath.matrix([[-d * s, d * c / k - s / k**2], [-s - k * d * c, -d * s]])
                return T, D / (2 * k)

            def rhs(x, y):  # u'' = (lam W - xi) u, u_xi'' = (lam W - xi) u_xi - u
                q = lam * mpmath.exp(4 - 1 / (x * (1 - x))) - xi
                return [y[1], q * y[0], y[3], q * y[2] - y[0],
                        y[5], q * y[4], y[7], q * y[6] - y[4]]

            T0, D0 = free(lo)
            y0 = [T0[0, 0], T0[1, 0], D0[0, 0], D0[1, 0], T0[0, 1], T0[1, 1], D0[0, 1], D0[1, 1]]
            y = mpmath.odefun(rhs, lo, y0, degree=20)(hi)
            M = mpmath.matrix([[y[0], y[4]], [y[1], y[5]]])
            dM = mpmath.matrix([[y[2], y[6]], [y[3], y[7]]])
            T1, D1 = free(1 - hi)
            return (np.array((T1 * M).tolist(), dtype=float),
                    np.array((D1 * M + T1 * dM).tolist(), dtype=float))

    @pytest.mark.parametrize("lam, xi, tol", [(1.0, 1.0, 2e-12), (40.0, 2.0, 5e-10)])
    def test_full_bump_map(self, lam, xi, tol):
        mpmath = pytest.importorskip("mpmath")
        T_ref, D_ref = self.exact(mpmath, lam, xi)
        T, D = _jet_map(pl.canonical_bump(), lam, xi, propagate.STEPS_PER_BUMP)
        assert np.abs(T - T_ref).max() <= tol * np.abs(T_ref).max()
        assert np.abs(D - D_ref).max() <= tol * np.abs(D_ref).max()


class TestBumpSplit:
    """Bump pieces of the piece stream are short enough to pin the Prufer branch."""

    XI = (1e-3, 0.3, 1.0, 2.9)

    def test_large_bump_pieces_below_pi(self):
        V = pl.PearsonPotential(pl.canonical_bump(), (40.0,), (0.0,))
        for xi in self.XI:
            bumps = [(d, w) for _, _, d, w in propagate._piece_maps(V, xi, 0.0, 1.0, 512)]
            assert len(bumps) > 1
            assert sum(d for d, _ in bumps) == pytest.approx(1.0, rel=1e-15)
            assert all(d + abs(w) < math.pi for d, w in bumps)

    def test_split_transfer_matches_bump_transfer(self):
        V = pl.PearsonPotential(pl.canonical_bump(), (40.0,), (0.0,))
        for xi in self.XI:
            T = pl.transfer_to(V, xi, 1.0).entries
            B = pl.bump_transfer(pl.canonical_bump(), 40.0, xi).entries
            assert np.abs(T - B).max() <= 1e-12 * np.abs(B).max(), xi

    def test_canonical_bumps_never_split(self):
        from pearsonlab.cli import canonical_potential

        V = canonical_potential().build()
        L = 1e5
        bumps = [d for _, _, d, w in propagate._piece_maps(V, 1.0, 0.0, L, 512) if w is not None]
        assert bumps == [1.0] * sum(c < L for c in V.centers)


def _segment_stream(V, xi, x0, x1, steps=512):
    """The piece stream as walked without a plan: segments, each bump support
    halved afresh, and sqrt(xi) per gap and a jet power row per full bump
    (_jet_map, else the direct _magnus_map) formed piece by piece."""

    def halves(lam, la, lb):
        w = lam * propagate._gauss_samples(V.profile, la, lb, steps)[3]
        if lb - la + abs(w) < math.pi:
            return [(la, lb, w)]
        mid = 0.5 * (la + lb)
        return halves(lam, la, mid) + halves(lam, mid, lb)

    xi = propagate._as_scalar(xi)
    for seg in pl.segments(V, x0, x1):
        if seg[0] == "free":
            _, a, b = seg
            yield (*propagate._free_maps(xi, pl.principal_sqrt(xi), a, b), b - a, None)
        else:
            _, a, b, k = seg
            c, lam = V.centers[k], V.amplitudes[k]
            la, lb = (0.0, 1.0) if propagate._is_full_bump(a - c, b - c) else (a - c, b - c)
            for la, lb, w in halves(lam, la, lb):
                maps = (_jet_map(V.profile, lam, xi, steps) if propagate._is_full_bump(la, lb)
                        else _magnus_map(V.profile, lam, xi, la, lb, steps))
                yield (*(tuple(m.ravel().tolist()) for m in maps), lb - la, w)


def _reprs(stream):
    """repr of every entry of a piece stream, or the error it raises."""
    try:
        return [repr(piece) for piece in stream]
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestPiecePlan:
    """_piece_maps reads its layout off the cached _plan and forms sqrt(xi) and
    the jet power row once per walk; its stream is the segment stream, bit for bit."""

    # 20 bumps of amplitude 40, 3 apart from 10: every support is halved
    STRONG = pl.PearsonPotential(pl.canonical_bump(), (40.0,) * 20, tuple(10.0 + 3 * i for i in range(20)))
    # canonical: from 0, ends inside a bump, starts before or inside one
    CANONICAL_SPANS = [(0.0, 1e2), (0.0, 1e4), (0.0, 1e5), (0.0, 100.5), (50.0, 1000.25), (100.5, 2e4)]
    CANONICAL_XI = [0.3, 1.0, 2.9, complex(1.0, 0.05), complex(0.8, -0.3)]
    # strong: past every bump, ends inside one, starts inside one, no bump, empty,
    # one support, inside one support, ends on a support edge, ends just short of one
    STRONG_SPANS = [(0.0, 70.0), (0.0, 28.5), (11.25, 60.0), (0.0, 5.0), (40.0, 40.0),
                    (10.0, 11.0), (10.5, 10.75), (0.0, 13.0), (1.0, 45.999999)]
    STRONG_XI = [0.3, 1.0, complex(1.0, 0.05)]

    def test_stream_equals_segment_stream(self):
        from pearsonlab.cli import canonical_potential

        canonical = canonical_potential().build()
        cases = [(canonical, xi, span) for span in self.CANONICAL_SPANS for xi in self.CANONICAL_XI]
        cases += [(self.STRONG, xi, span) for span in self.STRONG_SPANS for xi in self.STRONG_XI]
        assert len(cases) == 57
        pieces = 0
        for V, xi, (x0, x1) in cases:
            want = _reprs(_segment_stream(V, xi, x0, x1))
            assert _reprs(propagate._piece_maps(V, xi, x0, x1, 512)) == want, (xi, x0, x1)
            pieces += len(want) if isinstance(want, list) else 0
        assert pieces > 1000
        # a complex walk that overflows names the same gap either way
        want = "ValueError: the free transfer at xi = (1+0.5j) overflows across [1001.0, 10000.0]"
        assert _reprs(_segment_stream(canonical, 1 + 0.5j, 0.0, 1e4)) == want
        assert _reprs(propagate._piece_maps(canonical, 1 + 0.5j, 0.0, 1e4, 512)) == want

    @pytest.mark.parametrize("x0, x1", [(0.0, math.nan), (-math.inf, 5.0), (0.0, math.inf), (5.0, 1.0)])
    def test_plan_rejects_what_segments_rejects(self, x0, x1):
        V = self.STRONG
        with pytest.raises(ValueError) as want:
            pl.segments(V, x0, x1)
        cached = propagate._plan.cache_info().currsize
        with pytest.raises(ValueError) as got:
            propagate._plan(V, x0, x1, 512)
        assert str(got.value) == str(want.value)
        assert propagate._plan.cache_info().currsize == cached  # errors are not cached


def _numpy_fold(V, xi, x):
    """(T, dT/dxi) of V from 0 to x as products of 2 x 2 numpy arrays:
    free_transfer and the _free_maps derivative on gaps, bump_transfer and the
    bump jet on full supports, the direct map on partial ones."""
    T = np.eye(2, dtype=complex if isinstance(xi, complex) else float)
    D = np.zeros_like(T)
    for seg in pl.segments(V, 0.0, x):
        if seg[0] == "free":
            P = pl.free_transfer(xi, *seg[1:]).entries
            dP = np.reshape(propagate._free_maps(xi, pl.principal_sqrt(xi), *seg[1:])[1], (2, 2))
        else:
            _, a, b, k = seg
            c, lam = V.centers[k], V.amplitudes[k]
            if propagate._is_full_bump(a - c, b - c):
                P = pl.bump_transfer(V.profile, lam, xi).entries
                dP = _jet_map(V.profile, lam, xi)[1]
            else:
                P, dP = _magnus_map(V.profile, lam, xi, a - c, b - c, 512)
        T, D = P @ T, P @ D + dP @ T
    return T, D


class TestScalarFolds:
    """The scalar folds over the piece stream against the numpy fold, for
    bumps too weak to be split, with x inside and across bump supports."""

    @pytest.mark.parametrize("V", [two_bump(), one_bump(-2.0, 3.0)], ids=["two_bump", "one_bump"])
    @pytest.mark.parametrize("xi", [0.7, 2.3, complex(1.1, 0.05), complex(0.8, -0.3)])
    @pytest.mark.parametrize("x", [3.6, 10.4, 50.0, 100.7, 150.0])
    def test_matches_numpy_fold(self, V, xi, x):
        T_ref, D_ref = _numpy_fold(V, xi, x)
        scale = np.abs(T_ref).max()
        T = pl.transfer_to(V, xi, x).entries
        assert np.abs(T - T_ref).max() <= 1e-13 * scale
        s = pl.propagate_to(V, xi, x, pl.SolutionState(1.0, 0.0, 0.0))
        assert np.abs(np.array([s.u, s.du]) - T_ref[:, 0]).max() <= 1e-13 * scale
        if not isinstance(xi, complex):
            e = pl.extended_neumann(V, xi, x)
            assert np.abs(np.array([e.u, e.du]) - T_ref[:, 0]).max() <= 1e-13 * scale
            v = np.array([e.u_xi, e.du_xi])
            assert np.abs(v - D_ref[:, 0]).max() <= 1e-13 * np.abs(D_ref).max()


class TestNeumannCache:
    # a real argument is cached as its extended walk
    def test_numpy_and_plain_xi_share_an_entry(self):
        V = two_bump()
        propagate._extended_walk.cache_clear()
        a = pl.neumann_solution(V, 1.25, 57.0)
        b = pl.neumann_solution(V, np.float64(1.25), np.float64(57.0))
        info = propagate._extended_walk.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert b == a

    def test_default_steps_share_an_entry(self):
        V = two_bump()
        propagate._extended_walk.cache_clear()
        a = pl.neumann_solution(V, 0.9, 120.0)
        b = pl.neumann_solution(V, 0.9, 120.0, steps=propagate.STEPS_PER_BUMP)
        info = propagate._extended_walk.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert b == a

    # real and complex arguments share the one walk cache
    @pytest.mark.parametrize("xi", [0.9, complex(0.9, 0.2)])
    def test_cached_value_is_the_propagation(self, xi):
        V = two_bump()
        ref = pl.propagate_to(V, xi, 120.0, pl.SolutionState(1.0, 0.0, 0.0))
        propagate._extended_walk.cache_clear()
        for _ in range(2):
            s = pl.neumann_solution(V, xi, 120.0)
            assert (s.u, s.du, s.x) == (ref.u, ref.du, ref.x)
        info = propagate._extended_walk.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert np.iscomplexobj(s.u) == isinstance(xi, complex)

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -1.0])
    def test_bad_point_rejected(self, x):
        with pytest.raises(ValueError):
            pl.neumann_solution(two_bump(), 1.0, x)

    @pytest.mark.parametrize("xi", [float("nan"), float("inf"), complex(1.0, float("inf"))])
    def test_non_finite_xi_rejected(self, xi):
        with pytest.raises(ValueError):
            pl.neumann_solution(two_bump(), xi, 10.0)


class TestPropagateTo:
    def test_free_neumann_closed_form(self):
        V0 = pl.zero_potential()
        s = pl.propagate_to(V0, 1.0, 5.0, pl.SolutionState(1.0, 0.0, 0.0))
        assert s.u == pytest.approx(math.cos(5.0), abs=1e-13)
        assert s.du == pytest.approx(-math.sin(5.0), abs=1e-13)

    def test_free_dirichlet_closed_form(self):
        V0 = pl.zero_potential()
        s = pl.propagate_to(V0, 4.0, math.pi / 4, pl.SolutionState(0.0, 1.0, 0.0))
        assert s.u == pytest.approx(0.5, abs=1e-13)
        assert s.du == pytest.approx(0.0, abs=1e-13)

    def test_backwards_target_rejected(self):
        with pytest.raises(ValueError):
            pl.propagate_to(pl.zero_potential(), 1.0, 1.0, pl.SolutionState(1.0, 0.0, 2.0))

    def test_one_bump_against_monolithic_oracle(self):
        # independent oracle: a single fine-step RK4 across [0, 20] that
        # samples the potential pointwise and never sees the gap structure
        V = pl.PearsonPotential(pl.canonical_bump(), (0.3,), (10.0,))
        xi = 1.0
        s = pl.neumann_solution(V, xi, 20.0)
        u_ref, du_ref = monolithic_rk4(V, xi, 20.0, 80000)
        assert s.u == pytest.approx(u_ref, abs=5e-10)
        assert s.du == pytest.approx(du_ref, abs=5e-10)

    def test_composition_through_a_bump(self):
        V = two_bump()
        xi = 1.7
        mid = pl.propagate_to(V, xi, 10.5, pl.SolutionState(1.0, 0.0, 0.0))
        end_a = pl.propagate_to(V, xi, 30.0, mid)
        end_b = pl.propagate_to(V, xi, 30.0, pl.SolutionState(1.0, 0.0, 0.0))
        assert end_a.u == pytest.approx(end_b.u, rel=1e-8, abs=1e-10)
        assert end_a.du == pytest.approx(end_b.du, rel=1e-8, abs=1e-10)

    def test_composition_free_points(self):
        V = two_bump()
        xi = 0.8
        s1 = pl.propagate_to(V, xi, 50.0, pl.SolutionState(1.0, 0.0, 0.0))
        s2 = pl.propagate_to(V, xi, 120.0, s1)
        direct = pl.propagate_to(V, xi, 120.0, pl.SolutionState(1.0, 0.0, 0.0))
        assert s2.u == pytest.approx(direct.u, rel=1e-10, abs=1e-12)
        assert s2.du == pytest.approx(direct.du, rel=1e-10, abs=1e-12)


class TestNeumannSolution:
    def test_boundary_values(self):
        s = pl.neumann_solution(two_bump(), 1.0, 0.0)
        assert (s.u, s.du) == (1.0, 0.0)

    def test_free_periodicity(self):
        s = pl.neumann_solution(pl.zero_potential(), 1.0, 2 * math.pi)
        assert s.u == pytest.approx(1.0, abs=1e-12)
        assert s.du == pytest.approx(0.0, abs=1e-12)

    def test_wronskian_with_dirichlet_is_one(self):
        V = two_bump()
        xi = 1.3
        for x in (0.0, 5.0, 10.5, 50.0, 101.0, 150.0):
            n = pl.neumann_solution(V, xi, x)
            d = pl.propagate_to(V, xi, x, pl.SolutionState(0.0, 1.0, 0.0))
            wronskian = n.u * d.du - n.du * d.u
            assert wronskian == pytest.approx(1.0, abs=1e-10)


def _neumann_coeffs(V, xi, x):
    """Coordinates (a1, a2) of the Neumann solution in the free basis at x,
    u = a1 * sin(w x)/w + a2 * cos(w x) with w = sqrt(xi)."""
    s = pl.neumann_solution(V, xi, x)
    w = math.sqrt(xi)
    c, sn = math.cos(w * x), math.sin(w * x)
    return sn * w * s.u + c * s.du, c * s.u - sn * s.du / w


class TestVariationCoeffs:
    def test_free_coeffs_are_zero_one(self):
        V0 = pl.zero_potential()
        for x in (0.5, 10.0, 333.3):
            a1, a2 = _neumann_coeffs(V0, 1.9, x)
            assert a1 == pytest.approx(0.0, abs=1e-12)
            assert a2 == pytest.approx(1.0, abs=1e-12)

    def test_tilde_normalization(self):
        # kappa is (a1_tilde^2 + a2_tilde^2)/2 with a1_tilde = a1/sqrt(xi)
        # and a2_tilde = a2
        V = two_bump()
        xi = 2.2
        a1, a2 = _neumann_coeffs(V, xi, 57.0)
        expected = 0.5 * ((a1 / math.sqrt(xi)) ** 2 + a2**2)
        assert pl.kappa(V, 2, xi, 57.0).value == pytest.approx(expected, rel=1e-13)

    def test_constant_beyond_last_kept_bump(self):
        V = two_bump().truncate(1)
        xi = 1.1
        base = _neumann_coeffs(V, xi, 11.0)
        for x in (20.0, 75.0, 200.0):
            a1, a2 = _neumann_coeffs(V, xi, x)
            assert a1 == pytest.approx(base[0], abs=1e-10)
            assert a2 == pytest.approx(base[1], abs=1e-10)


class TestPropagateExtended:
    def test_derivative_pair_starts_at_zero(self):
        e = pl.extended_neumann(two_bump(), 1.0, 0.0)
        assert (e.u_xi, e.du_xi) == (0.0, 0.0)

    def test_free_u_xi_vanishes_at_pi(self):
        # d/dxi cos(sqrt(xi) x) = -x sin(sqrt(xi) x) / (2 sqrt(xi)), zero at
        # x = pi for xi = 1
        e = pl.extended_neumann(pl.zero_potential(), 1.0, math.pi)
        assert e.u_xi == pytest.approx(0.0, abs=1e-13)

    def test_free_u_xi_closed_form(self):
        xi, x = 1.7, 9.0
        e = pl.extended_neumann(pl.zero_potential(), xi, x)
        w = math.sqrt(xi)
        assert e.u_xi == pytest.approx(-x * math.sin(w * x) / (2 * w), rel=1e-12)

    def test_finite_difference_oracle_free(self):
        # central difference in xi of the propagated solution
        V0 = pl.zero_potential()
        xi, x, h = 1.0, 50.0, 1e-5
        e = pl.extended_neumann(V0, xi, x)
        up = pl.neumann_solution(V0, xi + h, x)
        dn = pl.neumann_solution(V0, xi - h, x)
        assert e.u_xi == pytest.approx((up.u - dn.u) / (2 * h), abs=1e-6)
        assert e.du_xi == pytest.approx((up.du - dn.du) / (2 * h), abs=1e-6)

    def test_finite_difference_oracle_with_bumps(self):
        V = two_bump()
        xi, x, h = 1.3, 120.0, 1e-5
        e = pl.extended_neumann(V, xi, x)
        up = pl.neumann_solution(V, xi + h, x)
        dn = pl.neumann_solution(V, xi - h, x)
        assert e.u_xi == pytest.approx((up.u - dn.u) / (2 * h), rel=1e-5, abs=1e-5)
        assert e.du_xi == pytest.approx((up.du - dn.du) / (2 * h), rel=1e-5, abs=1e-5)

    def test_complex_parameter_rejected(self):
        with pytest.raises(ValueError):
            pl.extended_neumann(pl.zero_potential(), complex(1.0, 0.5), 1.0)


class TestDeterminantConservation:
    def test_composed_transfer_over_real_grid(self):
        V = two_bump()
        for xi in (0.25, 1.0, 2.5, 4.0):
            for x in (10.5, 50.0, 150.0):
                T = pl.transfer_to(V, xi, x)
                assert abs(T.det() - 1.0) <= 1e-10 * max(1.0, x)

    def test_composed_transfer_on_strip_points(self):
        V = two_bump()
        for xi in (0.5, 1.0, 2.0):
            for x in (50.0, 150.0):
                for t in (-1.0, 0.5):
                    T = pl.transfer_to(V, xi + 1j * t / x, x)
                    assert abs(T.det() - 1.0) <= 1e-10 * max(1.0, x)

    def test_drift_budget_enforced_at_construction(self):
        bad = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]])
        with pytest.raises(DeterminantDriftError):
            pl.TransferMatrix(bad, 0.0, 1.0)

    def test_nan_determinant_is_drift(self):
        with pytest.raises(DeterminantDriftError):
            pl.TransferMatrix(np.array([[math.nan, 0.0], [0.0, 1.0]]), 0.0, 1.0)

    @pytest.mark.parametrize("walk", [pl.neumann_solution, pl.extended_neumann, pl.phase],
                             ids=["neumann", "extended", "phase"])
    def test_walks_enforce_the_budget(self, walk, monkeypatch):
        # the scalar free-gap maps run the same check as TransferMatrix
        monkeypatch.setattr(propagate, "DET_TOL_PER_UNIT", -1.0)
        propagate._extended_walk.cache_clear()
        with pytest.raises(DeterminantDriftError):
            walk(two_bump(), 1.37, 64.0)

    def test_rounding_of_large_entries_is_not_drift(self):
        # |ad| + |bc| is about 9.6e7 here, so evaluating ad - bc alone
        # rounds by about 2e-8, above the 2.9e-9 per-unit budget
        T = pl.free_transfer(0.1 + 0.3j, 1.0, 30.0)
        assert abs(T.det() - 1.0) > 1e-10 * 29.0


class TestComplexStripBoundedness:
    def test_norms_do_not_grow_past_thousand(self):
        # numerical reflection of the strip bound: sup over x in [1e3, 1e4]
        # must not exceed the sup over [1, 1e3] by more than 5 percent
        m = 2.0
        xi_grid = np.geomspace(1.0 / m, m, 9)
        t_grid = (-1.0, -0.5, 0.5, 1.0)

        def sup_over(xs):
            worst = 0.0
            for x in xs:
                for xi in xi_grid:
                    for t in t_grid:
                        T = pl.free_transfer(xi + 1j * t / x, 0.0, float(x))
                        worst = max(worst, np.linalg.norm(T.entries, 2))
            return worst

        small = sup_over(np.geomspace(1.0, 1e3, 25))
        large = sup_over(np.geomspace(1e3, 1e4, 25))
        assert np.isfinite(large)
        assert large <= small * 1.05


_V = two_bump()
_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: pl.phase(_V, 1.0, _NAN),
        lambda: pl.phase(_V, _NAN, 10.0),
        lambda: pl.eigenvalue_count(_V, 1.0, _NAN),
        lambda: pl.neumann_solution(_V, 1.0, _INF),
        lambda: pl.neumann_solution(_V, _NAN, 10.0),
        lambda: pl.extended_neumann(_V, 1.0, _INF),
        lambda: pl.free_transfer(1.0, 0.0, _NAN),
        lambda: pl.transfer_to(_V, complex(1.0, _NAN), 10.0),
        lambda: pl.cd_quadrature(_V, 1.0, 1.1, _INF),
        lambda: pl.cd_formula(_V, 1.0, _NAN, 10.0),
        lambda: pl.PearsonPotential(pl.canonical_bump(), (_NAN,), (_NAN,)),
        lambda: pl.PearsonPotential(pl.canonical_bump(), (_INF,), (10.0,)),
        lambda: pl.PearsonPotential(pl.canonical_bump(), (0.5,), (_INF,)),
    ],
    ids=[
        "phase-L", "phase-xi", "count-L", "neumann-x", "neumann-xi", "extended-x", "free-x1",
        "transfer-xi", "quadrature-L", "formula-zeta", "potential-nan",
        "potential-inf-amplitude", "potential-inf-center",
    ],
)
def test_non_finite_input_rejected(call):
    with pytest.raises(ValueError) as info:
        call()
    # CLI error rows are CSV fields, which must not contain commas
    assert "," not in str(info.value)
