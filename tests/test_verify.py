import math
import re

import numpy as np
import pytest

import pearsonlab as pl


class TestTransferBoundProbe:
    def test_single_point_interval_is_rotations(self):
        # I_1 = {1}: with t = 0 the transfer is a pure rotation, norm 1
        probe = pl.probe_transfer_bound(1, x_grid=(1.0, 5.0, 20.0), t_grid=(0.0,))
        assert probe.verdict == "recorded"
        assert probe.measured == pytest.approx(1.0, rel=1e-12)
        assert probe.measured >= 1.0 - 1e-12

    def test_nested_intervals_grow(self):
        xg = tuple(np.geomspace(1.0, 50.0, 7))
        tg = (-1.0, 0.0, 1.0)
        m1 = pl.probe_transfer_bound(1, xg, tg).measured
        m4 = pl.probe_transfer_bound(4, xg, tg).measured
        assert m4 >= m1

    def test_sup_stable_in_x(self):
        # strip bound: moving the x-grid far out grows the sup by < 5 percent
        tg = (-1.0, -0.5, 0.0, 0.5, 1.0)
        near = pl.transfer_norm_sup(2, np.geomspace(1.0, 10.0, 21), tg)
        far = pl.transfer_norm_sup(2, np.geomspace(1e3, 1e4, 21), tg)
        assert far < near * 1.05

    def test_inverse_norm_equals_norm_for_unit_det(self):
        (a, b), (c, d) = T = pl.free_transfer(1.5 + 0.3j, 0.0, 7.0).entries
        inverse = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
        np.testing.assert_allclose(inverse @ T, np.eye(2), atol=1e-12)
        assert np.linalg.norm(inverse, 2) == pytest.approx(np.linalg.norm(T, 2), rel=1e-10)

    def test_sup_covers_the_inverse(self):
        # the sup of ||T|| alone equals the sup of max(||T||, ||T^-1||),
        # T^-1 taken as the adjugate over the determinant, on the grid of
        # transfer_norm_sup itself
        x_grid, t_grid = np.geomspace(0.5, 200.0, 13), (-1.0, -0.5, 0.0, 0.5, 1.0)
        for m in (1, 2, 4):
            worst = 0.0
            for t in t_grid:
                for x in x_grid:
                    for xi in [1.0] if m == 1 else np.geomspace(1.0 / m, m, 17):
                        T = pl.free_transfer(xi + 1j * t / x if t != 0.0 else xi, 0.0, x).entries
                        (a, b), (c, d) = T
                        inv = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
                        worst = max(worst, np.linalg.norm(T, 2), np.linalg.norm(inv, 2))
            assert pl.transfer_norm_sup(m, x_grid, t_grid) == pytest.approx(worst, rel=1e-14)

    @pytest.mark.parametrize("m, x, t, bad", [
        (0.5, 1.0, 0.5, 0.5), (math.inf, 1.0, 0.5, math.inf), (math.nan, 1.0, 0.5, math.nan),
        (2, 0.0, 0.5, 0.0), (2, -1.0, 0.5, -1.0), (2, math.inf, 0.5, math.inf), (2, math.nan, 0.5, math.nan),
        (2, 1.0, math.nan, math.nan), (2, 1.0, 1.5, 1.5), (2, 1.0, -math.inf, -math.inf),
    ])
    def test_bad_strip_input_rejected(self, m, x, t, bad):
        # 1 <= m < inf, 0 < x < inf and |t| <= 1, NaN included; the error names the value
        with pytest.raises(ValueError, match=re.escape(f"(got {bad!r})")):
            pl.transfer_norm_sup(m, (x,), (t,))


class TestOneBumpProbe:
    def test_tiny_amplitude_linear_bound(self):
        probe = pl.probe_one_bump(1e-6, 1.0)
        # ||A - B|| <= measured * |lam| at tiny amplitude
        F = pl.free_transfer(1.0, 0.0, 1.0).entries
        B = pl.bump_transfer(pl.canonical_bump(), 1e-6, 1.0).entries
        assert np.linalg.norm(F - B, 2) <= probe.measured * 1e-6 * (1 + 1e-6)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            pl.probe_one_bump(0.0, 1.0)

    def test_ratio_stability_across_decades(self):
        probe = pl.probe_one_bump(1e-2, 1.0)
        assert probe.verdict == "pass"
        assert probe.parameters["spread"] <= 1.2

    def test_difference_propagates_by_free_rotation(self):
        # past the support, A(x) - B(x) = T(x, 1) (A(1) - B(1)): the norm at
        # x > 1 stays within the free-rotation norm factor of the norm at 1
        lam, xi = 1e-3, 1.0
        F1 = pl.free_transfer(xi, 0.0, 1.0).entries
        B1 = pl.bump_transfer(pl.canonical_bump(), lam, xi).entries
        d1 = np.linalg.norm(F1 - B1, 2)
        for x in (2.0, 5.0):
            T = pl.free_transfer(xi, 1.0, x).entries
            Fx = pl.free_transfer(xi, 0.0, x).entries
            Bx = T @ B1
            dx = np.linalg.norm(Fx - Bx, 2)
            bound = np.linalg.norm(T, 2) * d1
            assert dx <= bound * (1 + 1e-12)
            # and the exact identity A(x) - B(x) = T (A(1) - B(1))
            assert np.allclose(Fx - Bx, T @ (F1 - B1), atol=1e-13)


class TestTruncationStepProbe:
    def test_zero_new_amplitude_gives_zero(self):
        V = pl.PearsonPotential(pl.canonical_bump(), (0.5, 0.0), (10.0, 100.0))
        probe = pl.probe_truncation_step(V, 1, 1.0, (100.0, 100.0))
        assert probe.measured == 0.0
        assert probe.verdict == "pass"

    def test_truncations_agree_below_new_bump(self):
        V = pl.PearsonPotential(pl.canonical_bump(), (0.5, 0.25), (10.0, 100.0))
        xi = 1.2
        lo = pl.neumann_solution(V.truncate(1), xi, 50.0)
        hi = pl.neumann_solution(V.truncate(2), xi, 50.0)
        assert hi.u == lo.u and hi.du == lo.du

    def test_two_amplitude_stability(self):
        V = pl.PearsonPotential(
            pl.canonical_bump(), (0.5, 1e-2), (10.0, 100.0), monotone_from=2
        )
        grid = tuple(np.linspace(100.0, 160.0, 5))
        probe = pl.probe_truncation_step(V, 1, 1.0, grid)
        assert probe.verdict == "pass"
        assert probe.parameters["spread"] <= 1.2

    def test_grid_outside_window_rejected(self):
        V = pl.PearsonPotential(pl.canonical_bump(), (0.5, 0.25), (10.0, 100.0))
        with pytest.raises(ValueError):
            pl.probe_truncation_step(V, 1, 1.0, (50.0,))

    def test_fields_from_the_two_truncations(self):
        # measured is the largest |(u, u')| change relative to the ell-bump
        # solution over |lam|, half_comparison_ratio the smallest norm ratio
        V = pl.PearsonPotential(
            pl.canonical_bump(), (0.5, 0.2), (10.0, 100.0), monotone_from=2
        )
        grid = (100.0, 130.0, 160.0)
        probe = pl.probe_truncation_step(V, 1, 1.0, grid)
        pairs = [
            (pl.neumann_solution(V.truncate(1), 1.0, x), pl.neumann_solution(V, 1.0, x))
            for x in grid
        ]

        def norm(s):
            return math.hypot(s.u, s.du)

        change = max(math.hypot(hi.u - lo.u, hi.du - lo.du) / norm(lo) for lo, hi in pairs)
        assert probe.measured == pytest.approx(change / 0.2, rel=1e-14)
        ratio = min(norm(hi) / norm(lo) for lo, hi in pairs)
        assert probe.parameters["half_comparison_ratio"] == pytest.approx(ratio, rel=1e-14)

    def test_half_comparison_recorded(self):
        V = pl.PearsonPotential(
            pl.canonical_bump(), (0.5, 1e-3), (10.0, 100.0), monotone_from=2
        )
        probe = pl.probe_truncation_step(V, 1, 1.0, (100.0, 130.0, 160.0))
        assert probe.parameters["half_comparison_ratio"] >= 0.5


class TestKappaScheduleProbe:
    def test_power_decay_constant_interval(self):
        lams = [(n + 1) ** -0.25 for n in range(20)]
        probe = pl.probe_kappa_schedule(lams, [1] * 20)
        assert probe.verdict == "pass"
        assert probe.measured == pytest.approx(
            lams[0] * pl.empirical_m_tilde(1) ** 6, rel=1e-9
        )

    def test_constant_amplitude_growing_interval_fails(self):
        lams = [0.5] * 6
        ms = [1, 1, 2, 2, 3, 3]
        probe = pl.probe_kappa_schedule(lams, ms)
        assert probe.verdict == "fail"

    def test_staircase_keeps_products_decreasing(self):
        lams = [(n + 1) ** -0.25 for n in range(10, 101)]
        ms = pl.staircase_m(lams, m_max=3)
        assert all(b >= a for a, b in zip(ms, ms[1:]))  # nondecreasing levels
        probe = pl.probe_kappa_schedule(lams, ms)
        assert probe.verdict == "pass"

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_rejected(self, lam):
        with pytest.raises(ValueError, match=re.escape(f"amplitudes must be finite (got {lam!r})")):
            pl.probe_kappa_schedule([0.5, lam], [1, 1])

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_staircase_rejects_non_finite_amplitude(self, lam):
        with pytest.raises(ValueError, match=re.escape(f"amplitudes must be finite (got {lam!r})")):
            pl.staircase_m([lam, 0.1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pl.probe_kappa_schedule([0.5], [1, 1])

    @pytest.mark.parametrize("call, bad", [
        (lambda: pl.empirical_m_tilde(0), 0),
        (lambda: pl.empirical_m_tilde(-1), -1),
        (lambda: pl.empirical_m_tilde(math.nan), math.nan),
        (lambda: pl.staircase_m([1.0, 0.5, 0.1], m_max=0), 0),
        (lambda: pl.staircase_m([0.5], m_max=-3), -3),
        (lambda: pl.probe_kappa_schedule([0.5], [-1]), -1),
        (lambda: pl.probe_kappa_schedule([0.5, 0.4], [1, 0]), 0),
        (lambda: pl.empirical_m_tilde(1.5), 1.5),
        (lambda: pl.staircase_m([0.5], m_max=2.5), 2.5),
        (lambda: pl.probe_kappa_schedule([0.5], [1.5]), 1.5),
    ], ids=["m_tilde-0", "m_tilde-neg", "m_tilde-nan", "staircase-0", "staircase-neg",
            "schedule-neg", "schedule-0", "m_tilde-fraction", "staircase-fraction",
            "schedule-fraction"])
    def test_bad_interval_index_rejected(self, call, bad):
        # an interval index that is not an integer of at least 1 raises, naming it
        with pytest.raises(ValueError, match=re.escape(f"(got {bad!r})")):
            call()

    def test_whole_float_index_reads_as_its_integer(self):
        # range() in staircase_m used to reject m_max = 2.0 with a TypeError
        assert pl.staircase_m([0.5, 0.1], m_max=2.0) == pl.staircase_m([0.5, 0.1], m_max=2)
        assert pl.probe_kappa_schedule([0.5], [2.0]) == pl.probe_kappa_schedule([0.5], [2])


class TestBoundProbeInvariants:
    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            pl.BoundProbe("x", {}, measured=1.0, verdict="maybe")

    def test_deterministic_rerun(self):
        a = pl.probe_one_bump(1e-3, 1.3)
        b = pl.probe_one_bump(1e-3, 1.3)
        assert a == b
