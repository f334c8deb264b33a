import math
import pickle
from dataclasses import fields

import numpy as np
import pytest

import pearsonlab as pl
from pearsonlab.cli import canonical_potential
from pearsonlab.potential import (
    HatNSearchError,
    format_potential_config,
    parse_potential_config,
)
from pearsonlab.propagate import _extended_walk

from util import free_kappa_ratio, one_bump, sinc, two_bump


class TestCanonicalBump:
    def test_midpoint_value(self):
        assert pl.canonical_bump().evaluate(0.5) == pytest.approx(1.0, rel=1e-15)

    def test_boundary_values(self):
        W = pl.canonical_bump()
        assert W.evaluate(1.0) == 0.0
        assert W.evaluate(0.0) == 0.0
        assert W.evaluate(-0.3) == 0.0
        assert W.evaluate(2.0) == 0.0

    def test_quarter_point_value(self):
        # oracle: direct evaluation of exp(4 - 1/(x(1-x))) at x = 1/4,
        # i.e. exp(4 - 16/3); value frozen from math.exp(4 - 16/3)
        assert pl.canonical_bump().evaluate(0.25) == pytest.approx(
            0.2635971381157268, rel=1e-14
        )
        assert 0.0 < pl.canonical_bump().evaluate(0.25) < 1.0

    def test_nonnegative_and_bounded_by_sup(self):
        W = pl.canonical_bump()
        xs = np.linspace(-0.5, 1.5, 801)
        vals = [W.evaluate(float(x)) for x in xs]
        assert min(vals) >= 0.0
        assert max(vals) <= W.sup_norm + 1e-15

    def test_smoothness_by_finite_differences(self):
        # orders 1..4 must stay bounded across the support, including the
        # flat glue at the endpoints
        W = pl.canonical_bump()
        h = 1e-3
        xs = np.arange(-0.05, 1.05, h)
        vals = np.array([W.evaluate(float(x)) for x in xs])
        for order in (1, 2, 3, 4):
            d = np.diff(vals, n=order) / h**order
            assert np.all(np.isfinite(d))
            assert np.max(np.abs(d)) < 1e7


class TestPearsonPotential:
    def test_single_bump_midpoint(self):
        V = one_bump(0.5, 10.0)
        assert V.evaluate(10.5) == pytest.approx(0.5, rel=1e-15)

    def test_outside_supports(self):
        V = one_bump(0.5, 10.0)
        assert V.evaluate(5.0) == 0.0
        assert V.evaluate(11.5) == 0.0

    def test_second_bump_midpoint(self):
        V = pl.PearsonPotential(pl.canonical_bump(), (0.5, 0.25), (10.0, 100.0))
        assert V.evaluate(100.5) == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_position_rejected(self, x):
        with pytest.raises(ValueError, match="x must be finite"):
            one_bump(0.5, 10.0).evaluate(x)

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            one_bump().evaluate(-1.0)

    def test_overlapping_supports_rejected(self):
        with pytest.raises(ValueError):
            pl.PearsonPotential(pl.canonical_bump(), (0.5, 0.25), (10.0, 10.5))

    def test_increasing_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            pl.PearsonPotential(pl.canonical_bump(), (0.25, 0.5), (10.0, 20.0))

    def test_monotone_from_allows_early_growth(self):
        V = pl.PearsonPotential(
            pl.canonical_bump(), (0.25, 0.5, 0.4), (10.0, 20.0, 30.0), monotone_from=1
        )
        assert V.bump_count == 3

    def test_disjoint_support_scan(self):
        # the constructor scans every neighbouring pair; touching supports
        # share only an endpoint and are accepted
        V = pl.PearsonPotential(pl.canonical_bump(), (0.5, 0.25, 0.1), (10.0, 11.0, 12.0))
        assert V.centers == (10.0, 11.0, 12.0)
        with pytest.raises(ValueError, match="overlap"):
            pl.PearsonPotential(pl.canonical_bump(), (0.5, 0.25, 0.1), (10.0, 20.0, 20.5))

    def test_equal_potentials_share_one_walk(self):
        # the hash is taken once, from the numeric fields only, so a pickled copy
        # (as a worker process receives it) hashes like the original
        V, W = canonical_potential().build(), canonical_potential().build()
        copy = pickle.loads(pickle.dumps(V))
        assert V == W == copy and hash(V) == hash(W) == hash(copy)
        assert hash(V) == hash((V.amplitudes, V.centers, V.monotone_from))
        _extended_walk.cache_clear()
        for U in (V, W, copy):
            pl.extended_neumann(U, 1.0, 1e3)
        info = _extended_walk.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_at_most_one_active_bump(self):
        V = two_bump()
        for x in np.linspace(0.0, 120.0, 1201):
            active = [
                k
                for k, c in enumerate(V.centers)
                if c < x < c + 1.0 and V.profile.evaluate(x - c) != 0.0
            ]
            assert len(active) <= 1


class TestTruncate:
    def test_zero_level_is_free(self):
        V = two_bump()
        V0 = V.truncate(0)
        for x in (0.0, 10.5, 100.5, 300.0):
            assert V0.evaluate(x) == 0.0

    def test_agreement_below_next_center(self):
        V = two_bump()
        V1 = V.truncate(1)
        for x in np.linspace(0.0, 99.999, 500):
            assert V1.evaluate(float(x)) == V.evaluate(float(x))
        assert V1.evaluate(100.5) == 0.0 != V.evaluate(100.5)

    def test_level_beyond_count_rejected(self):
        with pytest.raises(ValueError):
            two_bump().truncate(3)

    def test_free_evolution_beyond_kept_bumps(self):
        # beyond N_ell + 1 the truncated eigenfunction evolves freely:
        # propagating to x must match the free transfer applied to the
        # state at N_ell + 1
        V = two_bump().truncate(1)
        xi = 1.7
        s11 = pl.neumann_solution(V, xi, 11.0)
        s40 = pl.neumann_solution(V, xi, 40.0)
        u, du = pl.free_transfer(xi, 11.0, 40.0).entries @ (s11.u, s11.du)
        assert s40.u == pytest.approx(u, rel=1e-12, abs=1e-12)
        assert s40.du == pytest.approx(du, rel=1e-12, abs=1e-12)


class TestGeometricSchedule:
    def test_powers_of_ten(self):
        V = pl.geometric_schedule([0.5, 0.4, 0.3], 10.0, 10.0, 3)
        assert V.centers == (10.0, 100.0, 1000.0)

    def test_powers_of_two(self):
        V = pl.geometric_schedule([0.5, 0.4, 0.3, 0.2], 4.0, 2.0, 4)
        assert V.centers == (4.0, 8.0, 16.0, 32.0)

    def test_center_ratio_bound(self):
        gamma = 3.7
        V = pl.geometric_schedule([0.5] * 8, 7.0, gamma, 8, )
        for a, b in zip(V.centers, V.centers[1:]):
            assert a / b <= 1.0 / gamma + 1.0 / a

    def test_gamma_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            pl.geometric_schedule([0.5], 10.0, 1.0, 1)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and exceed 1"):
            pl.geometric_schedule([0.5], 10.0, gamma, 1)

    @pytest.mark.parametrize("n1", [0.5, math.inf, math.nan])
    def test_bad_first_center_rejected(self, n1):
        with pytest.raises(ValueError, match="first center must be finite and at least 1"):
            pl.geometric_schedule([0.5], n1, 10.0, 1)

    def test_center_past_the_largest_double_rejected(self):
        # 10 * 10^k overflows at the 309th center; the last center is
        # the 308th, so 308 bumps build and 309 do not
        assert len(pl.geometric_schedule([0.5] * 308, 10.0, 10.0, 308).centers) == 308
        with pytest.raises(ValueError, match="center 309 of the schedule is not finite"):
            pl.geometric_schedule([0.5] * 400, 10.0, 10.0, 400)

    def test_no_center_is_computed_for_count_zero(self):
        assert pl.geometric_schedule([], 10.0, 10.0, 0).centers == ()


class TestZeroAmplitude:
    def test_zero_amplitudes_evaluate_to_zero(self):
        V = pl.PearsonPotential(pl.canonical_bump(), (0.0, 0.0), (10.0, 100.0))
        for x in np.linspace(0.0, 120.0, 300):
            assert V.evaluate(float(x)) == 0.0

    def test_zero_amplitudes_propagate_freely(self):
        V = pl.PearsonPotential(pl.canonical_bump(), (0.0, 0.0), (10.0, 100.0))
        xi = 2.3
        s = pl.neumann_solution(V, xi, 120.0)
        w = math.sqrt(xi)
        assert s.u == pytest.approx(math.cos(w * 120.0), abs=1e-10)
        assert s.du == pytest.approx(-w * math.sin(w * 120.0), abs=1e-10)


class TestEmpiricalHatN:
    def test_free_case_matches_analytic_search(self):
        # oracle: run the same geometric search with the closed-form free
        # ratio; the propagation-based search must return the same length
        V = pl.zero_potential()
        tol, window, ab_bound = 0.5, (0.5, 2.0), 2.0
        xi_grid = [0.5 + 1.5 * i / 16 for i in range(17)]
        ab_grid = [-2.0 + 4.0 * i / 4 for i in range(5)]
        trials = [8.0 * 2.0**k for k in range(12)]

        def sup_err(x):
            worst = 0.0
            for xi in xi_grid:
                for a in ab_grid:
                    for b in ab_grid:
                        target = sinc((b - a) / (2 * math.sqrt(xi)))
                        worst = max(worst, abs(free_kappa_ratio(xi, a, b, x) - target))
            return worst

        errs = [sup_err(t) for t in trials]
        expected = None
        for i, t in enumerate(trials):
            if all(
                errs[j] < tol
                for j in range(i, len(trials))
                if trials[j] <= 4.0 * t * (1 + 1e-12)
            ):
                expected = t
                break
        assert expected is not None
        got = pl.empirical_hat_N(V, 0, tol, window, ab_bound)
        assert got == expected

    def test_loose_tolerance_returns_first_trial(self):
        got = pl.empirical_hat_N(pl.zero_potential(), 0, 10.0, (0.5, 2.0), 2.0)
        assert got == 8.0

    def test_monotone_in_tolerance(self):
        V = pl.zero_potential()
        tight = pl.empirical_hat_N(V, 0, 0.05, (0.5, 2.0), 2.0)
        loose = pl.empirical_hat_N(V, 0, 0.5, (0.5, 2.0), 2.0)
        assert tight >= loose

    def test_failure_reported(self):
        with pytest.raises(HatNSearchError):
            pl.empirical_hat_N(pl.zero_potential(), 0, 1e-9, (0.5, 2.0), 2.0)

    @pytest.mark.parametrize("ell", [0, 1])
    def test_canonical_matches_eager_search(self, ell):
        # oracle: every trial's sup error from the public kappa_ratio, one
        # pair at a time, then the scan over all of them; the search, which
        # stops once its answer is settled, must return the same length
        V = canonical_potential().build()
        xi_grid = [0.5 + 1.5 * i / 4 for i in range(5)]
        ab_grid = [-1.0 + 2.0 * i / 4 for i in range(5)]
        trials = [8.0 * 2.0**k for k in range(12)]
        errs = [
            max(abs(pl.kappa_ratio(V, ell, xi, a, b, x) - pl.sine_kernel(xi, a, b))
                for xi in xi_grid for a in ab_grid for b in ab_grid)
            for x in trials
        ]
        for tol in (0.05, 0.2, 0.5):
            expected = next(
                t for i, t in enumerate(trials)
                if all(e < tol for e, s in zip(errs[i:], trials[i:]) if s <= 4.0 * t * (1 + 1e-12))
            )
            assert pl.empirical_hat_N(V, ell, tol, (0.5, 2.0), 1.0, xi_points=5) == expected

    def test_nan_ratio_fails_its_trial(self, monkeypatch):
        # the seed-0 search returns 32; a NaN ratio in its trial-32 grid is
        # not sinc-close, so that trial fails and the answer moves on
        from pearsonlab import kernel

        original = kernel._ratio_grid

        def with_nan(V, xi, a_grid, b_grid, x, steps, **kwargs):
            grid = original(V, xi, a_grid, b_grid, x, steps, **kwargs)
            if x == 32.0:
                grid[0][0] = math.nan
            return grid

        V = canonical_potential().build()
        assert pl.empirical_hat_N(V, 1, 0.5, (0.5, 2.0), 1.0, xi_points=5) == 32.0
        monkeypatch.setattr(kernel, "_ratio_grid", with_nan)
        assert pl.empirical_hat_N(V, 1, 0.5, (0.5, 2.0), 1.0, xi_points=5) == 64.0

    @pytest.mark.parametrize(
        "window", [(0.5, math.inf), (math.nan, 2.0), (0.5, math.nan), (math.inf, math.inf)])
    def test_non_finite_window_rejected(self, window):
        with pytest.raises(ValueError, match="window") as err:
            pl.empirical_hat_N(pl.zero_potential(), 0, 0.5, window, 2.0)
        assert "," not in str(err.value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": math.nan},
            {"ab_bound": math.nan},
            {"xi_points": 0},
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_bad_arguments_rejected_up_front(self, kwargs):
        # each of these used to search on NaN or silently shrink a grid to
        # one point; the CLI writes the message into a CSV
        args = {"tolerance": 0.5, "ab_bound": 2.0, **kwargs}
        tolerance, ab_bound = args.pop("tolerance"), args.pop("ab_bound")
        with pytest.raises(ValueError) as err:
            pl.empirical_hat_N(pl.zero_potential(), 0, tolerance, (0.5, 2.0), ab_bound, **args)
        assert "," not in str(err.value)

    @pytest.mark.parametrize("ab_bound", [math.inf, -math.inf, -1.0, math.nan])
    def test_bad_ab_bound_named(self, ab_bound):
        # inf used to reach sine_kernel as a NaN shift and fail there
        with pytest.raises(ValueError, match="ab_bound") as err:
            pl.empirical_hat_N(pl.zero_potential(), 0, 0.5, (0.5, 2.0), ab_bound)
        assert "," not in str(err.value)


class TestConfigRoundTrip:
    def test_list_spec_round_trip(self):
        spec = pl.PotentialSpec(
            amplitude_rule="list",
            amplitude_values=(0.5, 0.25),
            center_rule="list",
            center_values=(10.0, 100.0),
            count=2,
        )
        text = format_potential_config(spec)
        back = parse_potential_config(text)
        assert back == spec
        assert back.build() == spec.build()

    def test_power_geometric_round_trip(self):
        spec = pl.PotentialSpec(
            amplitude_rule="power",
            amplitude_c=1.0,
            amplitude_p=0.25,
            center_rule="geometric",
            center_n1=10.0,
            center_gamma=10.0,
            count=5,
        )
        back = parse_potential_config(format_potential_config(spec))
        V1, V2 = spec.build(), back.build()
        assert V1.amplitudes == V2.amplitudes
        assert V1.centers == V2.centers

    def test_power_rule_values(self):
        spec = pl.PotentialSpec(
            amplitude_rule="power", amplitude_c=2.0, amplitude_p=0.5,
            center_rule="geometric", count=3,
        )
        V = spec.build()
        assert V.amplitudes == pytest.approx((2.0, 2.0 / math.sqrt(2), 2.0 / math.sqrt(3)))

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_potential_config("profile = canonical\nwibble = 3\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_potential_config("profile = canonical\nnonsense line\n")

    def test_bad_list_entry_names_key(self):
        with pytest.raises(ValueError, match="key 'amplitude_values'"):
            parse_potential_config("amplitude_values = 1, x\ncenter_values = 10, 100\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="line 2: duplicate key 'count'"):
            parse_potential_config("count = 3\ncount = 5\n")

    def test_list_spec_without_count_counts_amplitudes(self):
        spec = parse_potential_config("amplitude_values = 0.5, 0.25\ncenter_values = 10, 100\n")
        assert spec.count == len(spec.amplitude_values) == 2

    @pytest.mark.parametrize("count", [5, 0])
    def test_list_count_checked_at_build(self, count):
        # count = 5 used to build 2 bumps without a word, and neither spec
        # read back from its own text
        spec = pl.PotentialSpec(amplitude_values=(0.5, 0.25), center_values=(10.0, 100.0),
                                count=count)
        with pytest.raises(ValueError, match=f"count {count} differs from the 2 amplitude_values"):
            spec.build()

    @pytest.mark.parametrize("centers", ["center_values = 10, 100", "center_rule = geometric"])
    @pytest.mark.parametrize("count", [5, 0, 1])
    def test_list_count_must_match_amplitudes(self, count, centers):
        # a count that differs from the list used to be silently ignored
        with pytest.raises(ValueError, match=f"count {count} differs from the 2 amplitude_values"):
            parse_potential_config(f"amplitude_values = 0.5, 0.25\n{centers}\ncount = {count}\n")

    def test_every_field_is_a_key_of_its_default_type(self):
        spec = parse_potential_config(
            "profile = canonical\namplitude_rule = power\namplitude_values = 0.5\n"
            "amplitude_c = 2\namplitude_p = 0.5\ncenter_rule = geometric\n"
            "center_values = 10\ncenter_n1 = 20\ncenter_gamma = 3\ncount = 2\n"
        )
        assert pl.potential.POTENTIAL_KEYS == {f.name for f in fields(pl.PotentialSpec)}
        for f in fields(pl.PotentialSpec):
            assert type(getattr(spec, f.name)) is type(f.default), f.name

    def test_negative_count_rejected(self):
        spec = pl.PotentialSpec(amplitude_rule="power", center_rule="geometric", count=-2)
        with pytest.raises(ValueError, match=r"count must be non-negative \(got -2\)"):
            spec.build()

    def test_hyphenated_key_read_as_underscore(self):
        spec = parse_potential_config(
            "amplitude-rule = power\ncenter-rule = geometric\ncenter-n1 = 20\ncount = 2\n"
        )
        assert spec.build().centers == (20.0, 200.0)
