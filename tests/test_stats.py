import math

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtr, stdtr, stdtrit

from ucp_locality.stats import (
    ci95_mean,
    interval_plot_data,
    level_counts,
    moments,
    normal_cdf,
    spearman,
    t_quantile_975,
    t_two_sided_p,
)

from conftest import make_dataset, make_project


class TestMoments:
    def test_symmetric_sample(self):
        m = moments([1.0, 2.0, 3.0])
        assert m.mean == 2
        assert m.skewness == 0

    def test_constant_sample_flagged(self):
        m = moments([5.0, 5.0, 5.0])
        assert m.stdev == 0
        assert math.isnan(m.skewness) and math.isnan(m.kurtosis)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            moments([1.0])

    def test_matches_reference_estimators(self, rng):
        for _ in range(25):
            x = rng.lognormal(1, 0.8, rng.integers(5, 60))
            m = moments(x)
            assert m.mean == pytest.approx(x.mean())
            assert m.stdev == pytest.approx(x.std(ddof=1))
            assert m.skewness == pytest.approx(sps.skew(x, bias=False), rel=1e-9)
            assert m.kurtosis == pytest.approx(
                sps.kurtosis(x, bias=False, fisher=True), rel=1e-9)

    def test_affine_invariance_of_shape(self, rng):
        x = rng.lognormal(0, 1, 80)
        m1 = moments(x)
        m2 = moments(2.5 * x + 7.0)
        assert m2.mean == pytest.approx(2.5 * m1.mean + 7.0)
        assert m2.stdev == pytest.approx(2.5 * m1.stdev)
        assert m2.skewness == pytest.approx(m1.skewness, rel=1e-9)
        assert m2.kurtosis == pytest.approx(m1.kurtosis, rel=1e-9)


class TestSpearman:
    def test_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]).r == 1
        assert spearman([1, 2, 3], [10, 20, 30]).p_value == 0

    def test_anti_monotone(self):
        assert spearman([1, 2, 3], [30, 20, 10]).r == -1

    def test_matches_reference_with_ties(self, rng):
        for _ in range(25):
            n = int(rng.integers(8, 60))
            x = rng.integers(0, 6, n).astype(float)
            y = rng.normal(0, 1, n) + x
            if np.all(x == x[0]):
                continue
            ours = spearman(x, y)
            ref_r, ref_p = sps.spearmanr(x, y)
            assert ours.r == pytest.approx(ref_r, abs=1e-12)
            assert ours.p_value == pytest.approx(ref_p, abs=1e-9)

    def test_rank_invariance_under_monotone_transforms(self, rng):
        x = rng.uniform(1, 10, 40)
        y = rng.uniform(1, 10, 40)
        base = spearman(x, y).r
        assert spearman(np.exp(x), y ** 3).r == pytest.approx(base, abs=1e-12)
        assert spearman(np.log(x), np.sqrt(y)).r == pytest.approx(base, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            spearman([1, 2, 3], [1, 2])
        with pytest.raises(ValueError, match="constant"):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError):
            spearman([1, 2], [3, 4])


class TestTTail:
    def test_matches_scipy(self):
        t = np.concatenate([np.geomspace(1e-3, 50, 400), -np.geomspace(1e-3, 50, 7)])
        for dof in range(1, 301):
            want = 2.0 * stdtr(dof, -np.abs(t))
            assert np.max(np.abs(t_two_sided_p(t, dof) - want)) <= 1e-13, dof

    def test_closed_forms_at_tiny_t(self):
        # scipy is no oracle here: 2 * stdtr(1, -1e-8) is off by 3e-9
        for t in (1e-300, 1e-12, 1e-8, -1e-8, 1e-6, 1e-4):
            a = abs(t)
            assert abs(float(t_two_sided_p(t, 1))
                       - (1.0 - 2.0 / math.pi * math.atan(a))) <= 1e-15
            assert abs(float(t_two_sided_p(t, 2))
                       - (1.0 - a / math.sqrt(2.0 + a * a))) <= 1e-15

    def test_edge_values(self):
        for dof in (1, 2, 3, 4, 7, 30, 101):
            assert float(t_two_sided_p(0.0, dof)) == 1.0
            assert float(t_two_sided_p(-0.0, dof)) == 1.0
            assert float(t_two_sided_p(np.inf, dof)) == 0.0
            assert float(t_two_sided_p(-np.inf, dof)) == 0.0
            assert float(t_two_sided_p(1e300, dof)) == 0.0
        with pytest.raises(ValueError, match="dof"):
            t_two_sided_p(1.0, 0)

    def test_outputs_in_unit_interval_and_shape_kept(self, rng):
        t = np.concatenate([rng.standard_cauchy(500) * 10.0 ** rng.integers(-8, 9, 500),
                            [0.0, np.inf, -np.inf, 1e308]]).reshape(2, 2, 126)
        for dof in (1, 2, 3, 8, 33, 300):
            p = t_two_sided_p(t, dof)
            assert p.shape == t.shape
            assert np.all((p >= 0.0) & (p <= 1.0))
        assert t_two_sided_p(np.empty((0, 3)), 5).shape == (0, 3)

    def test_each_value_independent_of_its_array(self, rng):
        t = rng.normal(0, 4, (64, 5))
        for dof in (1, 2, 5, 36):
            stacked = t_two_sided_p(t, dof)
            alone = [float(t_two_sided_p(v, dof)) for v in t.ravel()]
            assert stacked.ravel().tolist() == alone


class TestTQuantile:
    def test_matches_scipy(self):
        for dof in range(1, 301):
            want = float(stdtrit(dof, 0.975))
            assert abs(t_quantile_975(dof) - want) <= 5e-14 * want, dof

    def test_closed_forms(self):
        for dof, want in ((1, math.tan(0.475 * math.pi)),
                          (2, 0.95 * math.sqrt(2.0 / (1.0 - 0.95 ** 2)))):
            assert abs(t_quantile_975(dof) - want) <= 1e-14 * want

    def test_dof_validated(self):
        with pytest.raises(ValueError, match="dof"):
            t_quantile_975(0)


class TestNormalCdf:
    def test_matches_scipy(self):
        x = np.concatenate([np.linspace(-40, 40, 80001), [0.0, -0.0, np.inf, -np.inf]])
        assert np.max(np.abs(normal_cdf(x) - ndtr(x))) <= 1e-15

    def test_shape_kept(self):
        assert normal_cdf(np.zeros((2, 3))).tolist() == [[0.5] * 3] * 2
        assert normal_cdf(np.empty(0)).shape == (0,)
        assert normal_cdf(1.0).shape == ()
        assert float(normal_cdf(1.0)) == pytest.approx(0.8413447460685429, abs=1e-15)


class TestCi95:
    def test_zero_variance(self):
        assert ci95_mean([10, 10, 10, 10]) == (10, 10)

    def test_known_interval(self):
        low, high = ci95_mean([1, 2, 3, 4, 5])
        assert low == pytest.approx(1.0368, abs=1e-4)
        assert high == pytest.approx(4.9632, abs=1e-4)

    def test_single_value_undefined(self):
        assert ci95_mean([3.0]) is None

    def test_width_shrinks_with_n(self, rng):
        widths = []
        for n in (50, 200, 800):
            x = rng.standard_normal(n)
            low, high = ci95_mean(x)
            widths.append(high - low)
        assert widths[0] > widths[1] > widths[2]
        # roughly 1/sqrt(n): quadrupling n about halves the width
        assert widths[0] / widths[1] == pytest.approx(2.0, rel=0.35)


def _level_dataset():
    # e5 strictly decreases PDR per level; one singleton at level 5
    projects = []
    pid = 0
    for level, base in ((1, 30.0), (2, 26.0), (3, 22.0), (4, 18.0)):
        for d in (-1.0, 0.0, 1.0):
            env = [3] * 8
            env[4] = level
            projects.append(make_project(
                f"p{pid}", env=tuple(env), effort=(base + d) * 110.0))
            pid += 1
    env = [3] * 8
    env[4] = 5
    projects.append(make_project("single", env=tuple(env), effort=10.0 * 110.0))
    return make_dataset(projects)


class TestIntervalPlotData:
    def test_monotone_level_means(self):
        summaries = interval_plot_data(_level_dataset(), 5)
        means = [s.mean for s in summaries]
        assert means == sorted(means, reverse=True)
        assert [s.level for s in summaries] == [1, 2, 3, 4, 5]

    def test_single_member_level_flagged(self):
        summaries = interval_plot_data(_level_dataset(), 5)
        single = summaries[-1]
        assert single.count == 1
        assert not single.ci_defined

    def test_ci_brackets_mean(self):
        for s in interval_plot_data(_level_dataset(), 5):
            if s.ci_defined:
                assert s.ci_low <= s.mean <= s.ci_high

    def test_factor_index_validated(self):
        with pytest.raises(ValueError):
            interval_plot_data(_level_dataset(), 9)


class TestLevelCounts:
    def test_counts_sum_to_size(self, small_synthetic):
        for i in range(1, 9):
            assert sum(level_counts(small_synthetic, i)) == len(small_synthetic)

    def test_known_occupancy(self):
        d = _level_dataset()
        counts = level_counts(d, 5)
        assert counts == (0, 3, 3, 3, 3, 1)
        assert level_counts(d, 1) == (0, 0, 0, 13, 0, 0)
