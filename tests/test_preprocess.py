import math

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtr, ndtri

from ucp_locality.preprocess import (
    minmax_apply,
    minmax_fit,
    normality_check,
    remove_outliers,
    zscore_outliers,
)

from conftest import make_dataset, make_project


def dataset_with_efforts(efforts):
    return make_dataset([
        make_project(f"p{i}", effort=e) for i, e in enumerate(efforts)
    ])


# The datasets below vary only effort: the size columns are constant, so
# the screen skips them, and pdr (effort over a constant UCP) moves with
# effort.
class TestZscoreOutliers:
    def test_single_spike_z_value(self):
        # nineteen identical values and one far point: mean 0.5, sample
        # stdev sqrt(5), so the spike sits at z = 9.5 / sqrt(5)
        efforts = [100.0] * 19 + [1000.0]
        values = np.array(efforts)
        z = (values[-1] - values.mean()) / values.std(ddof=1)
        scaled = [1.0] * 19 + [10.0]
        expected = (10.0 - np.mean(scaled)) / np.std(scaled, ddof=1)
        assert expected == pytest.approx(9.5 / math.sqrt(5))
        assert expected == pytest.approx(4.2485, abs=1e-4)
        assert z == pytest.approx(expected)

        d = dataset_with_efforts(efforts)
        report = zscore_outliers(d, threshold=3.0)
        assert report.flagged_ids == ("p19",)
        assert report.zscores[19, 0] == pytest.approx(expected)

    def test_constant_feature_skipped(self):
        # pdr is 100/110 in every row, and the mean of the ten copies rounds
        # away from it, so a stdev test would not see the column as constant
        d = dataset_with_efforts([100.0] * 10)
        report = zscore_outliers(d)
        assert report.flagged_ids == ()
        assert np.isnan(report.zscores).all()

    def test_all_equal_no_flags(self):
        d = dataset_with_efforts([100.0] * 12)
        report = zscore_outliers(d)
        assert not any(report.flagged)

    def test_needs_three_projects(self):
        d = dataset_with_efforts([100.0, 200.0])
        with pytest.raises(ValueError):
            zscore_outliers(d)

    def test_affine_invariance(self, rng):
        base = rng.lognormal(7, 1, 30)
        d1 = dataset_with_efforts(base)
        d2 = dataset_with_efforts(base * 3.7 + 11.0)
        r1 = zscore_outliers(d1)
        r2 = zscore_outliers(d2)
        assert r1.flagged == r2.flagged
        assert np.allclose(r1.zscores, r2.zscores, equal_nan=True)

    def test_csv_rows_schema(self):
        d = dataset_with_efforts([100.0, 110.0, 5000.0, 100.0])
        rows = zscore_outliers(d, threshold=1.4).to_csv_rows()
        assert len(rows) == 4
        assert rows[2][1] == "true"


class TestRemoveOutliers:
    def test_flagged_removed_order_preserved(self):
        efforts = [100.0] * 19 + [1000.0] + [100.0] * 5
        d = dataset_with_efforts(efforts)
        report = zscore_outliers(d)
        out = remove_outliers(d, report)
        assert len(out) == len(d) - 1
        assert "p19" not in out.ids()
        assert out.ids() == tuple(i for i in d.ids() if i != "p19")

    def test_no_flags_identity(self):
        d = dataset_with_efforts([100.0, 105.0, 95.0, 102.0])
        report = zscore_outliers(d)
        assert remove_outliers(d, report) == d

    def test_report_dataset_mismatch(self):
        d1 = dataset_with_efforts([100.0, 105.0, 95.0])
        d2 = dataset_with_efforts([100.0, 105.0, 95.0, 90.0])
        with pytest.raises(ValueError, match="not produced"):
            remove_outliers(d2, zscore_outliers(d1))

    def test_idempotent_when_no_new_flags(self):
        efforts = [100.0 + i for i in range(20)] + [10000.0]
        d = dataset_with_efforts(efforts)
        once = remove_outliers(d, zscore_outliers(d))
        again = remove_outliers(once, zscore_outliers(once))
        assert once.ids() == again.ids() or len(again) < len(once)

    def test_all_flagged_errors(self):
        d = dataset_with_efforts([90.0, 100.0, 110.0, 130.0])
        report = zscore_outliers(d, threshold=0.01)
        assert all(report.flagged)
        with pytest.raises(ValueError, match="empty"):
            remove_outliers(d, report)


class TestMinMax:
    def test_symmetric_span(self):
        column = np.array([[2.0], [4.0], [6.0]])
        params = minmax_fit(column)
        assert list(minmax_apply(params, column)[:, 0]) == [0, 0.5, 1]

    def test_degenerate_span_maps_to_zero(self):
        params = minmax_fit(np.array([[5.0], [5.0], [5.0]]))
        assert minmax_apply(params, np.array([5.0]))[0] == 0

    def test_extrapolation(self):
        params = minmax_fit(np.array([[0.0], [10.0]]))
        assert minmax_apply(params, np.array([15.0]))[0] == pytest.approx(1.5)

    def test_fit_values_land_in_unit_interval(self, rng):
        for _ in range(20):
            data = rng.normal(0, 100, (15, 4))
            params = minmax_fit(data)
            scaled = minmax_apply(params, data)
            assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_single_sample_row(self):
        params = minmax_fit(np.array([[0.0, 10.0], [10.0, 20.0]]))
        row = minmax_apply(params, np.array([5.0, 15.0]))
        assert list(row) == [0.5, 0.5]

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            minmax_fit(np.empty((0, 2)))
        with pytest.raises(ValueError):
            minmax_fit(np.array([2.0, 4.0, 6.0]))


class TestNormalityCheck:
    def test_statistic_matches_reference(self, rng):
        x = rng.normal(3, 2, 200)
        ours = normality_check(x)
        ref = sps.kstest(x, "norm", args=(x.mean(), x.std(ddof=1))).statistic
        assert ours.statistic == pytest.approx(ref, abs=1e-12)

    def test_normal_sample_accepted(self, rng):
        x = rng.standard_normal(1000)
        assert normality_check(x).is_normal

    def test_lognormal_sample_rejected(self, rng):
        x = rng.lognormal(0, 1.0, 1000)
        assert not normality_check(x).is_normal

    def test_constant_sample(self):
        # the mean of twenty 1/3s rounds away from 1/3
        for value in (3.0, 1.0 / 3.0):
            res = normality_check(np.full(20, value))
            assert not res.is_normal
            assert res.statistic == 1.0

    def test_needs_five_values(self):
        with pytest.raises(ValueError):
            normality_check(np.array([1.0, 2.0, 3.0, 4.0]))

    def test_critical_value_is_the_five_percent_point(self, rng):
        # Stephens' 5% point for the Lilliefors-modified KS statistic
        for n in (5, 7, 12, 40, 107, 1000):
            want = 0.895 / (math.sqrt(n) - 0.01 + 0.85 / math.sqrt(n))
            res = normality_check(rng.standard_normal(n))
            assert res.critical_value == want
            assert res.is_normal == (res.statistic <= want)

    def test_verdicts_equal_a_scipy_reimplementation(self, rng):
        def scipy_verdict(values):
            arr = np.sort(values)
            n = arr.size
            critical = 0.895 / (math.sqrt(n) - 0.01 + 0.85 / math.sqrt(n))
            cdf = ndtr((arr - arr.mean()) / arr.std(ddof=1))
            steps = np.arange(1, n + 1) / n
            statistic = max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / n)))
            return statistic <= critical, statistic

        draws = (lambda n: rng.normal(3.0, 2.0, n),
                 lambda n: rng.lognormal(0.0, rng.uniform(0.1, 1.2), n),
                 lambda n: rng.uniform(1.0, 5.0, n),
                 lambda n: rng.integers(0, rng.integers(2, 5), n) + 1.0)
        checked = normal = 0
        for _ in range(600):
            for draw in draws:
                x = draw(int(rng.integers(5, 111)))
                if x.min() == x.max():
                    continue
                want, statistic = scipy_verdict(x)
                res = normality_check(x)
                assert res.is_normal == want
                assert res.statistic == pytest.approx(statistic, abs=1e-15)
                checked += 1
                normal += want
        assert checked >= 2000
        assert 0 < normal < checked

    def test_verdict_flips_at_the_critical_value(self):
        # normal quantiles blended toward a skewed sample: the statistic
        # grows with the blend, so bisection brackets the critical value
        n = 20
        normal = ndtri((np.arange(1, n + 1) - 0.5) / n)
        skewed = np.exp(2.0 * normal)
        critical = normality_check(normal).critical_value
        lo, hi = 0.0, 1.0
        assert normality_check(normal).statistic < critical
        assert normality_check(skewed).statistic > critical
        for _ in range(60):
            mid = (lo + hi) / 2
            blend = (1 - mid) * normal + mid * skewed
            if normality_check(blend).statistic <= critical:
                lo = mid
            else:
                hi = mid
        below = normality_check((1 - lo) * normal + lo * skewed)
        above = normality_check((1 - hi) * normal + hi * skewed)
        assert critical - 1e-9 < below.statistic <= critical < above.statistic
        assert above.statistic < critical + 1e-9
        assert below.is_normal and not above.is_normal
