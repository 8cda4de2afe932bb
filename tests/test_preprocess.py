import math

import numpy as np
import pytest
from scipy import stats as sps

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
        report = zscore_outliers(d, features=("effort",), threshold=3.0)
        assert report.flagged_ids == ("p19",)
        assert report.zscores[19, 0] == pytest.approx(expected)

    def test_constant_feature_skipped(self):
        d = dataset_with_efforts([100.0] * 10)
        report = zscore_outliers(d, features=("effort",))
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
        r1 = zscore_outliers(d1, features=("effort",))
        r2 = zscore_outliers(d2, features=("effort",))
        assert r1.flagged == r2.flagged
        assert np.allclose(r1.zscores, r2.zscores)

    def test_csv_rows_schema(self):
        d = dataset_with_efforts([100.0, 110.0, 5000.0, 100.0])
        rows = zscore_outliers(d, features=("effort",), threshold=1.4).to_csv_rows()
        assert len(rows) == 4
        assert rows[2][1] == "true"


class TestRemoveOutliers:
    def test_flagged_removed_order_preserved(self):
        efforts = [100.0] * 19 + [1000.0] + [100.0] * 5
        d = dataset_with_efforts(efforts)
        report = zscore_outliers(d, features=("effort",))
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
        once = remove_outliers(d, zscore_outliers(d, features=("effort",)))
        again = remove_outliers(once, zscore_outliers(once, features=("effort",)))
        assert once.ids() == again.ids() or len(again) < len(once)

    def test_all_flagged_errors(self):
        d = dataset_with_efforts([90.0, 100.0, 110.0, 130.0])
        report = zscore_outliers(d, features=("effort",), threshold=0.01)
        assert all(report.flagged)
        with pytest.raises(ValueError, match="empty"):
            remove_outliers(d, report)


class TestMinMax:
    def test_symmetric_span(self):
        params = minmax_fit(np.array([2.0, 4.0, 6.0]))
        assert list(minmax_apply(params, np.array([2.0, 4.0, 6.0]))) == [0, 0.5, 1]

    def test_degenerate_span_maps_to_zero(self):
        params = minmax_fit(np.array([5.0, 5.0, 5.0]))
        assert minmax_apply(params, np.array([5.0]))[0] == 0

    def test_extrapolation(self):
        params = minmax_fit(np.array([0.0, 10.0]))
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
        res = normality_check(np.full(10, 3.0))
        assert not res.is_normal
        assert res.statistic == 1.0

    def test_needs_five_values(self):
        with pytest.raises(ValueError):
            normality_check(np.array([1.0, 2.0, 3.0, 4.0]))

    def test_alpha_outside_table_rejected(self, rng):
        with pytest.raises(ValueError):
            normality_check(rng.standard_normal(50), alpha=0.5)

