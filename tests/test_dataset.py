import math

import numpy as np
import pytest

from ucp_locality.dataset import (
    CSV_COLUMNS,
    DatasetError,
    RowError,
    SchemaError,
    compute_effort,
    compute_pdr,
    compute_ucp,
    generate_synthetic,
    load_dataset,
    save_dataset,
)

from conftest import make_dataset, make_project


class TestComputeUcp:
    def test_identity_multipliers(self):
        assert compute_ucp(10, 100, 1.0, 1.0) == 110

    def test_table_values(self):
        assert compute_ucp(19, 375, 0.97, 0.96) == pytest.approx(366.8928)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError, match="uaw"):
            compute_ucp(0, 100, 1.0, 1.0)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError, match="tcf"):
            compute_ucp(10, 100, -0.5, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="uaw must be positive"):
            compute_ucp(math.inf, 100, 1.0, 1.0)
        with pytest.raises(ValueError, match="ef"):
            compute_ucp(10, 100, 1.0, math.nan)
        with pytest.raises(ValueError, match="ef = inf is out of range"):
            compute_ucp(1e308, 1e308, 1.0, 1.0)


class TestComputePdr:
    def test_canonical_ratio(self):
        assert compute_pdr(2000, 100) == 20

    def test_identity(self):
        assert compute_pdr(100, 100) == 1

    def test_division(self):
        assert compute_pdr(9405, 369.8) == pytest.approx(9405 / 369.8)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            compute_pdr(0, 100)
        with pytest.raises(ValueError):
            compute_pdr(100, 0)

    def test_non_finite_ratio_rejected(self):
        with pytest.raises(ValueError, match="ucp = 0.0 is out of range"):
            compute_pdr(1.0, 1e308 * 10)
        with pytest.raises(ValueError, match="ucp = inf is out of range"):
            compute_pdr(1e308, 1e-10)


class TestComputeEffort:
    def test_twenty_hours_per_ucp(self):
        assert compute_effort(20, 100) == 2000

    def test_unit_productivity(self):
        assert compute_effort(1, 366.8928) == pytest.approx(366.8928)

    def test_twenty_eight_hours(self):
        assert compute_effort(28, 50) == 1400

    def test_round_trip_identity(self, rng):
        # effort -> pdr -> effort closes to 1e-9 relative
        for _ in range(200):
            uaw = rng.uniform(1, 50)
            uucw = rng.uniform(10, 2000)
            tcf = rng.uniform(0.6, 1.4)
            ef = rng.uniform(0.5, 1.5)
            effort = rng.uniform(100, 1e5)
            ucp = compute_ucp(uaw, uucw, tcf, ef)
            back = compute_effort(compute_pdr(effort, ucp), ucp)
            assert back == pytest.approx(effort, rel=1e-9)


class TestProject:
    def test_derived_fields(self):
        p = make_project("a", uaw=10, uucw=100, tcf=1.0, ef=1.0, effort=2200)
        assert p.ucp == 110
        assert p.pdr == 20

    def test_env_validated(self):
        with pytest.raises(ValueError):
            make_project("a", env=(0, 1, 2, 3, 4, 5, 6, 3))
        with pytest.raises(ValueError):
            make_project("a", env=(1, 2, 3))

    def test_factor_accessor(self):
        p = make_project("a", env=(0, 1, 2, 3, 4, 5, 1, 2))
        assert p.factor(1) == 0
        assert p.factor(6) == 5
        with pytest.raises(ValueError):
            p.factor(0)

    def test_positive_effort_required(self):
        with pytest.raises(ValueError):
            make_project("a", effort=0)


class TestDataset:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DatasetError, match="duplicate"):
            make_dataset([make_project("a"), make_project("a")])

    def test_column_access(self):
        d = make_dataset([make_project("a", effort=2000),
                          make_project("b", effort=4000)])
        assert list(d.column("effort")) == [2000, 4000]
        assert list(d.column("e1")) == [3, 3]
        with pytest.raises(KeyError):
            d.column("nope")

    def test_subset(self):
        d = make_dataset([make_project(c) for c in "abc"])
        assert d.subset(["c", "a"]).ids() == ("a", "c")


class TestLoadSave:
    def _write(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        return path

    def test_round_trip_bit_stable(self, tmp_path):
        d = generate_synthetic(3, 25)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_dataset(d, p1)
        loaded = load_dataset(p1, name=d.name)
        assert loaded == d
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_order_mark_accepted(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        d = generate_synthetic(3, 25)
        plain = tmp_path / "plain.csv"
        save_dataset(d, plain)
        crlf = plain.read_bytes()
        path = tmp_path / "bom.csv"
        for text in (crlf, crlf.replace(b"\r\n", b"\n")):
            path.write_bytes(b"\xef\xbb\xbf" + text)
            assert load_dataset(path, name=d.name) == d

    def test_missing_column_named(self, tmp_path):
        cols = [c for c in CSV_COLUMNS if c != "e7"]
        path = self._write(tmp_path, ",".join(cols) + "\n")
        with pytest.raises(SchemaError, match="e7"):
            load_dataset(path)

    def test_extra_column_named(self, tmp_path):
        path = self._write(tmp_path, ",".join(CSV_COLUMNS + ("bogus",)) + "\n")
        with pytest.raises(SchemaError, match="bogus"):
            load_dataset(path)

    def test_repeated_column_named(self, tmp_path):
        # a second `effort` column must not be dropped in favour of the first
        plain = tmp_path / "plain.csv"
        save_dataset(generate_synthetic(1, 12), plain)
        lines = plain.read_text().splitlines()
        text = "".join(f"{line},{'effort' if i == 0 else '1.0'}\n"
                       for i, line in enumerate(lines))
        path = self._write(tmp_path, text)
        with pytest.raises(SchemaError, match=r"repeated column\(s\) \['effort'\]"):
            load_dataset(path)

    def test_zero_effort_cites_row(self, tmp_path):
        good = "p1,industrial,10,100,1.0,1.0,3,3,3,3,3,3,3,3,2000\n"
        bad = "p2,industrial,10,100,1.0,1.0,3,3,3,3,3,3,3,3,0\n"
        path = self._write(tmp_path, ",".join(CSV_COLUMNS) + "\n" + good + bad)
        with pytest.raises(RowError, match="row 3"):
            load_dataset(path)

    def test_bad_score_cites_column(self, tmp_path):
        row = "p1,industrial,10,100,1.0,1.0,3,3,9,3,3,3,3,3,2000\n"
        path = self._write(tmp_path, ",".join(CSV_COLUMNS) + "\n" + row)
        with pytest.raises(RowError, match="e3"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(SchemaError, match="empty"):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = self._write(tmp_path, ",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(DatasetError, match="no data rows"):
            load_dataset(path)


class TestGenerateSynthetic:
    def test_deterministic(self):
        assert generate_synthetic(1, 100) == generate_synthetic(1, 100)

    def test_different_seeds_differ(self):
        assert generate_synthetic(1, 100) != generate_synthetic(2, 100)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            generate_synthetic(2, 5)

    def test_effort_identity_by_construction(self):
        d = generate_synthetic(5, 50)
        for p in d:
            assert p.effort == pytest.approx(p.pdr * p.ucp, rel=1e-12)

    def test_level_occupancy(self):
        d = generate_synthetic(11, 1000)
        env = d.env_matrix()
        for j in range(8):
            present = set(int(v) for v in np.unique(env[:, j]))
            assert present == set(range(6))

    def test_marginals_near_targets(self):
        d = generate_synthetic(1, 10000)
        pdr = d.column("pdr")
        assert pdr.mean() == pytest.approx(18.07, rel=0.10)
        assert pdr.std(ddof=1) == pytest.approx(4.5, rel=0.10)
        assert d.column("ef").mean() == pytest.approx(0.96, rel=0.05)
        assert d.column("uaw").mean() == pytest.approx(19.25, rel=0.05)

    def test_all_projects_valid(self):
        d = generate_synthetic(9, 500)
        for p in d:
            assert p.ucp > 0 and p.pdr > 0 and p.effort > 0
            assert math.isfinite(p.ucp)
