"""Byte-for-byte check of `ucp-locality benchmark` against outputs recorded
in `tests/golden/`.

Three sets are recorded, all with default settings:

- `none/` and `e2/`: the tables and fold traces of
  `benchmark --scheme none --model ensemble` and
  `benchmark --scheme e2 --model ensemble` on `generate_synthetic(5, 24)`.
- `grid/`: the whole 42-cell grid, `benchmark` with no filter, on
  `generate_synthetic(1, 40)` (39 projects after the outlier screen).
  `table4.csv` and `table5.csv` are kept as files, so a change of numbers
  shows as a readable diff.  Every other file the run writes (`run.json`,
  `outliers.csv` and the 52 trace and weights CSVs) is listed with its
  SHA-256 in `grid/MANIFEST.sha256`, and the run must write exactly the
  files recorded there.
- `n108/`: the whole grid on the paper-size set, `generate_synthetic(42,
  110)` (108 projects after the outlier screen), as `table4.csv`,
  `table5.csv` and the SHA-256 of the 52 trace and weights CSVs in
  `n108/MANIFEST.sha256`.  Acceptance criterion 12 checks it on the grid
  it already runs for its time budget.
- `grid/` also holds the same grid's tables as `table4.json`,
  `table5.json`, `table4.md` and `table5.md`, from `benchmark --format
  json` and `--format md`.
- `stats/` and `rq1/`: on the same `generate_synthetic(1, 40)` file,
  `moments` and `spearman` from `stats` in csv, json and md, and the eight
  `intervals_e*.csv` from `rq1`.

A refactor or speed-up must leave all of them unchanged.

When a change alters these numbers on purpose, re-record them by running
the commands below and copying the outputs over the old files:

    ucp-locality synth --seed 5 --n 24 --out d.csv
    ucp-locality benchmark --data d.csv --scheme none --model ensemble --out none
    ucp-locality benchmark --data d.csv --scheme e2 --model ensemble --out e2
    # copy table4.csv or table5.csv and traces/ into tests/golden/<scheme>/

    ucp-locality synth --seed 1 --n 40 --out d.csv
    ucp-locality benchmark --data d.csv --out grid
    cp grid/table4.csv grid/table5.csv tests/golden/grid/
    (cd grid && sha256sum run.json outliers.csv traces/*.csv) \
        > tests/golden/grid/MANIFEST.sha256

    ucp-locality synth --seed 42 --n 110 --out d.csv
    ucp-locality benchmark --data d.csv --out n108
    cp n108/table4.csv n108/table5.csv tests/golden/n108/
    (cd n108 && sha256sum traces/*.csv) > tests/golden/n108/MANIFEST.sha256

    ucp-locality synth --seed 1 --n 40 --out d.csv
    for f in json md; do
        ucp-locality benchmark --data d.csv --format $f --out grid_$f
        cp grid_$f/table4.$f grid_$f/table5.$f tests/golden/grid/
    done
    for f in csv json md; do
        ucp-locality stats --data d.csv --format $f --out stats_$f
        cp stats_$f/moments.$f stats_$f/spearman.$f tests/golden/stats/
    done
    ucp-locality rq1 --data d.csv --out rq1
    cp rq1/intervals_e*.csv tests/golden/rq1/

The data file must be named `d.csv`: `run.json` records its stem as the
dataset name.  Say in CHANGES.md which numbers changed and why.

The recorded bytes depend on the numpy and BLAS build: floats are written
with their shortest round-trip repr, so a build whose sums or products
round differently in the last bit changes them.  Re-record on a new build
only after checking that the tables agree to rounding.
"""

import hashlib
from pathlib import Path

import pytest

from ucp_locality.cli import main
from ucp_locality.dataset import generate_synthetic, save_dataset

GOLDEN = Path(__file__).parent / "golden"
GRID_TABLES = ("table4.csv", "table5.csv")


@pytest.mark.parametrize("scheme", ["none", "e2"])
def test_benchmark_outputs_equal_golden(scheme, tmp_path):
    data = tmp_path / "d.csv"
    save_dataset(generate_synthetic(5, 24), data)
    out = tmp_path / scheme
    assert main(["benchmark", "--data", str(data), "--scheme", scheme,
                 "--model", "ensemble", "--out", str(out)]) == 0
    expected = sorted(p.relative_to(GOLDEN / scheme)
                      for p in (GOLDEN / scheme).rglob("*.csv"))
    assert len(expected) == 3
    for rel in expected:
        assert (out / rel).read_bytes() == (GOLDEN / scheme / rel).read_bytes(), rel


def assert_equals_golden(written: dict[str, bytes], golden: Path) -> None:
    """`written` (file bytes by relative path) holds exactly the golden
    directory's tables and the files listed in its MANIFEST.sha256, with
    the recorded bytes and digests."""
    digests = {}
    for line in (golden / "MANIFEST.sha256").read_text().splitlines():
        digest, rel = line.split("  ", 1)
        digests[rel] = digest
    assert sorted(written) == sorted(GRID_TABLES + tuple(digests))
    for name in GRID_TABLES:
        assert written[name] == (golden / name).read_bytes(), name
    for rel, digest in digests.items():
        assert hashlib.sha256(written[rel]).hexdigest() == digest, rel


def test_full_grid_equals_golden(tmp_path):
    data = tmp_path / "d.csv"
    save_dataset(generate_synthetic(1, 40), data)
    out = tmp_path / "grid"
    assert main(["benchmark", "--data", str(data), "--out", str(out)]) == 0

    golden = GOLDEN / "grid"
    assert len((golden / "MANIFEST.sha256").read_text().splitlines()) == 54
    assert_equals_golden({p.relative_to(out).as_posix(): p.read_bytes()
                          for p in out.rglob("*") if p.is_file()}, golden)


@pytest.fixture(scope="module")
def d40(tmp_path_factory):
    path = tmp_path_factory.mktemp("d40") / "d.csv"
    save_dataset(generate_synthetic(1, 40), path)
    return str(path)


@pytest.mark.parametrize("fmt", ["json", "md"])
def test_full_grid_tables_equal_golden(fmt, d40, tmp_path):
    out = tmp_path / "grid"
    assert main(["benchmark", "--data", d40, "--format", fmt,
                 "--out", str(out)]) == 0
    for name in (f"table4.{fmt}", f"table5.{fmt}"):
        assert (out / name).read_bytes() == (GOLDEN / "grid" / name).read_bytes(), name


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
def test_stats_equal_golden(fmt, d40, tmp_path):
    assert main(["stats", "--data", d40, "--format", fmt,
                 "--out", str(tmp_path)]) == 0
    for name in (f"moments.{fmt}", f"spearman.{fmt}"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / "stats" / name).read_bytes(), name


def test_rq1_intervals_equal_golden(d40, tmp_path):
    assert main(["rq1", "--data", d40, "--out", str(tmp_path)]) == 0
    expected = sorted(p.name for p in (GOLDEN / "rq1").glob("*.csv"))
    assert expected == [f"intervals_e{i}.csv" for i in range(1, 9)]
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "rq1" / name).read_bytes(), name
