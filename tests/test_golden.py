"""Byte-for-byte check of `ucp-locality benchmark` against outputs recorded
in `tests/golden/`.

Two sets are recorded, both with default settings:

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


def test_full_grid_equals_golden(tmp_path):
    data = tmp_path / "d.csv"
    save_dataset(generate_synthetic(1, 40), data)
    out = tmp_path / "grid"
    assert main(["benchmark", "--data", str(data), "--out", str(out)]) == 0

    golden = GOLDEN / "grid"
    digests = {}
    for line in (golden / "MANIFEST.sha256").read_text().splitlines():
        digest, rel = line.split("  ", 1)
        digests[rel] = digest
    assert len(digests) == 54
    written = sorted(p.relative_to(out).as_posix()
                     for p in out.rglob("*") if p.is_file())
    assert written == sorted(GRID_TABLES + tuple(digests))
    for name in GRID_TABLES:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name
    for rel, digest in digests.items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel
