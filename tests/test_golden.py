"""Byte-for-byte check of `ucp-locality benchmark` against outputs recorded
in `tests/golden/`.

The golden files are the tables and fold traces of
`benchmark --scheme none --model ensemble` and
`benchmark --scheme e2 --model ensemble` on `generate_synthetic(5, 24)`
with default settings.  A refactor or speed-up must leave them unchanged.

When a change alters these numbers on purpose, re-record them by running
both commands into `tests/golden/<scheme>/` and copying `table4.csv` or
`table5.csv` and the `traces/` CSVs over the old files:

    ucp-locality synth --seed 5 --n 24 --out d.csv
    ucp-locality benchmark --data d.csv --scheme none --model ensemble --out none
    ucp-locality benchmark --data d.csv --scheme e2 --model ensemble --out e2

and say in CHANGES.md which numbers changed and why.
"""

from pathlib import Path

import pytest

from ucp_locality.cli import main
from ucp_locality.dataset import generate_synthetic, save_dataset

GOLDEN = Path(__file__).parent / "golden"


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
