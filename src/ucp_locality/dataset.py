"""Project data model, derived size/productivity quantities, CSV ingestion and
a synthetic dataset generator.

A project is described by the four size variables (UAW, UUCW, TCF, EF), the
eight environmental factor scores (e1..e8, integers 0..5) and the actual
effort in person-hours.  UCP and PDR are derived:

    ucp = (uaw + uucw) * tcf * ef
    pdr = effort / ucp          (person-hours per UCP)
    effort = pdr * ucp
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SOURCES = ("industrial", "educational", "synthetic")

CSV_COLUMNS = (
    "id", "source", "uaw", "uucw", "tcf", "ef",
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "effort",
)

N_FACTORS = 8
FACTOR_MIN = 0
FACTOR_MAX = 5


class DatasetError(ValueError):
    """Invalid dataset content."""


class SchemaError(DatasetError):
    """CSV header does not match the expected schema."""


class RowError(DatasetError):
    """A CSV row violates the schema or a project invariant."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


def compute_ucp(uaw: float, uucw: float, tcf: float, ef: float) -> float:
    """Adjusted use case points: (uaw + uucw) * tcf * ef."""
    for name, value in (("uaw", uaw), ("uucw", uucw), ("tcf", tcf), ("ef", ef)):
        if not 0 < value < math.inf:
            raise ValueError(
                f"{name} must be positive and finite, got {value}")
    ucp = (uaw + uucw) * tcf * ef
    if not 0 < ucp < math.inf:
        raise ValueError(f"(uaw + uucw) * tcf * ef = {ucp!r} is out of range")
    return ucp


def compute_pdr(effort: float, ucp: float) -> float:
    """Productivity delivery rate: effort / ucp, in person-hours per UCP."""
    if not effort > 0:
        raise ValueError(f"effort must be positive, got {effort}")
    if not ucp > 0:
        raise ValueError(f"ucp must be positive, got {ucp}")
    pdr = effort / ucp
    if not 0 < pdr < math.inf:
        raise ValueError(f"effort / ucp = {pdr!r} is out of range")
    return pdr


def compute_effort(pdr: float, ucp: float) -> float:
    """Effort in person-hours from a productivity rate and a UCP size."""
    if not pdr > 0:
        raise ValueError(f"pdr must be positive, got {pdr}")
    if not ucp > 0:
        raise ValueError(f"ucp must be positive, got {ucp}")
    return pdr * ucp


def validate_factor_score(value: int) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"factor score must be an integer, got {value!r}")
    if not FACTOR_MIN <= value <= FACTOR_MAX:
        raise ValueError(f"factor score must be in 0..5, got {value}")
    return int(value)


@dataclass(frozen=True)
class Project:
    """One software project record.  Immutable; derived fields are computed
    at construction time and cached."""

    id: str
    source: str
    uaw: float
    uucw: float
    tcf: float
    ef: float
    env: tuple[int, ...]
    effort: float
    ucp: float = field(init=False)
    pdr: float = field(init=False)

    def __post_init__(self):
        if not self.id:
            raise ValueError("project id must be non-empty")
        if self.source not in SOURCES:
            raise ValueError(
                f"source must be one of {SOURCES}, got {self.source!r}")
        if len(self.env) != N_FACTORS:
            raise ValueError(
                f"expected {N_FACTORS} environmental scores, got {len(self.env)}")
        env = tuple(validate_factor_score(e) for e in self.env)
        object.__setattr__(self, "env", env)
        if not self.effort > 0:
            raise ValueError(f"effort must be positive, got {self.effort}")
        ucp = compute_ucp(self.uaw, self.uucw, self.tcf, self.ef)
        object.__setattr__(self, "ucp", ucp)
        object.__setattr__(self, "pdr", compute_pdr(self.effort, ucp))

    def factor(self, index: int) -> int:
        """Environmental score for factor index 1..8."""
        if not 1 <= index <= N_FACTORS:
            raise ValueError(f"factor index must be in 1..8, got {index}")
        return self.env[index - 1]

    def size_features(self) -> tuple[float, float, float, float]:
        """The four UCP size variables used as model inputs."""
        return (self.uaw, self.uucw, self.tcf, self.ef)


@dataclass(frozen=True)
class Dataset:
    """Ordered, immutable collection of projects with unique ids."""

    projects: tuple[Project, ...]
    name: str = "dataset"

    def __post_init__(self):
        object.__setattr__(self, "projects", tuple(self.projects))
        ids = [p.id for p in self.projects]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DatasetError(f"duplicate project ids: {dupes}")

    def __len__(self) -> int:
        return len(self.projects)

    def __iter__(self):
        return iter(self.projects)

    def ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.projects)

    def column(self, name: str) -> np.ndarray:
        """Numeric column by variable name: pdr, effort, ucp, uaw, uucw,
        tcf, ef, or e1..e8."""
        if name.startswith("e") and name[1:].isdigit():
            idx = int(name[1:])
            return np.array([float(p.factor(idx)) for p in self.projects])
        try:
            return np.array([float(getattr(p, name)) for p in self.projects])
        except AttributeError:
            raise KeyError(f"unknown column {name!r}") from None

    def env_matrix(self) -> np.ndarray:
        """n x 8 array of environmental factor scores as floats."""
        return np.array([p.env for p in self.projects], dtype=float)

    def subset(self, ids, name: str | None = None) -> "Dataset":
        """Projects with the given ids, preserving dataset order."""
        wanted = set(ids)
        kept = tuple(p for p in self.projects if p.id in wanted)
        missing = wanted - {p.id for p in kept}
        if missing:
            raise KeyError(f"ids not in dataset: {sorted(missing)}")
        return Dataset(kept, name=name or self.name)


def _parse_float(raw: str, column: str, row: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise RowError(row, f"column {column!r}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise RowError(row, f"column {column!r}: non-finite value {raw!r}")
    return value


def _parse_score(raw: str, column: str, row: int) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise RowError(row, f"column {column!r}: not an integer: {raw!r}") from None
    if not FACTOR_MIN <= value <= FACTOR_MAX:
        raise RowError(row, f"column {column!r}: score {value} outside 0..5")
    return value


def load_dataset(path: str | Path, name: str | None = None) -> Dataset:
    """Load and validate a dataset from CSV.

    Header must be exactly the schema columns, each once; any missing,
    extra or repeated column is a SchemaError naming the column.  Invariant
    violations are reported as RowError with the offending data row number
    (header is row 1).
    """
    path = Path(path)
    # utf-8-sig drops the byte-order mark a spreadsheet's UTF-8 export writes
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        missing = [c for c in CSV_COLUMNS if c not in header]
        extra = [c for c in header if c not in CSV_COLUMNS]
        if missing:
            raise SchemaError(f"{path}: missing column(s) {missing}")
        if extra:
            raise SchemaError(f"{path}: unexpected column(s) {extra}")
        repeated = list(dict.fromkeys(c for c in header if header.count(c) > 1))
        if repeated:
            raise SchemaError(f"{path}: repeated column(s) {repeated}")
        col = {c: header.index(c) for c in CSV_COLUMNS}

        projects = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells or all(not c.strip() for c in cells):
                continue
            if len(cells) != len(header):
                raise RowError(lineno, f"expected {len(header)} cells, got {len(cells)}")
            source = cells[col["source"]].strip()
            if source not in SOURCES:
                raise RowError(lineno, f"column 'source': unknown source {source!r}")
            env = tuple(_parse_score(cells[col[f"e{i}"]], f"e{i}", lineno)
                        for i in range(1, N_FACTORS + 1))
            try:
                project = Project(
                    id=cells[col["id"]].strip(),
                    source=source,
                    uaw=_parse_float(cells[col["uaw"]], "uaw", lineno),
                    uucw=_parse_float(cells[col["uucw"]], "uucw", lineno),
                    tcf=_parse_float(cells[col["tcf"]], "tcf", lineno),
                    ef=_parse_float(cells[col["ef"]], "ef", lineno),
                    env=env,
                    effort=_parse_float(cells[col["effort"]], "effort", lineno),
                )
            except RowError:
                raise
            except ValueError as exc:
                raise RowError(lineno, str(exc)) from None
            projects.append(project)

    if not projects:
        raise DatasetError(f"{path}: no data rows")
    return Dataset(tuple(projects), name=name or path.stem)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the ingestion schema.  Floats are written with
    shortest round-trip repr so load(save(d)) == d bit for bit."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for p in dataset:
            writer.writerow([
                p.id, p.source,
                repr(p.uaw), repr(p.uucw), repr(p.tcf), repr(p.ef),
                *[str(e) for e in p.env],
                repr(p.effort),
            ])


# Synthetic generator targets (dataset summary statistics): PDR 18.07 / 4.5,
# UAW 19.25 / 5.5, UUCW 375 / 1123 (heavy right skew), TCF 0.97 / 0.064,
# EF 0.96 / 0.14.  PDR and UUCW are log-normal to get the right skew sign.
_PDR_MEAN, _PDR_STD = 18.07, 4.5
_UAW_MEAN, _UAW_STD = 19.25, 5.5
_UUCW_MEAN, _UUCW_STD = 375.0, 1123.0
_TCF_MEAN, _TCF_STD = 0.97, 0.064

# EF is derived from the factor scores with the conventional weighting
# EF = 1.4 - 0.03 * sum(w_i * e_i); the weights are the classic published
# ones, not part of this dataset's documentation.
ENV_WEIGHTS = (1.5, 0.5, 1.0, 0.5, 1.0, 2.0, -1.0, -1.0)

# Discretized-normal pmf over levels 0..5 chosen so the implied EF multiplier
# lands near mean 0.96, stdev 0.14.
_LEVEL_MU, _LEVEL_SIGMA = 3.23, 1.55

# Rank coupling between the EF multiplier and PDR so that environment-based
# locality is meaningful on generated data.
_EF_PDR_RHO = 0.4


def _lognormal_params(mean: float, std: float) -> tuple[float, float]:
    sigma2 = math.log(1.0 + (std / mean) ** 2)
    mu = math.log(mean) - sigma2 / 2.0
    return mu, math.sqrt(sigma2)


def _level_pmf() -> np.ndarray:
    edges = np.arange(FACTOR_MIN, FACTOR_MAX + 2) - 0.5
    z = (edges - _LEVEL_MU) / _LEVEL_SIGMA
    cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2)) for v in z]))
    pmf = np.diff(cdf)
    pmf[0] = cdf[1]              # fold lower tail into level 0
    pmf[-1] = 1.0 - cdf[-2]      # fold upper tail into level 5
    return pmf / pmf.sum()


def _positive_normal(rng: np.random.Generator, mean: float, std: float,
                     n: int) -> np.ndarray:
    values = rng.normal(mean, std, size=n)
    bad = values <= 0
    while bad.any():
        values[bad] = rng.normal(mean, std, size=int(bad.sum()))
        bad = values <= 0
    return values


def generate_synthetic(seed: int, n: int, name: str = "synthetic") -> Dataset:
    """Deterministic synthetic dataset whose marginal moments approach the
    published summary statistics as n grows.

    Effort is set to pdr * ucp so the effort identity holds by construction.
    PDR is mildly rank-coupled to the EF multiplier so that partitioning on
    environmental factors has signal.
    """
    if n < 10:
        raise ValueError(f"n must be at least 10, got {n}")
    rng = np.random.default_rng(seed)

    pmf = _level_pmf()
    env = rng.choice(FACTOR_MAX + 1, size=(n, N_FACTORS), p=pmf)
    weights = np.array(ENV_WEIGHTS)
    ef = 1.4 - 0.03 * env @ weights

    uaw = _positive_normal(rng, _UAW_MEAN, _UAW_STD, n)
    mu_uucw, sg_uucw = _lognormal_params(_UUCW_MEAN, _UUCW_STD)
    uucw = rng.lognormal(mu_uucw, sg_uucw, size=n)
    tcf = _positive_normal(rng, _TCF_MEAN, _TCF_STD, n)

    # log-PDR = mu + sigma * (rho * z_ef + sqrt(1-rho^2) * z); z_ef is the
    # empirically standardized EF draw, so the marginal variance is kept.
    mu_pdr, sg_pdr = _lognormal_params(_PDR_MEAN, _PDR_STD)
    ef_std = float(np.std(ef))
    z_ef = (ef - ef.mean()) / ef_std if ef_std > 0 else np.zeros(n)
    z = rng.standard_normal(n)
    mix = _EF_PDR_RHO * z_ef + math.sqrt(1.0 - _EF_PDR_RHO ** 2) * z
    pdr = np.exp(mu_pdr + sg_pdr * mix)

    projects = []
    for i in range(n):
        ucp = compute_ucp(uaw[i], uucw[i], tcf[i], ef[i])
        projects.append(Project(
            id=f"syn{i:05d}",
            source="synthetic",
            uaw=float(uaw[i]),
            uucw=float(uucw[i]),
            tcf=float(tcf[i]),
            ef=float(ef[i]),
            env=tuple(int(e) for e in env[i]),
            effort=float(pdr[i] * ucp),
        ))
    return Dataset(tuple(projects), name=name)
