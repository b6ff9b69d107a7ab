"""Shared domain types for offline model-based optimization.

Design spaces (discrete token sequences or continuous vectors), immutable
datasets of scored designs, score metrics, and the CSV interchange format.
All numerics are float64; selection operations are pure and never mutate
their inputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

# Floor applied to per-coordinate standard deviations so constant
# coordinates do not blow up normalization.
SIGMA_FLOOR = 1e-8


class SpaceKind(Enum):
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


@dataclass(frozen=True, eq=False)
class DesignSpace:
    """Declares the shape of a design space.

    Discrete spaces are token sequences with ``seq_len`` positions and
    ``vocab`` tokens per position; their optimization representation is a
    flattened one-hot vector of length ``seq_len * vocab``.  Continuous
    spaces are ``dim``-dimensional vectors carrying per-coordinate
    normalization statistics (``mean``, ``std``) in raw task units.
    """

    kind: SpaceKind
    seq_len: int = 0
    vocab: int = 0
    dim: int = 0
    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def __post_init__(self):
        if self.kind is SpaceKind.DISCRETE:
            if self.seq_len < 1 or self.vocab < 2:
                raise ValueError("discrete space needs seq_len >= 1 and vocab >= 2")
        elif self.kind is SpaceKind.CONTINUOUS:
            if self.dim < 1:
                raise ValueError("continuous space needs dim >= 1")
            mean = np.zeros(self.dim) if self.mean is None else np.asarray(self.mean, dtype=np.float64)
            std = np.ones(self.dim) if self.std is None else np.asarray(self.std, dtype=np.float64)
            if mean.shape != (self.dim,) or std.shape != (self.dim,):
                raise ValueError("normalization stats must have shape (dim,)")
            if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
                raise ValueError("normalization stats must be finite")
            if np.any(std < 0):
                raise ValueError("std must be non-negative")
            object.__setattr__(self, "mean", mean)
            object.__setattr__(self, "std", std)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown space kind {self.kind}")

    @staticmethod
    def discrete(seq_len: int, vocab: int) -> "DesignSpace":
        return DesignSpace(kind=SpaceKind.DISCRETE, seq_len=seq_len, vocab=vocab)

    @staticmethod
    def continuous(dim: int, mean=None, std=None) -> "DesignSpace":
        return DesignSpace(kind=SpaceKind.CONTINUOUS, dim=dim, mean=mean, std=std)

    @property
    def is_discrete(self) -> bool:
        return self.kind is SpaceKind.DISCRETE

    @property
    def flat_dim(self) -> int:
        """Dimension of the optimization representation."""
        if self.is_discrete:
            return self.seq_len * self.vocab
        return self.dim

    @property
    def raw_dim(self) -> int:
        """Number of columns of a raw design row (tokens or coordinates)."""
        return self.seq_len if self.is_discrete else self.dim

    def floored_std(self) -> np.ndarray:
        return np.maximum(self.std, SIGMA_FLOOR)

    def with_stats(self, mean: np.ndarray, std: np.ndarray) -> "DesignSpace":
        if self.is_discrete:
            raise ValueError("discrete spaces carry no normalization stats")
        return replace(self, mean=np.asarray(mean, dtype=np.float64), std=np.asarray(std, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable paired designs and ground-truth scores.

    ``designs`` holds raw task units: integer tokens of shape (N, seq_len)
    for discrete spaces, float64 coordinates of shape (N, dim) for
    continuous ones.  ``scores`` are raw task-unit objective values.
    """

    space: DesignSpace
    designs: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        designs = check_designs(self.designs, self.space)
        if scores.ndim != 1 or designs.shape[0] != scores.shape[0]:
            raise ValueError("designs must be (N, k) and scores (N,) with matching N")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "designs", designs)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return self.designs.shape[0]


# ---------------------------------------------------------------------------
# Design representations
# ---------------------------------------------------------------------------
#
# Designs cross module boundaries in raw task units; only the optimizer and
# the proxies see the form that ``encode`` builds and ``decode`` reverses.

def check_designs(designs, space: DesignSpace) -> np.ndarray:
    """Raw designs as an (N, raw_dim) array, or ValueError naming the fault:
    int64 tokens in [0, vocab) for a discrete space, finite float64
    coordinates for a continuous one.  The array is a copy."""
    designs = np.asarray(designs)
    if designs.ndim != 2 or designs.shape[1] != space.raw_dim:
        unit = "tokens" if space.is_discrete else "coordinates"
        raise ValueError(f"designs have shape {designs.shape}, the space expects (N, {space.raw_dim}) raw {unit}")
    if space.is_discrete:
        if not np.all(np.isfinite(designs) & (designs == np.floor(designs))):
            raise ValueError("discrete designs must be integer tokens; harden relaxed designs first")
        designs = designs.astype(np.int64)
        if designs.size and (designs.min() < 0 or designs.max() >= space.vocab):
            raise ValueError(f"token out of range [0, {space.vocab})")
        return designs
    designs = designs.astype(np.float64)
    if not np.all(np.isfinite(designs)):
        raise ValueError("designs must be finite")
    return designs


def encode(designs, space: DesignSpace) -> np.ndarray:
    """Checked raw designs in the optimization representation (N, flat_dim)."""
    designs = check_designs(designs, space)
    if not space.is_discrete:
        return (designs - space.mean) / space.floored_std()
    n = designs.shape[0]
    x = np.zeros((n, space.flat_dim), dtype=np.float64)
    x[np.arange(n)[:, None], np.arange(space.seq_len) * space.vocab + designs] = 1.0
    return x


def decode(x: np.ndarray, space: DesignSpace) -> np.ndarray:
    """Raw designs (N, raw_dim) from finite optimization-representation rows
    (N, flat_dim): the argmax token of each position, ties to the lowest
    token, or the de-normalized coordinates."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != space.flat_dim or not np.all(np.isfinite(x)):
        raise ValueError(f"decode needs finite rows of {space.flat_dim} values, got shape {x.shape}")
    if space.is_discrete:
        return np.argmax(x.reshape(-1, space.seq_len, space.vocab), axis=2).astype(np.int64)
    return x * space.floored_std() + space.mean


def stats_from_designs(designs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean/std of raw continuous designs (population std)."""
    x = np.asarray(designs, dtype=np.float64)
    return x.mean(axis=0), x.std(axis=0)


# ---------------------------------------------------------------------------
# Score metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreSummary:
    """Max / nearest-rank 50th percentile / mean of a score set.

    Raw task units always; normalized values are filled in by
    ``with_normalized`` against the task's total-dataset extremes.
    """

    max: float
    p50: float
    mean: float
    max_norm: float | None = None
    p50_norm: float | None = None
    mean_norm: float | None = None

    def with_normalized(self, y_min: float, y_max: float) -> "ScoreSummary":
        return replace(
            self,
            max_norm=normalize_score(self.max, y_min, y_max),
            p50_norm=normalize_score(self.p50, y_min, y_max),
            mean_norm=normalize_score(self.mean, y_min, y_max),
        )


def normalize_score(y: float, y_min: float, y_max: float) -> float:
    """Linear rescale against dataset extremes; may exceed 1 for designs
    better than anything in the total dataset."""
    if not (math.isfinite(y) and math.isfinite(y_min) and math.isfinite(y_max)):
        raise ValueError("scores must be finite")
    if y_max <= y_min:
        raise ValueError("degenerate score range")
    return (y - y_min) / (y_max - y_min)


def nearest_rank_p50(ys: np.ndarray) -> float:
    """The ceil(0.5*n)-th smallest value."""
    ys = np.asarray(ys, dtype=np.float64)
    n = ys.shape[0]
    if n == 0:
        raise ValueError("empty score list")
    k = math.ceil(0.5 * n)
    return float(np.sort(ys)[k - 1])


def summarize_scores(ys) -> ScoreSummary:
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 1 or ys.shape[0] == 0:
        raise ValueError("summarize_scores needs a non-empty 1-D score list")
    if not np.all(np.isfinite(ys)):
        raise ValueError("scores must be finite")
    return ScoreSummary(max=float(ys.max()), p50=nearest_rank_p50(ys), mean=float(ys.mean()))


# ---------------------------------------------------------------------------
# Dataset selections
# ---------------------------------------------------------------------------

def select_bottom_fraction(d: Dataset, frac: float) -> Dataset:
    """The floor(frac*N) entries with smallest score, ascending, stable ties."""
    if not (0.0 < frac <= 1.0):
        raise ValueError("frac must be in (0, 1]")
    n = int(math.floor(frac * len(d) + 1e-9))
    if n == 0:
        raise ValueError("selection would be empty")
    order = np.argsort(d.scores, kind="stable")[:n]
    return Dataset(space=d.space, designs=d.designs[order], scores=d.scores[order])


def select_top_n(d: Dataset, n: int) -> Dataset:
    """The n entries with highest score, descending, stable ties."""
    if not (1 <= n <= len(d)):
        raise ValueError(f"n must be in [1, {len(d)}]")
    order = np.argsort(-d.scores, kind="stable")[:n]
    return Dataset(space=d.space, designs=d.designs[order], scores=d.scores[order])


# ---------------------------------------------------------------------------
# CSV interchange format
# ---------------------------------------------------------------------------
#
# One CSV per dataset (UTF-8, header row):
#   continuous:  x_0,...,x_{D-1},y
#   discrete:    t_0,...,t_{L-1},y      (integer tokens in [0, V))
# plus a sidecar metadata JSON with keys kind, L, V or D, y_min_total,
# y_max_total.

def metadata_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.stem + ".meta.json")


def dataset_columns(space: DesignSpace) -> list[str]:
    if space.is_discrete:
        return [f"t_{i}" for i in range(space.seq_len)] + ["y"]
    return [f"x_{i}" for i in range(space.dim)] + ["y"]


def write_dataset_csv(ds: Dataset, csv_path, y_min_total: float, y_max_total: float) -> None:
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(dataset_columns(ds.space))
        for row, y in zip(ds.designs, ds.scores):
            if ds.space.is_discrete:
                w.writerow([int(t) for t in row] + [repr(float(y))])
            else:
                w.writerow([repr(float(v)) for v in row] + [repr(float(y))])
    meta: dict = {"kind": ds.space.kind.value}
    if ds.space.is_discrete:
        meta["L"] = ds.space.seq_len
        meta["V"] = ds.space.vocab
    else:
        meta["D"] = ds.space.dim
    meta["y_min_total"] = y_min_total
    meta["y_max_total"] = y_max_total
    with open(metadata_path(csv_path), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def read_metadata(meta_path) -> dict:
    with open(meta_path, encoding="utf-8") as f:
        meta = json.load(f)
    if "kind" not in meta:
        raise ValueError("metadata missing key 'kind'")
    kind = meta["kind"]
    required = ["L", "V"] if kind == "discrete" else ["D"]
    required += ["y_min_total", "y_max_total"]
    for key in required:
        if key not in meta:
            raise ValueError(f"metadata missing key '{key}'")
    return meta


def read_dataset_csv(csv_path, meta_path=None) -> tuple[Dataset, dict]:
    """Parse a dataset CSV with its sidecar metadata.

    Malformed rows raise with the 1-based data row number.
    """
    csv_path = Path(csv_path)
    meta = read_metadata(meta_path if meta_path is not None else metadata_path(csv_path))
    if meta["kind"] == "discrete":
        space = DesignSpace.discrete(int(meta["L"]), int(meta["V"]))
    else:
        space = DesignSpace.continuous(int(meta["D"]))
    k = space.raw_dim
    expected = dataset_columns(space)
    designs: list[list[float]] = []
    scores: list[float] = []
    with open(csv_path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != expected:
            raise ValueError(f"bad header: expected {expected}, got {header}")
        for i, row in enumerate(reader, start=1):
            if len(row) != k + 1:
                raise ValueError(f"row {i}: expected {k + 1} fields, got {len(row)}")
            try:
                y = float(row[-1])
            except ValueError:
                raise ValueError(f"row {i}: y column is not numeric") from None
            if space.is_discrete:
                toks = []
                for j, cell in enumerate(row[:-1]):
                    try:
                        t = int(cell)
                    except ValueError:
                        raise ValueError(f"row {i}: token column {j} is not an integer") from None
                    if not (0 <= t < space.vocab):
                        raise ValueError(f"row {i}: token out of range")
                    toks.append(t)
                designs.append(toks)
            else:
                try:
                    designs.append([float(c) for c in row[:-1]])
                except ValueError:
                    raise ValueError(f"row {i}: non-numeric coordinate") from None
            scores.append(y)
    arr = np.asarray(designs, dtype=np.int64 if space.is_discrete else np.float64)
    if arr.size == 0:
        raise ValueError("dataset is empty")
    if not space.is_discrete:
        mean, std = stats_from_designs(arr)
        space = space.with_stats(mean, std)
    return Dataset(space=space, designs=arr, scores=np.asarray(scores)), meta
