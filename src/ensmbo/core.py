"""Shared domain types for offline model-based optimization.

Design spaces (discrete token sequences or continuous vectors), datasets
of scored designs that own their arrays read-only, score metrics, and the
CSV interchange format.  All numerics are float64; selection operations
are pure and never mutate their inputs.
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

    @property
    def token_dtype(self) -> np.dtype:
        """Dtype of raw tokens: the narrowest unsigned type that holds
        ``vocab - 1`` (uint8 for up to 256 tokens)."""
        return np.min_scalar_type(self.vocab - 1)

    def floored_std(self) -> np.ndarray:
        return np.maximum(self.std, SIGMA_FLOOR)

    def with_stats(self, mean: np.ndarray, std: np.ndarray) -> "DesignSpace":
        if self.is_discrete:
            raise ValueError("discrete spaces carry no normalization stats")
        return replace(self, mean=np.asarray(mean, dtype=np.float64), std=np.asarray(std, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable paired designs and ground-truth scores.

    ``designs`` holds raw task units: (N, seq_len) tokens in the space's
    ``token_dtype`` for discrete spaces, (N, dim) float64 coordinates for
    continuous ones.  ``scores`` are raw task-unit objective values.

    A Dataset owns the arrays it is handed: it keeps them without a copy
    where their dtype allows and makes them read-only, so a write through
    ``ds.designs`` raises.  A caller hands over an array it will not write.
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
        for name, array in (("designs", designs), ("scores", scores)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

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
    tokens in [0, vocab), in the space's ``token_dtype``, for a discrete
    space, finite float64 coordinates for a continuous one.  The range is
    checked before the cast, which could wrap.  An array of the checked dtype is not copied."""
    designs = np.asarray(designs)
    if designs.ndim != 2 or designs.shape[1] != space.raw_dim:
        unit = "tokens" if space.is_discrete else "coordinates"
        raise ValueError(f"designs have shape {designs.shape}, the space expects (N, {space.raw_dim}) raw {unit}")
    if space.is_discrete:
        integer = np.issubdtype(designs.dtype, np.integer)
        if not (integer or np.all(np.isfinite(designs) & (designs == np.floor(designs)))):
            raise ValueError("discrete designs must be integer tokens; harden relaxed designs first")
        if designs.size and (designs.min() < 0 or designs.max() >= space.vocab):
            raise ValueError(f"token out of range [0, {space.vocab})")
        return designs.astype(space.token_dtype, copy=False)
    designs = designs.astype(np.float64, copy=False)
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
    (N, flat_dim): the argmax token of each position (in the space's
    ``token_dtype``), ties to the lowest token, or the de-normalized
    coordinates."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != space.flat_dim or not np.all(np.isfinite(x)):
        raise ValueError(f"decode needs finite rows of {space.flat_dim} values, got shape {x.shape}")
    if space.is_discrete:
        return np.argmax(x.reshape(-1, space.seq_len, space.vocab), axis=2).astype(space.token_dtype)
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
    """Max / nearest-rank 50th percentile / mean of a score set, in raw task
    units and normalized against the task's total-dataset extremes."""

    max: float
    p50: float
    mean: float
    max_norm: float
    p50_norm: float
    mean_norm: float


def normalize_score(y: float, y_min: float, y_max: float) -> float:
    """Linear rescale against dataset extremes; may exceed 1 for designs
    better than anything in the total dataset."""
    if not (math.isfinite(y) and math.isfinite(y_min) and math.isfinite(y_max)):
        raise ValueError("scores must be finite")
    if y_max <= y_min:
        raise ValueError("degenerate score range")
    return (y - y_min) / (y_max - y_min)


def summarize_scores(ys, y_min: float, y_max: float) -> ScoreSummary:
    """The summary of raw scores ``ys``, normalized against [y_min, y_max].
    The p50 is the ceil(0.5*n)-th smallest score."""
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 1 or ys.shape[0] == 0:
        raise ValueError("summarize_scores needs a non-empty 1-D score list")
    if not np.all(np.isfinite(ys)):
        raise ValueError("scores must be finite")
    p50 = float(np.sort(ys)[math.ceil(0.5 * ys.shape[0]) - 1])
    raw = {"max": float(ys.max()), "p50": p50, "mean": float(ys.mean())}
    norm = {f"{k}_norm": normalize_score(v, y_min, y_max) for k, v in raw.items()}
    return ScoreSummary(**raw, **norm)


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
    """The metadata sidecar at ``meta_path``; a ValueError names the file and its fault."""
    try:
        meta = json.loads(Path(meta_path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"metadata sidecar {meta_path} cannot be read: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"metadata sidecar {meta_path} is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"metadata sidecar {meta_path} is not a JSON object")
    shape = ["L", "V"] if meta.get("kind") == "discrete" else ["D"]
    for key in ["kind", *shape, "y_min_total", "y_max_total"]:
        if key not in meta:
            raise ValueError(f"metadata sidecar {meta_path} has no key '{key}'")
    y_min, y_max = float(meta["y_min_total"]), float(meta["y_max_total"])
    if not y_min < y_max:
        raise ValueError(f"metadata sidecar {meta_path} needs y_min_total < y_max_total, got {y_min} and {y_max}")
    return meta


def read_dataset_csv(csv_path) -> tuple[Dataset, dict]:
    """Parse a dataset CSV with its sidecar metadata ``<stem>.meta.json``.

    Malformed rows raise with the 1-based data row number.  A non-finite
    value raises naming the file, its row and its column, and so does a
    column whose sum of squares overflows float64 (training and the
    normalization statistics square these values). A continuous space
    carries the identity statistics: a run normalizes with its MBO set's.
    """
    csv_path = Path(csv_path)
    meta = read_metadata(metadata_path(csv_path))
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
    arr = np.asarray(designs, dtype=space.token_dtype if space.is_discrete else np.float64)
    if arr.size == 0:
        raise ValueError("dataset is empty")
    values = np.column_stack([scores] if space.is_discrete else [arr, scores])
    names = expected[-1:] if space.is_discrete else expected
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{csv_path}: row {i + 1}, column {names[j]}: non-finite value {float(values[i, j])!r}")
    with np.errstate(over="ignore"):
        overflow = ~np.isfinite(np.square(values).sum(axis=0))
    if overflow.any():
        raise ValueError(f"{csv_path}: column {names[int(np.argmax(overflow))]}: "
                         "values too large, their squares overflow float64")
    return Dataset(space=space, designs=arr, scores=np.asarray(scores)), meta
