"""OHLCV ingestion and the full preprocessing chain.

Stages, in the order ``prepare_dataset`` runs them: CSV load, three-sigma
outlier removal, mean imputation, moving averages and one-day yield,
warm-up cut, correlation-based feature selection, min-max scaling, PCA,
supervised windowing, and the 7:2:1 split. Every stage from the CSV to
the windows takes and returns a ``FeatureFrame``: dates plus named float64
columns, with NaN marking a missing cell.

Cleaning and imputation are data-repair steps and use the full series;
correlation, scaler, and PCA statistics are model-fitting steps and use
only rows covered by training windows, so no evaluation data leaks into
them.
"""

import csv
import io
import math
import warnings
from dataclasses import dataclass, field, replace
from datetime import date as _date

import numpy as np

from .errors import (
    CheckpointFormatError,
    CompatibilityError,
    ConfigError,
    DataError,
    PipelineError,
)
from .textio import LineReader, array_lines, config_lines, fmt_vector, read_config, read_file, write_lines

OHLCV_COLUMNS = ("open", "high", "low", "close", "volume")
CSV_HEADER = ("Date", "Open", "High", "Low", "Close", "Volume")
SMA_WINDOWS = (10, 50, 100)


@dataclass
class FeatureFrame:
    """Date-ordered rows of named float64 columns; NaN marks a missing cell.

    The one table type from ``load_ohlcv`` to ``make_windows``; the target
    column is ``close``.
    """

    dates: list
    columns: dict  # insertion-ordered name -> float64 array

    def __post_init__(self):
        n = len(self.dates)
        for name, col in self.columns.items():
            if col.shape != (n,):
                raise DataError(f"column {name} has {col.shape[0]} rows, expected {n}")

    def __len__(self):
        return len(self.dates)

    def matrix(self, names) -> np.ndarray:
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise CompatibilityError(f"frame is missing columns: {', '.join(missing)}")
        return np.stack([self.columns[n] for n in names], axis=1)


def load_ohlcv(path) -> FeatureFrame:
    """Parse the documented CSV format into a frame of the ``OHLCV_COLUMNS``,
    sorting rows by ascending date.

    Header must be exactly ``Date,Open,High,Low,Close,Volume`` (after any
    UTF-8 byte-order mark); dates are ISO-8601; an empty numeric cell becomes
    a missing marker. Errors name the offending line. Two tokenisers, chosen
    by the input, give the same series: one ``str.split`` of the whole body
    for unquoted text whose rows all parse, else ``csv.reader``.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
        first_lines, dates, data = _split_plain(text) or _split_csv(path, text)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None

    ordinals = np.array(list(map(_date.toordinal, dates)))
    order = np.argsort(ordinals, kind="stable")
    repeats = np.flatnonzero(np.diff(ordinals[order]) == 0) + 1
    if repeats.size:
        # within a run of equal dates the stable sort keeps file order, so
        # the repeat that comes first in the file follows its first sighting
        k = repeats[np.argmin(order[repeats])]
        lines = first_lines()
        raise DataError(
            f"{path}, line {lines[order[k]]}: duplicate date {dates[order[k]].isoformat()} "
            f"(first seen on line {lines[order[k - 1]]})"
        )
    data = data[order]
    columns = {name: np.ascontiguousarray(data[:, j]) for j, name in enumerate(OHLCV_COLUMNS)}
    if not np.isfinite(columns["close"]).any():
        raise DataError(f"{path}: close column has no observed values")
    return FeatureFrame(dates=[dates[i] for i in order.tolist()], columns=columns)


def _split_plain(text):
    """``_split_csv``'s result for text that ``csv.reader`` splits at every
    comma and line break and whose rows all parse (a row is a file line, so
    lines are counted only when asked for); None for any other text."""
    if "\r" in text:  # the line breaks csv.reader sees in a file opened with newline=""
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    rows = text.split("\n")  # a final line break leaves an empty last row: a blank line
    body = list(filter(None, rows[1:]))
    if not body or '"' in text or "\0" in text or max(map(len, rows)) > csv.field_size_limit():
        return None
    header = tuple(c.strip() for c in rows[0].split(","))
    if header != CSV_HEADER or set(map(str.count, body, [","] * len(body))) != {5}:
        return None
    tokens = ",".join(body).split(",")
    try:
        dates = list(map(_date.fromisoformat, map(str.strip, tokens[0::6])))
        del tokens[0::6]
        # numpy's conversion accepts padded numbers; a blank cell fails it
        data = np.array([t or "nan" for t in tokens], dtype=np.float64)
    except ValueError:
        return None
    return (
        lambda: np.flatnonzero(list(map(len, rows[1:]))) + 2,
        dates,
        data.reshape(-1, len(OHLCV_COLUMNS)),
    )


def _split_csv(path, text):
    """A function giving the first file line of each data row, the rows'
    dates and their [N,5] cells, read by ``csv.reader``; raises at the first
    fault. A quoted cell may hold a line break, so a row can span lines."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, ends = [], [0]  # ends[j]: the file line row j-1 ended on
    for row in reader:
        rows.append(row)
        ends.append(reader.line_num)
    if not rows:
        raise DataError(f"{path}: empty file")
    if tuple(c.strip() for c in rows[0]) != CSV_HEADER:
        raise DataError(
            f"{path}, line 1: expected header {','.join(CSV_HEADER)!r}, "
            f"got {','.join(rows[0])!r}"
        )
    body = [row for row in rows[1:] if row]
    lines = np.array([end + 1 for row, end in zip(rows[1:], ends[1:]) if row], dtype=int)
    # parse every date and every cell in one call each; only a failure
    # walks the rows one by one, to report the first bad row as it reads
    if set(map(len, body)) - {6}:
        _raise_first_bad_row(path, body, lines)
    try:
        dates = list(map(_date.fromisoformat, [row[0].strip() for row in body]))
        cells = [cell.strip() or "nan" for row in body for cell in row[1:]]
        data = np.array(cells, dtype=np.float64).reshape(-1, len(OHLCV_COLUMNS))
    except ValueError:
        _raise_first_bad_row(path, body, lines)
        raise
    if not body:
        raise DataError(f"{path}: no data rows")
    return lambda: lines, dates, data


def _raise_first_bad_row(path, body, lines):
    """Raise the error a row-by-row parse of the data rows stops at."""
    for lineno, row in zip(lines.tolist(), body):
        if len(row) != 6:
            raise DataError(f"{path}, line {lineno}: expected 6 cells, got {len(row)}")
        try:
            _date.fromisoformat(row[0].strip())
        except ValueError:
            raise DataError(f"{path}, line {lineno}: unparseable date {row[0]!r}") from None
        for name, cell in zip(OHLCV_COLUMNS, row[1:]):
            cell = cell.strip()
            try:
                np.array([cell or "nan"], dtype=np.float64)
            except ValueError:
                raise DataError(
                    f"{path}, line {lineno}: unparseable number {cell!r} in column {name}"
                ) from None


def clean_three_sigma(frame: FeatureFrame) -> FeatureFrame:
    """Mark cells farther than three sample standard deviations as missing.

    Single pass: statistics come from the incoming values, rows are kept so
    the date axis never changes.
    """
    out = {}
    for name, col in frame.columns.items():
        observed = col[np.isfinite(col)]
        if observed.size == 0:
            raise PipelineError(f"column {name} has no observed values")
        if observed.size < 2:
            raise PipelineError(f"column {name} needs >= 2 observed values, has 1")
        mu = np.mean(observed)
        s = np.std(observed, ddof=1)
        cleaned = col.copy()
        with np.errstate(invalid="ignore"):
            cleaned[np.abs(col - mu) > 3.0 * s] = math.nan
        out[name] = cleaned
    return FeatureFrame(dates=list(frame.dates), columns=out)


def impute_mean(frame: FeatureFrame) -> FeatureFrame:
    """Replace every missing cell with its column's mean over observed cells."""
    out = {}
    for name, col in frame.columns.items():
        mask = np.isfinite(col)
        if not mask.any():
            raise PipelineError(f"column {name} has no observed values to impute from")
        filled = col.copy()
        filled[~mask] = np.mean(col[mask])
        out[name] = filled
    return FeatureFrame(dates=list(frame.dates), columns=out)


def add_moving_averages(frame: FeatureFrame, windows=SMA_WINDOWS) -> FeatureFrame:
    """Append sma_<w> columns: trailing means of close, NaN during warm-up."""
    close = frame.columns.get("close")
    if close is None or not np.isfinite(close).all():
        raise PipelineError("moving averages need a complete close column")
    longest = max(windows)
    if len(frame) < longest:
        raise PipelineError(
            f"series too short for sma_{longest}: need at least {longest} rows, "
            f"got {len(frame)}"
        )
    columns = dict(frame.columns)
    for w in windows:
        col = np.full(len(frame), math.nan)
        col[w - 1 :] = np.lib.stride_tricks.sliding_window_view(close, w).mean(axis=1)
        columns[f"sma_{w}"] = col
    return FeatureFrame(dates=list(frame.dates), columns=columns)


def add_yield(frame: FeatureFrame) -> FeatureFrame:
    """Append the one-day relative return of close; first row is missing."""
    close = frame.columns.get("close")
    if close is None or not np.isfinite(close).all():
        raise PipelineError("yield needs a complete close column")
    prev = close[:-1]
    zero = np.nonzero(prev == 0.0)[0]
    if zero.size:
        raise PipelineError(
            f"cannot compute yield: close is zero on {frame.dates[zero[0]].isoformat()}"
        )
    col = np.full(len(frame), math.nan)
    col[1:] = (close[1:] - prev) / prev
    columns = dict(frame.columns)
    columns["yield"] = col
    return FeatureFrame(dates=list(frame.dates), columns=columns)


def drop_rows(frame: FeatureFrame, head: int) -> FeatureFrame:
    return FeatureFrame(
        dates=list(frame.dates[head:]),
        columns={n: c[head:].copy() for n, c in frame.columns.items()},
    )


def engineer(raw: FeatureFrame, sma_windows=SMA_WINDOWS):
    """Raw OHLCV frame -> the engineered (pre-scaling) frame and the count of cells imputed.

    Cleaning, imputation, moving averages and yield, then the warm-up cut
    of the longest moving-average window. Each stage returns a new frame;
    ``raw`` is left as it was.
    """
    cleaned = clean_three_sigma(raw)
    imputed_cells = sum(int((~np.isfinite(c)).sum()) for c in cleaned.columns.values())
    frame = add_yield(add_moving_averages(impute_mean(cleaned), sma_windows))
    return drop_rows(frame, max(sma_windows)), imputed_cells


def correlations(frame: FeatureFrame, rows=None, target="close") -> dict:
    """Pearson r of every non-target column against the target.

    Constant columns map to NaN. ``rows`` restricts the statistics (the
    orchestrator passes training rows).
    """
    if target not in frame.columns:
        raise PipelineError(f"target column {target!r} not in frame")
    idx = np.arange(len(frame)) if rows is None else np.asarray(rows)
    if idx.size < 2:
        raise PipelineError("correlation needs at least 2 rows")
    y = frame.columns[target][idx]
    yc = y - y.mean()
    ss_y = float(yc @ yc)
    if ss_y == 0.0:
        raise PipelineError("target column has zero variance")
    out = {}
    for name, col in frame.columns.items():
        if name == target:
            continue
        x = col[idx]
        xc = x - x.mean()
        ss_x = float(xc @ xc)
        if ss_x == 0.0:
            out[name] = math.nan
        else:
            out[name] = float(xc @ yc) / math.sqrt(ss_x * ss_y)
    return out


def select_by_correlation(rs: dict, threshold: float) -> list:
    """Keep the features of ``rs`` (from ``correlations``) with |r| >= threshold.

    Constant features (r is NaN) are dropped with a warning. Returns names
    in the order of ``rs``, which is frame column order.
    """
    selected = []
    for name, r in rs.items():
        if math.isnan(r):
            warnings.warn(f"dropping constant feature {name!r}", stacklevel=2)
            continue
        if abs(r) >= threshold:
            selected.append(name)
    return selected


@dataclass
class ScalerState:
    """Per-column min/max from the fit rows."""

    columns: tuple
    mins: np.ndarray
    maxs: np.ndarray


def fit_minmax(frame: FeatureFrame, rows, columns) -> ScalerState:
    idx = np.asarray(rows)
    if idx.size == 0:
        raise PipelineError("min-max fit segment is empty")
    mat = frame.matrix(columns)[idx]
    return ScalerState(
        columns=tuple(columns), mins=mat.min(axis=0), maxs=mat.max(axis=0)
    )


def apply_minmax(frame: FeatureFrame, state: ScalerState) -> FeatureFrame:
    """x' = (x - min)/(max - min) per fitted column; constant columns -> 0.

    Returns exactly the scaler's columns, in the scaler's order; other
    columns of ``frame`` are dropped, and a missing fitted column is a
    ``CompatibilityError`` naming it. Values outside the fit range
    extrapolate beyond [0,1]; no clipping.
    """
    columns = {}
    fitted = zip(state.columns, state.mins, state.maxs, frame.matrix(state.columns).T)
    for name, lo, hi, col in fitted:
        span = hi - lo
        columns[name] = np.zeros_like(col) if span == 0.0 else (col - lo) / span
    return FeatureFrame(dates=list(frame.dates), columns=columns)


def invert_minmax(values: np.ndarray, state: ScalerState, column: str) -> np.ndarray:
    if column not in state.columns:
        raise CompatibilityError(f"scaler has no column {column!r}")
    j = state.columns.index(column)
    return np.asarray(values, dtype=np.float64) * (state.maxs[j] - state.mins[j]) + state.mins[j]


@dataclass
class PcaState:
    """Standardization stats and the orthonormal projection basis."""

    columns: tuple
    mean: np.ndarray  # [d]
    std: np.ndarray  # [d], ddof=1
    eigenvalues: np.ndarray  # [d], descending
    basis: np.ndarray  # [k, d], rows orthonormal
    n_components: int
    explained_share: float


def pca_fit(frame: FeatureFrame, rows, variance_target: float, columns) -> PcaState:
    """Eigendecompose the covariance of the standardized fit rows.

    Retains the smallest component count whose cumulative eigenvalue share
    reaches ``variance_target`` (a 1e-12 slack absorbs cumsum round-off).
    Sign convention: each basis row's largest-magnitude entry is positive.
    """
    if not 0.0 < variance_target <= 1.0:
        raise ConfigError(f"variance target must be in (0,1], got {variance_target}")
    idx = np.asarray(rows)
    columns = tuple(columns)
    d = len(columns)
    if idx.size < d:
        raise PipelineError(
            f"PCA needs at least as many fit rows as features: {idx.size} rows, {d} features"
        )
    x = frame.matrix(columns)[idx]
    mean = x.mean(axis=0)
    std = x.std(axis=0, ddof=1)
    if (std == 0.0).any():
        bad = columns[int(np.nonzero(std == 0.0)[0][0])]
        raise PipelineError(f"PCA cannot standardize constant column {bad!r}")
    z = (x - mean) / std
    cov = z.T @ z / (idx.size - 1)
    if not np.isfinite(cov).all():
        raise PipelineError("non-finite covariance matrix")
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    evecs = evecs[:, order]
    total = float(np.clip(evals, 0.0, None).sum())
    shares = np.cumsum(np.clip(evals, 0.0, None)) / total
    hit = np.nonzero(shares >= variance_target - 1e-12)[0]
    k = int(hit[0]) + 1 if hit.size else d
    basis = np.ascontiguousarray(evecs[:, :k].T)
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaState(
        columns=columns,
        mean=mean,
        std=std,
        eigenvalues=evals,
        basis=basis,
        n_components=k,
        explained_share=float(shares[k - 1]),
    )


def pca_transform(frame: FeatureFrame, state: PcaState) -> FeatureFrame:
    """Project standardized rows onto the basis; other columns pass through."""
    z = (frame.matrix(state.columns) - state.mean) / state.std
    comps = z @ state.basis.T
    columns = {f"pc_{j + 1}": np.ascontiguousarray(comps[:, j]) for j in range(state.n_components)}
    for name, col in frame.columns.items():
        if name not in state.columns:
            columns[name] = col.copy()
    return FeatureFrame(dates=list(frame.dates), columns=columns)


@dataclass
class WindowedDataset:
    """Supervised samples: input windows [N,T,F], a read-only ``window_view``, and targets [N]."""

    inputs: np.ndarray
    targets: np.ndarray
    target_dates: list
    feature_names: tuple
    lookback: int
    horizon: int
    train_idx: np.ndarray = None
    val_idx: np.ndarray = None
    test_idx: np.ndarray = None

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def indices(self, split: str) -> np.ndarray:
        idx = {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx}[split]
        if idx is None:
            raise PipelineError(f"dataset has no {split!r} split")
        return idx


def window_view(x: np.ndarray, lookback: int) -> np.ndarray:
    """Every ``lookback``-row window of ``x`` [L, F] as a read-only [N, T, F] view, not a copy."""
    return np.lib.stride_tricks.sliding_window_view(x, lookback, axis=0).transpose(0, 2, 1)


def make_windows(frame: FeatureFrame, lookback: int, horizon: int = 1, target="close") -> WindowedDataset:
    """Build sample i from input rows [i, i+T) and the target at i+T+horizon-1."""
    if lookback < 1 or horizon < 1:
        raise ConfigError(f"lookback and horizon must be >= 1, got {lookback}, {horizon}")
    length = len(frame)
    if length < lookback + horizon:
        raise PipelineError(
            f"frame too short to window: need at least {lookback + horizon} rows, got {length}"
        )
    features = tuple(n for n in frame.columns if n != target)
    if not features:
        raise PipelineError("no feature columns besides the target")
    if target not in frame.columns:
        raise PipelineError(f"target column {target!r} not in frame")
    n = length - lookback - horizon + 1
    t0 = lookback + horizon - 1
    return WindowedDataset(
        inputs=window_view(frame.matrix(features), lookback)[:n],
        targets=frame.columns[target][t0 : t0 + n].copy(),
        target_dates=list(frame.dates[t0 : t0 + n]),
        feature_names=features,
        lookback=lookback,
        horizon=horizon,
    )


def split_indices(n: int, ratios=(0.7, 0.2, 0.1), mode="chronological", seed=0):
    """Index sets sized floor(r0*n)/floor(r1*n)/remainder, each sorted ascending."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")
    if mode not in ("chronological", "random"):
        raise ConfigError(f"split mode must be chronological or random, got {mode!r}")
    n_train = int(math.floor(ratios[0] * n))
    n_val = int(math.floor(ratios[1] * n))
    if mode == "chronological":
        order = np.arange(n)
    else:
        order = np.random.default_rng(seed).permutation(n)
    train = np.sort(order[:n_train])
    val = np.sort(order[n_train : n_train + n_val])
    test = np.sort(order[n_train + n_val :])
    return train, val, test


@dataclass
class PreprocessState:
    """Frozen fit-time state a checkpoint needs for exact inference replay."""

    selected: tuple
    scaler: ScalerState
    pca: PcaState
    horizon: int


@dataclass
class PrepareConfig:
    lookback: int = 64
    horizon: int = 1
    corr_threshold: float = 0.5
    pca: bool = True
    pca_variance: float = 0.95
    split_ratios: tuple = (0.7, 0.2, 0.1)
    split_mode: str = "chronological"
    seed: int = 42
    # neither a config key nor written to a cache: a checkpoint does not
    # carry it either, so predict could not replay a run that changed it
    sma_windows: tuple = field(default=SMA_WINDOWS, metadata={"persisted": False})

    def validate(self):
        if self.lookback < 1 or self.horizon < 1:
            raise ConfigError("lookback and horizon must be >= 1")
        if not 0.0 <= self.corr_threshold <= 1.0:
            raise ConfigError(f"corr_threshold must be in [0,1], got {self.corr_threshold}")
        if len(self.split_ratios) != 3 or not all(r >= 0.0 for r in self.split_ratios):
            raise ConfigError(
                f"split_ratios must be three non-negative shares (train, val, test), "
                f"got {self.split_ratios}"
            )
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split_ratios must sum to 1, got {self.split_ratios}")
        if self.split_mode not in ("chronological", "random"):
            raise ConfigError(f"split_mode must be chronological or random, got {self.split_mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


@dataclass
class PrepareSummary:
    rows_loaded: int
    outlier_cells: int
    imputed_cells: int
    rows_after_warmup: int
    correlations: dict
    selected: tuple
    dropped_constant: tuple
    pca_components: int
    pca_explained: float
    n_windows: int
    lookback: int
    horizon: int
    split_sizes: tuple

    def format(self) -> str:
        lines = [
            f"rows loaded             {self.rows_loaded}",
            f"outlier cells replaced  {self.outlier_cells}",
            f"cells imputed           {self.imputed_cells}",
            f"rows after warm-up cut  {self.rows_after_warmup}",
            "feature correlations with close:",
        ]
        for name, r in self.correlations.items():
            if math.isnan(r):
                lines.append(f"  {name:<8} constant   dropped")
            else:
                verdict = "kept" if name in self.selected else "dropped"
                lines.append(f"  {name:<8} |r|={abs(r):.4f} {verdict}")
        lines.append(f"selected features       {','.join(self.selected)}")
        if self.pca_components:
            lines.append(
                f"pca                     {self.pca_components} components "
                f"(explained share {self.pca_explained:.4f})"
            )
        else:
            lines.append("pca                     off")
        lines.append(
            f"window samples          {self.n_windows} "
            f"(lookback {self.lookback}, horizon {self.horizon})"
        )
        tr, va, te = self.split_sizes
        lines.append(f"split sizes             train={tr} val={va} test={te}")
        return "\n".join(lines)


@dataclass
class PreparedData:
    dataset: WindowedDataset
    preprocess: PreprocessState
    config: PrepareConfig  # the recipe that made it, split included
    summary: PrepareSummary
    frame: FeatureFrame  # transformed feature frame the windows came from


def training_rows(length: int, train_idx, lookback: int, horizon: int) -> np.ndarray:
    """Frame rows covered by training windows (inputs and targets).

    Window ``i`` reads rows ``[i, i + lookback)`` and its target row
    ``i + lookback + horizon - 1``, which must lie below ``length``.
    """
    starts = np.asarray(train_idx, dtype=np.intp)
    # +1 where a window's inputs begin, -1 one past where they end: the
    # running sum counts the windows that read each row
    edges = np.bincount(starts, minlength=length + 1) - np.bincount(
        starts + lookback, minlength=length + 1
    )
    mask = np.cumsum(edges[:length]) > 0
    mask[starts + lookback + horizon - 1] = True
    return np.nonzero(mask)[0]


def prepare_dataset(raw: FeatureFrame, cfg: PrepareConfig) -> PreparedData:
    """Run the whole preprocessing chain on a raw OHLCV frame."""
    cfg.validate()
    missing_before = sum(int((~np.isfinite(c)).sum()) for c in raw.columns.values())
    frame, imputed_cells = engineer(raw, cfg.sma_windows)

    length = len(frame)
    if length < cfg.lookback + cfg.horizon:
        raise PipelineError(
            f"series too short: {length} rows remain after the {max(cfg.sma_windows)}-row "
            f"warm-up cut, need at least {cfg.lookback + cfg.horizon}"
        )
    n_windows = length - cfg.lookback - cfg.horizon + 1
    train_idx, val_idx, test_idx = split_indices(
        n_windows, cfg.split_ratios, cfg.split_mode, cfg.seed
    )
    fit_rows = training_rows(length, train_idx, cfg.lookback, cfg.horizon)

    rs = correlations(frame, rows=fit_rows, target="close")
    selected = tuple(select_by_correlation(rs, cfg.corr_threshold))
    dropped_constant = tuple(n for n, r in rs.items() if math.isnan(r))
    if not selected:
        raise PipelineError(
            f"no feature passes the correlation threshold {cfg.corr_threshold}"
        )

    scaler = fit_minmax(frame, fit_rows, selected + ("close",))
    scaled = apply_minmax(frame, scaler)

    if cfg.pca:
        pca_state = pca_fit(scaled, fit_rows, cfg.pca_variance, selected)
        modeled = pca_transform(scaled, pca_state)
    else:
        pca_state = None
        modeled = scaled

    dataset = make_windows(modeled, cfg.lookback, cfg.horizon)
    dataset = replace(dataset, train_idx=train_idx, val_idx=val_idx, test_idx=test_idx)

    summary = PrepareSummary(
        rows_loaded=len(raw),
        outlier_cells=imputed_cells - missing_before,
        imputed_cells=imputed_cells,
        rows_after_warmup=length,
        correlations=rs,
        selected=selected,
        dropped_constant=dropped_constant,
        pca_components=pca_state.n_components if pca_state else 0,
        pca_explained=pca_state.explained_share if pca_state else 0.0,
        n_windows=n_windows,
        lookback=cfg.lookback,
        horizon=cfg.horizon,
        split_sizes=(train_idx.size, val_idx.size, test_idx.size),
    )
    preprocess = PreprocessState(
        selected=selected, scaler=scaler, pca=pca_state, horizon=cfg.horizon
    )
    return PreparedData(
        dataset=dataset, preprocess=preprocess, config=cfg, summary=summary, frame=modeled
    )


# --- preprocessing-state text block (shared by checkpoints and data caches) ---


def preprocess_lines(state: PreprocessState) -> list:
    lines = ["[preprocessing]"]
    lines.append(f"horizon={state.horizon}")
    lines.append(f"selected={','.join(state.selected)}")
    lines.append(f"scaler_columns={','.join(state.scaler.columns)}")
    lines.append("scaler_min " + fmt_vector(state.scaler.mins))
    lines.append("scaler_max " + fmt_vector(state.scaler.maxs))
    if state.pca is None:
        lines.append("pca=off")
    else:
        p = state.pca
        lines.append("pca=on")
        lines.append(f"pca_columns={','.join(p.columns)}")
        lines.append("pca_mean " + fmt_vector(p.mean))
        lines.append("pca_std " + fmt_vector(p.std))
        lines.append("pca_eigenvalues " + fmt_vector(p.eigenvalues))
        lines.append(f"pca_components={p.n_components}")
        lines.append(f"pca_explained={p.explained_share:.17g}")
        lines.append(f"pca_basis {p.n_components} {len(p.columns)}")
        lines.extend(array_lines(p.basis))
    return lines


def _names(value: str) -> tuple:
    return tuple(value.split(","))


def _expect_vector(reader: LineReader, key: str, count: int) -> np.ndarray:
    line = reader.next()
    name, _, rest = line.partition(" ")
    if name != key:
        raise reader.error(f"expected {key!r} values, got {line!r}")
    parts = rest.split()
    if len(parts) != count:
        raise reader.error(f"{key}: expected {count} values, got {len(parts)}")
    return reader.read_floats(count, parts)


def read_preprocess_block(reader: LineReader) -> PreprocessState:
    if reader.next() != "[preprocessing]":
        raise reader.error("expected [preprocessing] section")
    horizon = reader.expect("horizon", int)
    selected = reader.expect("selected", _names)
    scaler_cols = reader.expect("scaler_columns", _names)
    mins = _expect_vector(reader, "scaler_min", len(scaler_cols))
    maxs = _expect_vector(reader, "scaler_max", len(scaler_cols))
    scaler = ScalerState(columns=scaler_cols, mins=mins, maxs=maxs)
    pca_flag = reader.expect("pca")
    if pca_flag == "off":
        pca_state = None
    elif pca_flag == "on":
        cols = reader.expect("pca_columns", _names)
        d = len(cols)
        mean = _expect_vector(reader, "pca_mean", d)
        std = _expect_vector(reader, "pca_std", d)
        evals = _expect_vector(reader, "pca_eigenvalues", d)
        k = reader.expect("pca_components", int)
        explained = reader.expect("pca_explained", float)
        header = reader.next().split()
        if header[:1] != ["pca_basis"] or len(header) != 3:
            raise reader.error("expected pca_basis <k> <d>")
        bk = reader.convert(header[1], int, "pca_basis rows")
        bd = reader.convert(header[2], int, "pca_basis columns")
        if bk != k or bd != d:
            raise reader.error(f"pca_basis dims {bk}x{bd} disagree with {k}x{d}")
        basis = reader.read_array(k * d).reshape(k, d)
        pca_state = PcaState(
            columns=cols,
            mean=mean,
            std=std,
            eigenvalues=evals,
            basis=basis,
            n_components=k,
            explained_share=explained,
        )
    else:
        raise reader.error(f"pca must be on or off, got {pca_flag!r}")
    return PreprocessState(selected=selected, scaler=scaler, pca=pca_state, horizon=horizon)


# --- prepared-dataset cache file ---

DATA_MAGIC = "CNNLSTM-DATA"
DATA_VERSION = "v3"


def save_dataset(prepared: PreparedData, path):
    """Write the prepare config, preprocessing state and transformed frame.

    Dates and the header are text; each column is one binary64 block line
    (see ``textio``). A failed save leaves any previous file at ``path``
    untouched. Neither the windows nor the split are stored: loading
    rebuilds the windows from the frame with the echoed lookback/horizon
    and derives the split from the echoed recipe, both bit-exact.
    """
    frame = prepared.frame
    lines = [f"{DATA_MAGIC} {DATA_VERSION}", *config_lines(prepared.config)]
    lines.extend(preprocess_lines(prepared.preprocess))
    lines.append("[frame]")
    lines.append(f"rows={len(frame)}")
    lines.append(f"columns={','.join(frame.columns)}")
    lines.append("dates")
    # each date cast to its ten ISO-8601 bytes, then a space or, after every eighth, a newline
    days = np.array(list(map(_date.toordinal, frame.dates)), np.int64) + np.datetime64("0000-12-31")
    seps = np.where(np.arange(days.size) % 8 == 7, b"\n", b" ").view(np.uint8)
    block = np.column_stack([days.astype("S10").view(np.uint8).reshape(-1, 10), seps]).tobytes()
    lines.extend([block.decode("ascii")[:-1]] if days.size else [])
    for name, col in frame.columns.items():
        lines.append(f"column {name}")
        lines.extend(array_lines(col))
    write_lines(path, lines)


def load_dataset(path):
    """Read a dataset cache; returns ``(PreparedData, PrepareConfig)``.

    The header's recipe is validated, then the split is derived from it
    over the rebuilt windows with the call ``prepare_dataset`` makes. A
    line after the last column block, or a header horizon that disagrees
    with the ``[preprocessing]`` one, is a format error. The loaded
    PreparedData carries no summary (that belongs to prepare time).
    """
    reader = read_file(path, DATA_MAGIC, DATA_VERSION, "dataset")
    cfg = read_config(reader, PrepareConfig)
    preprocess = read_preprocess_block(reader)
    if preprocess.horizon != cfg.horizon:
        raise CheckpointFormatError(
            f"{path}: header horizon={cfg.horizon} disagrees with "
            f"[preprocessing] horizon={preprocess.horizon}"
        )
    if reader.next() != "[frame]":
        raise reader.error("expected [frame] section")
    rows = reader.expect("rows", int)
    names = reader.expect("columns", _names)
    if reader.next() != "dates":
        raise reader.error("expected dates block")
    dates = reader.read_dates(rows)
    columns = {}
    for name in names:
        header = reader.next().split()
        if header != ["column", name]:
            raise reader.error(f"expected 'column {name}', got {' '.join(header)!r}")
        columns[name] = reader.read_array(rows)
    reader.expect_end()
    frame = FeatureFrame(dates=dates, columns=columns)
    dataset = make_windows(frame, cfg.lookback, cfg.horizon)
    train_idx, val_idx, test_idx = split_indices(
        dataset.n, cfg.split_ratios, cfg.split_mode, cfg.seed
    )
    dataset = replace(dataset, train_idx=train_idx, val_idx=val_idx, test_idx=test_idx)
    prepared = PreparedData(
        dataset=dataset, preprocess=preprocess, config=cfg, summary=None, frame=frame
    )
    return prepared, cfg
