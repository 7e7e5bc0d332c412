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

The CSV load converts unquoted text ``BLOCK_ROWS`` lines at a time, never a
str per cell of the whole file: on 20,000 rows its traced peak is about 250
bytes a row, where one split of the whole body took about 660.
"""

import csv
import io
import math
from dataclasses import dataclass, field, replace
from datetime import date as _date

import numpy as np

from .errors import CompatibilityError, ConfigError, DataError
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
    by the input, give the same series: ``_split_plain``, which converts
    ``BLOCK_ROWS`` lines of unquoted text at a time, or else ``csv.reader``.
    On unquoted text the load holds the text, about 90 bytes a row of dates
    and values, and one block's lines and cells (about 2 MB); a file already
    in date order is neither sorted nor copied.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
        first_lines, dates, data = _split_plain(text) or _split_csv(path, text)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None

    ordinals = np.fromiter(map(_date.toordinal, dates), dtype=np.int64, count=len(dates))
    if not (np.diff(ordinals) > 0).all():  # else ascending, so without a repeat
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
        data = data[:, order]
        dates = [dates[i] for i in order.tolist()]
    columns = {name: np.ascontiguousarray(data[j]) for j, name in enumerate(OHLCV_COLUMNS)}
    if not np.isfinite(columns["close"]).any():
        raise DataError(f"{path}: close column has no observed values")
    return FeatureFrame(dates=dates, columns=columns)


# Lines that _split_plain tokenises and converts at a time. On 20,000 rows of
# about 65 characters, load_ohlcv's traced peak was 3.3, 4.0, 5.0 and 7.2 MB
# at blocks of 256, 1,024, 2,048 and 4,096 lines, and 13.2 MB with the whole
# body at once, at the same speed within the noise (22-24 ms on a 2-vCPU Xeon).
BLOCK_ROWS = 2048


def _split_plain(text):
    """``_split_csv``'s result for text that ``csv.reader`` splits at every
    comma and line break and whose rows all parse, else None. A row is a
    file line, so lines are counted only when asked for. The lines are split,
    checked and converted ``BLOCK_ROWS`` at a time into arrays sized once."""
    if "\r" in text:  # the line breaks csv.reader sees in a file opened with newline=""
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    start = text.find("\n") + 1
    header = tuple(c.strip() for c in text[:start].split(","))
    if header != CSV_HEADER or '"' in text or "\0" in text:
        return None
    dates, data = [], np.empty((len(OHLCV_COLUMNS), text.count("\n")))
    for lines in _line_blocks(text, start):
        body = list(filter(None, lines))
        if not body:
            continue
        if (max(map(len, body)) > csv.field_size_limit()
                or set(map(str.count, body, [","] * len(body))) != {5}):
            return None
        tokens = ",".join(body).split(",")
        try:
            day = list(map(_date.fromisoformat, map(str.strip, tokens[0::6])))
            del tokens[0::6]
            # numpy's conversion accepts padded numbers; a blank cell fails it
            cells = np.array([t or "nan" for t in tokens], dtype=np.float64)
        except ValueError:
            return None
        data[:, len(dates) : len(dates) + len(day)] = cells.reshape(-1, len(OHLCV_COLUMNS)).T
        dates += day
    if not dates:
        return None
    return (
        lambda: np.flatnonzero(list(map(len, text.split("\n")[1:]))) + 2,
        dates,
        data[:, : len(dates)],
    )


def _line_blocks(text, start):
    """The lines of ``text`` from offset ``start`` on, in lists of
    ``BLOCK_ROWS`` (the last may be shorter), each split from a slice about
    as long as its lines rather than from the rest of the text."""
    span = 128 * BLOCK_ROWS  # characters; doubled while a slice holds too few lines
    while start < len(text):
        piece = text[start : start + span]
        lines = piece.split("\n", BLOCK_ROWS)
        if len(lines) > BLOCK_ROWS:  # the last item is the rest of the slice
            start += len(piece) - len(lines.pop())
        elif start + span < len(text):
            span *= 2
            continue
        else:
            start = len(text)
        yield lines


def _split_csv(path, text):
    """A function giving the first file line of each data row, the rows'
    dates and their [5,N] cells, read by ``csv.reader``; raises at the first
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
        data = np.array(cells, dtype=np.float64).reshape(-1, len(OHLCV_COLUMNS)).T
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
            raise DataError(f"column {name} has no observed values")
        if observed.size < 2:
            raise DataError(f"column {name} needs >= 2 observed values, has 1")
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
            raise DataError(f"column {name} has no observed values to impute from")
        filled = col.copy()
        filled[~mask] = np.mean(col[mask])
        out[name] = filled
    return FeatureFrame(dates=list(frame.dates), columns=out)


def add_moving_averages(frame: FeatureFrame, windows=SMA_WINDOWS) -> FeatureFrame:
    """Append sma_<w> columns: trailing means of close, NaN during warm-up."""
    close = frame.columns.get("close")
    if close is None or not np.isfinite(close).all():
        raise DataError("moving averages need a complete close column")
    longest = max(windows)
    if len(frame) < longest:
        raise DataError(
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
        raise DataError("yield needs a complete close column")
    prev = close[:-1]
    zero = np.nonzero(prev == 0.0)[0]
    if zero.size:
        raise DataError(
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


def correlations(frame: FeatureFrame, rows=None) -> dict:
    """Pearson r of every column but ``close`` against ``close``, the target.

    Constant columns map to NaN. ``rows`` restricts the statistics (the
    orchestrator passes training rows).
    """
    if "close" not in frame.columns:
        raise DataError("target column 'close' not in frame")
    idx = np.arange(len(frame)) if rows is None else np.asarray(rows)
    if idx.size < 2:
        raise DataError("correlation needs at least 2 rows")
    y = frame.columns["close"][idx]
    yc = y - y.mean()
    ss_y = float(yc @ yc)
    if ss_y == 0.0:
        raise DataError("target column has zero variance")
    out = {}
    for name, col in frame.columns.items():
        if name == "close":
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

    A constant feature's r is NaN, which passes no threshold; the prepare
    report names it. Returns names in the order of ``rs``, which is frame
    column order.
    """
    return [name for name, r in rs.items() if abs(r) >= threshold]


@dataclass
class ScalerState:
    """Per-column min/max from the fit rows."""

    columns: tuple
    mins: np.ndarray
    maxs: np.ndarray


def fit_minmax(frame: FeatureFrame, rows, columns) -> ScalerState:
    idx = np.asarray(rows)
    if idx.size == 0:
        raise DataError("min-max fit segment is empty")
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
    """Standardization stats and the orthonormal projection basis, all that
    ``pca_transform`` reads and a file stores; k is ``len(basis)``."""

    columns: tuple
    mean: np.ndarray  # [d]
    std: np.ndarray  # [d], ddof=1
    basis: np.ndarray  # [k, d], rows orthonormal


def pca_fit(frame: FeatureFrame, rows, variance_target: float, columns) -> tuple:
    """Eigendecompose the covariance of the standardized fit rows; returns
    ``(state, explained_share)``, the share only ``prepare``'s report reads.

    Retains the smallest component count whose cumulative eigenvalue share
    reaches ``variance_target``, in (0,1] as ``PrepareConfig.validate``
    requires (a 1e-12 slack absorbs cumsum round-off).
    Sign convention: each basis row's largest-magnitude entry is positive.
    """
    idx = np.asarray(rows)
    columns = tuple(columns)
    d = len(columns)
    if idx.size < d:
        raise DataError(
            f"PCA needs at least as many fit rows as features: {idx.size} rows, {d} features"
        )
    x = frame.matrix(columns)[idx]
    mean = x.mean(axis=0)
    std = x.std(axis=0, ddof=1)
    if (std == 0.0).any():
        bad = columns[int(np.nonzero(std == 0.0)[0][0])]
        raise DataError(f"PCA cannot standardize constant column {bad!r}")
    z = (x - mean) / std
    cov = z.T @ z / (idx.size - 1)
    if not np.isfinite(cov).all():
        raise DataError("non-finite covariance matrix")
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
    return PcaState(columns=columns, mean=mean, std=std, basis=basis), float(shares[k - 1])


def pca_transform(frame: FeatureFrame, state: PcaState) -> FeatureFrame:
    """Project standardized rows onto the basis; other columns pass through."""
    z = (frame.matrix(state.columns) - state.mean) / state.std
    comps = z @ state.basis.T
    columns = {f"pc_{j + 1}": np.ascontiguousarray(comps[:, j]) for j in range(len(state.basis))}
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
    train_idx: np.ndarray = None
    val_idx: np.ndarray = None
    test_idx: np.ndarray = None

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def indices(self, split: str) -> np.ndarray:
        idx = {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx}[split]
        if idx is None:
            raise DataError(f"dataset has no {split!r} split")
        return idx


def window_view(x: np.ndarray, lookback: int) -> np.ndarray:
    """Every ``lookback``-row window of ``x`` [L, F] as a read-only [N, T, F] view, not a copy."""
    return np.lib.stride_tricks.sliding_window_view(x, lookback, axis=0).transpose(0, 2, 1)


def make_windows(frame: FeatureFrame, lookback: int, horizon: int = 1) -> WindowedDataset:
    """Build sample i from input rows [i, i+T) of every column but ``close``
    and the target: ``close`` at row i+T+horizon-1."""
    if lookback < 1 or horizon < 1:
        raise ConfigError(f"lookback and horizon must be >= 1, got {lookback}, {horizon}")
    length = len(frame)
    if length < lookback + horizon:
        raise DataError(
            f"frame too short to window: need at least {lookback + horizon} rows, got {length}"
        )
    features = tuple(n for n in frame.columns if n != "close")
    if not features:
        raise DataError("no feature columns besides the target")
    if "close" not in frame.columns:
        raise DataError("target column 'close' not in frame")
    n = length - lookback - horizon + 1
    t0 = lookback + horizon - 1
    return WindowedDataset(
        inputs=window_view(frame.matrix(features), lookback)[:n],
        targets=frame.columns["close"][t0 : t0 + n].copy(),
        target_dates=list(frame.dates[t0 : t0 + n]),
        feature_names=features,
        lookback=lookback,
    )


def split_indices(n: int, ratios=(0.7, 0.2, 0.1)):
    """The train, val and test indices of ``n`` windows in time order: consecutive
    runs of ``np.arange(n)`` sized floor(r0*n), floor(r1*n) and the remainder."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")
    n_train = int(math.floor(ratios[0] * n))
    n_val = int(math.floor(ratios[1] * n))
    order = np.arange(n)
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]


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
    # neither a config key nor written to a cache: a checkpoint does not
    # carry it either, so predict could not replay a run that changed it
    sma_windows: tuple = field(default=SMA_WINDOWS, metadata={"persisted": False})

    def validate(self):
        if self.lookback < 1 or self.horizon < 1:
            raise ConfigError("lookback and horizon must be >= 1")
        if not 0.0 <= self.corr_threshold <= 1.0:
            raise ConfigError(f"corr_threshold must be in [0,1], got {self.corr_threshold}")
        if not 0.0 < self.pca_variance <= 1.0:
            raise ConfigError(f"pca_variance must be in (0,1], got {self.pca_variance}")
        if len(self.split_ratios) != 3 or not all(r >= 0.0 for r in self.split_ratios):
            raise ConfigError(
                f"split_ratios must be three non-negative shares (train, val, test), "
                f"got {self.split_ratios}"
            )
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split_ratios must sum to 1, got {self.split_ratios}")
        return self


@dataclass
class PrepareSummary:
    """What a prepare run saw that its ``PreparedData`` cannot tell: rows
    loaded, cells cleaning marked and imputation filled, each feature's
    correlation with close over the fit rows, and PCA's explained share."""

    rows_loaded: int
    outlier_cells: int
    imputed_cells: int
    correlations: dict
    pca_explained: float


@dataclass
class PreparedData:
    """The windows and their split, the fitted preprocessing, the recipe and
    the frame the windows read; ``summary`` is the prepare run's own counts,
    and None for a loaded cache."""

    dataset: WindowedDataset
    preprocess: PreprocessState
    config: PrepareConfig  # the recipe that made it, split included
    summary: PrepareSummary
    frame: FeatureFrame  # transformed feature frame the windows came from

    def describe(self) -> str:
        """The report ``cnnlstm prepare`` prints: the summary's counts (so a
        ``prepare_dataset`` result only), then the rows left after the warm-up
        cut, the selection, PCA, windows and split read from the data itself."""
        s, pre, ds = self.summary, self.preprocess, self.dataset
        lines = [
            f"rows loaded             {s.rows_loaded}",
            f"outlier cells replaced  {s.outlier_cells}",
            f"cells imputed           {s.imputed_cells}",
            f"rows after warm-up cut  {len(self.frame)}",
            "feature correlations with close:",
        ]
        for name, r in s.correlations.items():
            if math.isnan(r):
                lines.append(f"  {name:<8} constant   dropped")
            else:
                verdict = "kept" if name in pre.selected else "dropped"
                lines.append(f"  {name:<8} |r|={abs(r):.4f} {verdict}")
        lines.append(f"selected features       {','.join(pre.selected)}")
        if pre.pca:
            lines.append(
                f"pca                     {len(pre.pca.basis)} components "
                f"(explained share {s.pca_explained:.4f})"
            )
        else:
            lines.append("pca                     off")
        lines.append(
            f"window samples          {ds.n} "
            f"(lookback {ds.lookback}, horizon {pre.horizon})"
        )
        tr, va, te = (ds.indices(split).size for split in ("train", "val", "test"))
        lines.append(f"split sizes             train={tr} val={va} test={te}")
        return "\n".join(lines)


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


def _windowed(frame: FeatureFrame, cfg: PrepareConfig, split=None) -> WindowedDataset:
    """``frame``'s windows with their train, val and test indices, for
    ``prepare_dataset`` and ``load_dataset`` alike: ``split``, which prepare
    computes before the frame exists, or else ``split_indices`` of the windows."""
    dataset = make_windows(frame, cfg.lookback, cfg.horizon)
    train, val, test = split_indices(dataset.n, cfg.split_ratios) if split is None else split
    return replace(dataset, train_idx=train, val_idx=val, test_idx=test)


def prepare_dataset(raw: FeatureFrame, cfg: PrepareConfig) -> PreparedData:
    """Run the whole preprocessing chain on a raw OHLCV frame."""
    cfg.validate()
    missing_before = sum(int((~np.isfinite(c)).sum()) for c in raw.columns.values())
    frame, imputed_cells = engineer(raw, cfg.sma_windows)

    length = len(frame)
    if length < cfg.lookback + cfg.horizon:
        raise DataError(
            f"series too short: {length} rows remain after the {max(cfg.sma_windows)}-row "
            f"warm-up cut, need at least {cfg.lookback + cfg.horizon}"
        )
    n_windows = length - cfg.lookback - cfg.horizon + 1
    split = split_indices(n_windows, cfg.split_ratios)
    fit_rows = training_rows(length, split[0], cfg.lookback, cfg.horizon)

    rs = correlations(frame, rows=fit_rows)
    selected = tuple(select_by_correlation(rs, cfg.corr_threshold))
    if not selected:
        raise DataError(
            f"no feature passes the correlation threshold {cfg.corr_threshold}"
        )

    scaler = fit_minmax(frame, fit_rows, selected + ("close",))
    scaled = apply_minmax(frame, scaler)

    pca_state, explained = (
        pca_fit(scaled, fit_rows, cfg.pca_variance, selected) if cfg.pca else (None, None)
    )
    modeled = pca_transform(scaled, pca_state) if pca_state else scaled

    dataset = _windowed(modeled, cfg, split)

    summary = PrepareSummary(
        rows_loaded=len(raw),
        outlier_cells=imputed_cells - missing_before,
        imputed_cells=imputed_cells,
        correlations=rs,
        pca_explained=explained,
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
        lines.append(f"pca_basis {len(p.basis)} {len(p.columns)}")
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
    return reader.read_floats(parts)


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
        header = reader.next().split()
        if header[:1] != ["pca_basis"] or len(header) != 3:
            raise reader.error("expected pca_basis <k> <d>")
        k = reader.convert(header[1], int, "pca_basis rows")
        bd = reader.convert(header[2], int, "pca_basis columns")
        if bd != d:
            raise reader.error(f"pca_basis has {bd} columns, pca_columns names {d}")
        basis = reader.read_array(k * d).reshape(k, d)
        pca_state = PcaState(columns=cols, mean=mean, std=std, basis=basis)
    else:
        raise reader.error(f"pca must be on or off, got {pca_flag!r}")
    return PreprocessState(selected=selected, scaler=scaler, pca=pca_state, horizon=horizon)


# --- prepared-dataset cache file ---

DATA_MAGIC = "CNNLSTM-DATA"
DATA_VERSION = "v5"


def save_dataset(prepared: PreparedData, path):
    """Write the prepare config, preprocessing state and transformed frame.

    The header is text. The dates, as day numbers (``date.toordinal``), and
    each column are one binary64 block line (see ``textio``). A failed save
    leaves any previous file at ``path`` untouched. Neither the windows nor
    the split are stored: loading rebuilds the windows from the frame with
    the echoed lookback/horizon and the time-order split from the echoed
    ``split_ratios``, both bit-exact. Nor is the ``PrepareSummary``.
    """
    frame = prepared.frame
    lines = [f"{DATA_MAGIC} {DATA_VERSION}", *config_lines(prepared.config)]
    lines.extend(preprocess_lines(prepared.preprocess))
    lines.append("[frame]")
    lines.append(f"rows={len(frame)}")
    lines.append(f"columns={','.join(frame.columns)}")
    lines.append("dates")
    lines.extend(array_lines(list(map(_date.toordinal, frame.dates))))
    for name, col in frame.columns.items():
        lines.append(f"column {name}")
        lines.extend(array_lines(col))
    write_lines(path, lines)


def load_dataset(path):
    """Read a dataset cache; returns ``(PreparedData, PrepareConfig)``.

    The header's recipe is validated, then the windows and their split are
    rebuilt from it by the function ``prepare_dataset`` makes them with. The
    dates are read as a binary64 block of day numbers; one that is not a
    whole number from 1 to ``date.max.toordinal()``, a line after the last
    column block, or a header horizon that disagrees with the
    ``[preprocessing]`` one, is a format error. The loaded PreparedData
    carries no summary (that belongs to prepare time).
    """
    reader = read_file(path, DATA_MAGIC, DATA_VERSION, "dataset")
    cfg = read_config(reader, PrepareConfig)
    preprocess = read_preprocess_block(reader)
    if preprocess.horizon != cfg.horizon:
        raise DataError(
            f"{path}: header horizon={cfg.horizon} disagrees with "
            f"[preprocessing] horizon={preprocess.horizon}"
        )
    if reader.next() != "[frame]":
        raise reader.error("expected [frame] section")
    rows = reader.expect("rows", int)
    names = reader.expect("columns", _names)
    if reader.next() != "dates":
        raise reader.error("expected dates block")
    days = reader.read_array(rows)
    bad = days[~((days >= 1) & (days <= _date.max.toordinal()) & (np.floor(days) == days))]
    if bad.size:
        raise reader.error(f"day number {float(bad[0])!r} is not a whole number "
                           f"from 1 to {_date.max.toordinal()}")
    dates = list(map(_date.fromordinal, days.astype(np.int64).tolist()))
    columns = {}
    for name in names:
        header = reader.next().split()
        if header != ["column", name]:
            raise reader.error(f"expected 'column {name}', got {' '.join(header)!r}")
        columns[name] = reader.read_array(rows)
    reader.expect_end()
    frame = FeatureFrame(dates=dates, columns=columns)
    dataset = _windowed(frame, cfg)
    prepared = PreparedData(
        dataset=dataset, preprocess=preprocess, config=cfg, summary=None, frame=frame
    )
    return prepared, cfg
