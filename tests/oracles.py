"""Independent reference implementations the tests check the library against.

Nothing here may import from the code paths it verifies: gradients come from
central differences, eigenpairs from a hand-rolled Jacobi sweep, cleaning
rules from explicit per-cell loops.
"""

import base64
import csv
import math
import struct
from datetime import date

import numpy as np


def finite_difference(f, arr, eps=1e-6):
    """Central-difference gradient of the scalar closure ``f`` wrt ``arr``.

    ``f`` must read the live array; entries are perturbed in place and
    restored exactly.
    """
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        up = f()
        flat[i] = saved - eps
        down = f()
        flat[i] = saved
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def rel_deviation(analytic, numeric):
    """max|a-n| relative to the larger gradient magnitude (1e-12 floor)."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def jacobi_eigh(a, sweeps=50, tol=1e-13):
    """Eigenpairs of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues desc, eigenvectors as rows) with each row's
    largest-magnitude entry positive. Deliberately avoids numpy.linalg.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    evals = np.diag(a).copy()
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    rows = v[:, order].T.copy()
    for row in rows:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return evals, rows


def reference_clean_impute(columns):
    """Three-sigma cleaning then mean imputation, cell by cell.

    ``columns``: name -> list of float-or-None. Returns name -> list of
    floats. Statistics use the same primitives as the library (np.mean,
    sample std) so agreement is exact, while the rule application is
    independent plain-Python loops.
    """
    cleaned = {}
    for name, cells in columns.items():
        observed = [v for v in cells if v is not None]
        mu = float(np.mean(observed))
        s = float(np.std(observed, ddof=1))
        kept = []
        for v in cells:
            if v is not None and abs(v - mu) > 3.0 * s:
                kept.append(None)
            else:
                kept.append(v)
        cleaned[name] = kept
    imputed = {}
    for name, cells in cleaned.items():
        observed = [v for v in cells if v is not None]
        mean = float(np.mean(observed))
        imputed[name] = [mean if v is None else v for v in cells]
    return imputed


def pearson(x, y):
    """Plain-formula Pearson correlation."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def reference_array_lines(values):
    """The bulk-array block value by value: each float packed as little-endian
    binary64 with ``struct``, in C order, the bytes base64-encoded on one line."""
    flat = [float(v) for v in np.asarray(values, dtype=np.float64).ravel(order="C")]
    raw = b"".join(struct.pack("<d", v) for v in flat)
    return [base64.b64encode(raw).decode("ascii")]


def reference_read_values(lines, count, convert=float):
    """The text reader value by value over ``lines``, each converted by ``convert``.

    Returns the values, or raises ``ValueError(lineno, message)`` with the
    1-based line at fault, stopping where a reader that checks each line's
    count and then each of its tokens in turn would stop.
    """
    out = []
    for lineno, line in enumerate(lines, start=1):
        if len(out) >= count:
            break
        parts = line.split()
        if len(out) + len(parts) > count:
            raise ValueError(lineno, f"expected {count} values, got more")
        for p in parts:
            try:
                out.append(convert(p))
            except (ValueError, OverflowError):
                raise ValueError(lineno, f"unparseable token {p!r}") from None
    if len(out) < count:
        raise ValueError(None, "unexpected end of file")
    return out


class ReferenceCsvError(Exception):
    """The fault ``reference_load_ohlcv`` stops at; its message is the loader's."""


_CSV_HEADER = ("Date", "Open", "High", "Low", "Close", "Volume")
_OHLCV = ("open", "high", "low", "close", "volume")


def reference_load_ohlcv(path):
    """The CSV loader as it was before its plain-text tokeniser: every file
    through ``csv.reader``, one row list at a time, each cell stripped.

    Returns ``(dates, columns)`` sorted by date, or raises
    ``ReferenceCsvError`` with the message ``load_ohlcv`` gives. It reads
    with ``utf-8-sig``, as the loader does now, so that a byte-order mark
    is the only difference it does not model. A row's line is the file line
    it starts on: a quoted cell may hold a line break.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows, starts, start = [], [], 1
            for row in reader:
                rows.append(row)
                starts.append(start)
                start = reader.line_num + 1
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ReferenceCsvError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise ReferenceCsvError(f"{path}: empty file")
    if tuple(c.strip() for c in rows[0]) != _CSV_HEADER:
        raise ReferenceCsvError(
            f"{path}, line 1: expected header {','.join(_CSV_HEADER)!r}, "
            f"got {','.join(rows[0])!r}"
        )
    parsed = []  # (date, cells, line)
    for lineno, row in zip(starts[1:], rows[1:]):
        if not row:
            continue
        if len(row) != 6:
            raise ReferenceCsvError(f"{path}, line {lineno}: expected 6 cells, got {len(row)}")
        try:
            day = date.fromisoformat(row[0].strip())
        except ValueError:
            raise ReferenceCsvError(
                f"{path}, line {lineno}: unparseable date {row[0]!r}"
            ) from None
        cells = []
        for name, cell in zip(_OHLCV, row[1:]):
            cell = cell.strip()
            try:
                cells.append(np.array([cell or "nan"], dtype=np.float64)[0])
            except ValueError:
                raise ReferenceCsvError(
                    f"{path}, line {lineno}: unparseable number {cell!r} in column {name}"
                ) from None
        parsed.append((day, cells, lineno))
    if not parsed:
        raise ReferenceCsvError(f"{path}: no data rows")
    seen = {}
    first_repeat = None
    for day, _, lineno in parsed:
        if day in seen and first_repeat is None:
            first_repeat = (lineno, day, seen[day])
        seen.setdefault(day, lineno)
    if first_repeat:
        lineno, day, first = first_repeat
        raise ReferenceCsvError(
            f"{path}, line {lineno}: duplicate date {day.isoformat()} (first seen on line {first})"
        )
    parsed.sort(key=lambda entry: entry[0])
    columns = {
        name: np.array([cells[j] for _, cells, _ in parsed], dtype=np.float64)
        for j, name in enumerate(_OHLCV)
    }
    if not np.isfinite(columns["close"]).any():
        raise ReferenceCsvError(f"{path}: close column has no observed values")
    return [day for day, _, _ in parsed], columns


def reference_token_lines(tokens, per_line):
    """A block of text tokens written value by value, ``per_line`` to a line."""
    lines, line = [], []
    for token in tokens:
        line.append(str(token))
        if len(line) == per_line:
            lines.append(" ".join(line))
            line = []
    return lines + ([" ".join(line)] if line else [])


def reference_training_rows(length, train_idx, lookback, horizon):
    """Rows read by training windows, marked window by window."""
    mask = [False] * length
    for i in train_idx:
        for r in range(i, i + lookback):
            mask[r] = True
        mask[i + lookback + horizon - 1] = True
    return [r for r in range(length) if mask[r]]


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def reference_lstm_forward(x, w, u, b, return_sequence):
    """The LSTM gate by gate and step by step, batch-major.

    ``w``, ``u``, ``b``: gate ('i', 'f', 'o', 'g') -> [H,F], [H,H], [H].
    ``x`` is [T,F] or [B,T,F]. Returns ``(output, state)``; ``state`` holds
    what ``reference_lstm_backward`` needs.
    """
    x3 = x[None] if x.ndim == 2 else x
    batch, steps, _ = x3.shape
    size = b["i"].shape[0]
    acts = {g: np.empty((batch, steps, size)) for g in "ifog"}
    cs = np.empty((batch, steps, size))
    tcs = np.empty((batch, steps, size))
    hs = np.empty((batch, steps, size))
    h = np.zeros((batch, size))
    c = np.zeros((batch, size))
    for step in range(steps):
        x_t = x3[:, step, :]
        pre = {g: x_t @ w[g].T + h @ u[g].T + b[g] for g in "ifog"}
        i_t = _sigmoid(pre["i"])
        f_t = _sigmoid(pre["f"])
        o_t = _sigmoid(pre["o"])
        g_t = np.tanh(pre["g"])
        c = f_t * c + i_t * g_t
        tc = np.tanh(c)
        h = o_t * tc
        for g, v in zip("ifog", (i_t, f_t, o_t, g_t)):
            acts[g][:, step] = v
        cs[:, step] = c
        tcs[:, step] = tc
        hs[:, step] = h
    out = hs if return_sequence else hs[:, -1, :]
    state = dict(x=x3, w=w, u=u, acts=acts, c=cs, tanh_c=tcs, h=hs,
                 return_sequence=return_sequence, batched=x.ndim == 3)
    return (out if x.ndim == 3 else out[0]), state


def reference_lstm_backward(grad_out, state):
    """BPTT gate by gate and step by step: ``(grad_x, dw, du, db)`` as gate dicts."""
    x3, w, u, acts = state["x"], state["w"], state["u"], state["acts"]
    cs, tcs, hs = state["c"], state["tanh_c"], state["h"]
    batch, steps, _ = x3.shape
    size = hs.shape[2]
    g_out = grad_out if state["batched"] else grad_out[None]
    dw = {g: np.zeros_like(w[g]) for g in "ifog"}
    du = {g: np.zeros_like(u[g]) for g in "ifog"}
    db = {g: np.zeros(size) for g in "ifog"}
    grad_x = np.empty_like(x3)
    dh_next = np.zeros((batch, size))
    dc_next = np.zeros((batch, size))
    for step in reversed(range(steps)):
        dh = dh_next.copy()
        if state["return_sequence"]:
            dh += g_out[:, step, :]
        elif step == steps - 1:
            dh += g_out
        i_t, f_t, o_t, g_t = (acts[g][:, step] for g in "ifog")
        tc = tcs[:, step]
        c_prev = cs[:, step - 1] if step > 0 else np.zeros((batch, size))
        h_prev = hs[:, step - 1] if step > 0 else np.zeros((batch, size))
        do = dh * tc
        dc = dc_next + dh * o_t * (1.0 - tc * tc)
        dc_next = dc * f_t
        dpre = {
            "i": dc * g_t * i_t * (1.0 - i_t),
            "f": dc * c_prev * f_t * (1.0 - f_t),
            "o": do * o_t * (1.0 - o_t),
            "g": dc * i_t * (1.0 - g_t * g_t),
        }
        x_t = x3[:, step, :]
        dx = np.zeros_like(x_t)
        dh_next = np.zeros((batch, size))
        for g in "ifog":
            dw[g] += dpre[g].T @ x_t
            du[g] += dpre[g].T @ h_prev
            db[g] += dpre[g].sum(axis=0)
            dx += dpre[g] @ w[g]
            dh_next += dpre[g] @ u[g]
        grad_x[:, step, :] = dx
    return (grad_x if state["batched"] else grad_x[0]), dw, du, db


def reference_conv1d_forward(x, kernels, bias):
    """Valid conv1d as explicit sums over output step t, tap w and feature f.

    ``x`` is [T,F] or [B,T,F], ``kernels`` [K,W,F], ``bias`` [K].
    """
    x3 = x[None] if x.ndim == 2 else x
    batch, steps, feats = x3.shape
    k_out, width, _ = kernels.shape
    y = np.empty((batch, steps - width + 1, k_out))
    for t in range(steps - width + 1):
        acc = np.tile(bias, (batch, 1))
        for w in range(width):
            for f in range(feats):
                acc = acc + np.outer(x3[:, t + w, f], kernels[:, w, f])
        y[:, t] = acc
    return y if x.ndim == 3 else y[0]


def reference_conv1d_backward(grad_y, x, kernels):
    """``(grad_x, grad_kernels, grad_bias)`` of ``reference_conv1d_forward``,
    each term of the sum differentiated in turn."""
    x3 = x[None] if x.ndim == 2 else x
    g = grad_y[None] if x.ndim == 2 else grad_y
    _, steps, feats = x3.shape
    _, width, _ = kernels.shape
    grad_x = np.zeros_like(x3)
    grad_kernels = np.zeros_like(kernels)
    for t in range(steps - width + 1):
        for w in range(width):
            for f in range(feats):
                grad_x[:, t + w, f] += g[:, t] @ kernels[:, w, f]
                grad_kernels[:, w, f] += g[:, t].T @ x3[:, t + w, f]
    grad_bias = g.sum(axis=(0, 1))
    return (grad_x if x.ndim == 3 else grad_x[0]), grad_kernels, grad_bias


def reference_maxpool(x, window):
    """Max pooling element by element: ``(y, route)``, where ``route(grad_y)``
    sends each gradient to the earliest position holding its window's max."""
    x3 = x[None] if x.ndim == 2 else x
    batch, steps, feats = x3.shape
    t_out = steps // window
    y = np.empty((batch, t_out, feats))
    at = np.empty((batch, t_out, feats), dtype=int)
    for n in range(batch):
        for t in range(t_out):
            for k in range(feats):
                best = t * window
                for pos in range(t * window + 1, (t + 1) * window):
                    if x3[n, pos, k] > x3[n, best, k]:
                        best = pos
                y[n, t, k] = x3[n, best, k]
                at[n, t, k] = best

    def route(grad_y):
        g = grad_y if x.ndim == 3 else grad_y[None]
        grad_x = np.zeros_like(x3)
        for n in range(batch):
            for t in range(t_out):
                for k in range(feats):
                    grad_x[n, at[n, t, k], k] = g[n, t, k]
        return grad_x if x.ndim == 3 else grad_x[0]

    return (y if x.ndim == 3 else y[0]), route
