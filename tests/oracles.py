"""Independent reference implementations the tests check the library against.

Nothing here may import from the code paths it verifies: gradients come from
central differences, eigenpairs from a hand-rolled Jacobi sweep, cleaning
rules from explicit per-cell loops.
"""

import base64
import math
import struct

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


def reference_training_rows(length, train_idx, lookback, horizon):
    """Rows read by training windows, marked window by window."""
    mask = [False] * length
    for i in train_idx:
        for r in range(i, i + lookback):
            mask[r] = True
        mask[i + lookback + horizon - 1] = True
    return [r for r in range(length) if mask[r]]
