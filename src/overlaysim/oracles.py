"""Independent brute-force references used for verification.

Nothing here shares code with the kernel library: the LU reference is a
left-looking dot-product elimination (the kernels are right-looking and
blocked), and the CNN reference walks explicit nested loops with no task
machinery and no feature buffer.  Slow on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SingularPivotError

_ORACLE_EPS = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-6}


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(getattr(x, "data", None), np.ndarray) else np.asarray(x)


def oracle_lu(a) -> np.ndarray:
    """Unblocked Doolittle factorization without pivoting, packed L\\U result.

    Row i of U then column i of L, each entry from a dot product against
    previously computed entries.
    """
    a = _as_array(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"oracle_lu needs a square matrix, got {a.shape}")
    n = a.shape[0]
    eps = _ORACLE_EPS.get(a.dtype, 1e-12)
    packed = np.array(a, copy=True)
    for i in range(n):
        for j in range(i, n):
            packed[i, j] = a[i, j] - packed[i, :i] @ packed[:i, j]
        pivot = packed[i, i]
        if abs(pivot) < eps:
            raise SingularPivotError(i, float(pivot))
        for j in range(i + 1, n):
            packed[j, i] = (a[j, i] - packed[j, :i] @ packed[:i, i]) / pivot
    return packed


def unpack_lu(packed) -> tuple[np.ndarray, np.ndarray]:
    """Split a packed L\\U matrix into explicit L (unit diagonal) and U."""
    packed = _as_array(packed)
    lower = np.tril(packed, -1) + np.eye(packed.shape[0], dtype=packed.dtype)
    upper = np.triu(packed)
    return lower, upper


def conv2d_naive(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Six nested loops: stride-1 zero-padded cross-correlation preserving H x W."""
    height, width, cin = x.shape
    kh, kw, wcin, cout = w.shape
    if wcin != cin:
        raise ShapeError(f"conv2d_naive: channel mismatch {cin} vs {wcin}")
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((height, width, cout), dtype=x.dtype)
    for h in range(height):
        for col in range(width):
            for co in range(cout):
                acc = 0.0
                for u in range(kh):
                    for v in range(kw):
                        hi, wi = h + u - ph, col + v - pw
                        if 0 <= hi < height and 0 <= wi < width:
                            for ci in range(cin):
                                acc += x[hi, wi, ci] * w[u, v, ci, co]
                out[h, col, co] = acc
    return out


def maxpool2x2_naive(x: np.ndarray) -> np.ndarray:
    """Windowed brute-force 2x2 stride-2 max pooling per channel."""
    height, width, channels = x.shape
    if height % 2 or width % 2:
        raise ShapeError(f"maxpool2x2_naive: odd spatial extents {x.shape}")
    out = np.zeros((height // 2, width // 2, channels), dtype=x.dtype)
    for h in range(0, height, 2):
        for w in range(0, width, 2):
            for c in range(channels):
                best = x[h, w, c]
                for dh in (0, 1):
                    for dw in (0, 1):
                        if x[h + dh, w + dw, c] > best:
                            best = x[h + dh, w + dw, c]
                out[h // 2, w // 2, c] = best
    return out


def fc_naive(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product by explicit accumulation."""
    n_out, n_in = w.shape
    if v.shape != (n_in,):
        raise ShapeError(f"fc_naive: weights expect {n_in} inputs, got {v.shape}")
    out = np.zeros(n_out, dtype=v.dtype)
    for r in range(n_out):
        acc = 0.0
        for c in range(n_in):
            acc += w[r, c] * v[c]
        out[r] = acc
    return out


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def _flatten_row_major(x: np.ndarray) -> np.ndarray:
    height, width, channels = x.shape
    flat = np.zeros(height * width * channels, dtype=x.dtype)
    pos = 0
    for h in range(height):
        for w in range(width):
            for c in range(channels):
                flat[pos] = x[h, w, c]
                pos += 1
    return flat


# conv layer indices after which a pooling stage runs
POOL_AFTER_LAYER = (1, 3, 6, 9, 12)


def oracle_cnn_forward(config, x, weights) -> np.ndarray:
    """Direct forward pass for the 13-conv / 5-pool / 3-FC pipeline.

    Every layer applies ReLU (the FC tail included, matching the pipeline's
    flag settings).  Returns an (fc_out, batch) array.
    """
    x = _as_array(x)
    if x.shape != (config.height, config.width, config.in_channels, config.batch):
        raise ShapeError(
            f"input shape {x.shape} does not match config "
            f"{(config.height, config.width, config.in_channels, config.batch)}"
        )
    conv_w = [_as_array(w) for w in weights.conv]
    fc_w = [_as_array(w) for w in weights.fc]
    out = np.zeros((fc_w[-1].shape[0], config.batch), dtype=x.dtype)
    for i in range(config.batch):
        fmap = np.array(x[:, :, :, i])
        for layer in range(13):
            fmap = _relu(conv2d_naive(fmap, conv_w[layer]))
            if layer in POOL_AFTER_LAYER:
                fmap = maxpool2x2_naive(fmap)
        vec = _flatten_row_major(fmap)
        for k in range(3):
            vec = _relu(fc_naive(fc_w[k], vec))
        out[:, i] = vec
    return out


@dataclass(frozen=True)
class ComparisonReport:
    max_abs_err: float
    rel_fro_err: float
    tolerance: float
    passed: bool

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (f"max_abs_err={self.max_abs_err:.3e} rel_fro_err={self.rel_fro_err:.3e} "
                f"tol={self.tolerance:.1e} {verdict}")


def compare(expected, actual, tolerance: float) -> ComparisonReport:
    """Max-abs and relative Frobenius error; passes when the latter is within tolerance."""
    expected = _as_array(expected)
    actual = _as_array(actual)
    if expected.shape != actual.shape:
        raise ShapeError(f"shape mismatch: {expected.shape} vs {actual.shape}")
    diff = np.asarray(expected, dtype=np.float64) - np.asarray(actual, dtype=np.float64)
    max_abs = float(np.max(np.abs(diff))) if diff.size else 0.0
    ref_norm = float(np.linalg.norm(np.asarray(expected, dtype=np.float64)))
    diff_norm = float(np.linalg.norm(diff))
    if ref_norm == 0.0:
        rel = 0.0 if diff_norm == 0.0 else float("inf")
    else:
        rel = diff_norm / ref_norm
    return ComparisonReport(max_abs, rel, tolerance, rel <= tolerance)
