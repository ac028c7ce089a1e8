"""Shared numerics: counter-based RNG, smooth blends, grid interpolation."""

import os

import numpy as np

_MASK64 = (1 << 64) - 1


def mix64(*vals):
    """Deterministic splitmix-style hash of integers to one 64-bit stream key."""
    h = 0x9E3779B97F4A7C15
    for v in vals:
        v = int(v) & _MASK64
        v = (v * 0xBF58476D1CE4E5B9) & _MASK64
        v ^= v >> 31
        h ^= v
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 29
    return h


def philox(seed, *stream):
    """Counter-based generator; same (seed, stream) always yields the same draws."""
    return np.random.Generator(np.random.Philox(key=mix64(seed, *stream)))


def worker_count():
    """Worker cap from SOBOLEV_TOPO_THREADS (0/unset = all cores)."""
    raw = os.environ.get("SOBOLEV_TOPO_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return max(1, n)


def smoothstep(t):
    """Quintic smoothstep: 0 for t<=0, 1 for t>=1, C^2 in between."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def wrap_angle(d):
    """Angle difference wrapped to [-pi, pi)."""
    return (d + np.pi) % (2.0 * np.pi) - np.pi


def ramp(x, a, b):
    """Smooth 0->1 transition over [a, b]."""
    return smoothstep((np.asarray(x, dtype=float) - a) / (b - a))


def bump(t):
    """exp(-1/(1-t^2)) on |t|<1, 0 outside; the standard compactly supported profile."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    q = t[inside] ** 2
    out[inside] = np.exp(-1.0 / (1.0 - q))
    return out


def axis_nodes(lo, hi, dims):
    return [np.linspace(lo[i], hi[i], dims[i]) for i in range(len(dims))]


def node_mesh(lo, hi, dims):
    """All node coordinates, shape (*dims, m)."""
    axes = axis_nodes(lo, hi, dims)
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack(grids, axis=-1)


def trapezoid_weights(lo, hi, dims):
    """Per-node quadrature weights (midpoint rule on the dual cells), shape (*dims,)."""
    w = np.ones(dims)
    for i, d in enumerate(dims):
        h = (hi[i] - lo[i]) / (d - 1)
        wi = np.full(d, h)
        wi[0] = wi[-1] = h / 2.0
        shape = [1] * len(dims)
        shape[i] = d
        w = w * wi.reshape(shape)
    return w


def multilinear(values, lo, hi, dims, points):
    """Multilinear interpolation of node values at arbitrary points.

    values: (*dims, k) or (*dims,); points: (N, m), clamped to the box.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[-1]
    scalar = values.ndim == len(dims)
    vals = values[..., None] if scalar else values
    flat = vals.reshape(-1, vals.shape[-1])

    idx0 = []
    frac = []
    for i in range(m):
        h = (hi[i] - lo[i]) / (dims[i] - 1)
        t = (points[..., i] - lo[i]) / h
        t = np.clip(t, 0.0, dims[i] - 1.0)
        i0 = np.minimum(np.floor(t).astype(np.int64), dims[i] - 2)
        idx0.append(i0)
        frac.append(t - i0)

    strides = np.ones(m, dtype=np.int64)
    for i in range(m - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]

    out = np.zeros(points.shape[:-1] + (flat.shape[-1],))
    for corner in range(1 << m):
        w = np.ones(points.shape[:-1])
        lin = np.zeros(points.shape[:-1], dtype=np.int64)
        for i in range(m):
            bit = (corner >> i) & 1
            w = w * (frac[i] if bit else (1.0 - frac[i]))
            lin = lin + (idx0[i] + bit) * strides[i]
        # one channel at a time: a broadcast over a short last axis runs
        # numpy's inner loop a few elements at a time
        for c in range(flat.shape[-1]):
            out[..., c] += w * flat[:, c][lin]
    return out[..., 0] if scalar else out


def pairwise_mean_abs_diff(vals):
    """Mean over all ordered pairs (incl. diagonal) of |v_i - v_j|; vals (N,) or (N,k)."""
    v = np.asarray(vals, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    d = v[:, None, :] - v[None, :, :]
    return float(np.mean(np.sqrt(np.sum(d * d, axis=-1))))
