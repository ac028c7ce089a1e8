"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the same code runs up to a third slower at one minute than
at the next, because other tenants share the cores' caches and memory
bandwidth; the guest sees no steal time, so CPU time slows as much as wall
time.  The benchmark therefore times ``kernel`` between the operations of
every round and rescales the round's time by ``NOMINAL_S / median(kernel
times)``: a time at the speed the machine had when ``NOMINAL_S`` was taken.

The kernel uses no sobtop code, so a change to the program cannot move it.
Its parts are the kinds of work the workloads do: interpreted Python loops,
numpy calls on small arrays, elementwise numpy on arrays the size of a
448^2 field, a sparse matrix-vector product and a small dense BLAS product.
"""

import time

import numpy as np
import scipy.sparse

# Median kernel time on the 2-core reference machine (Intel Xeon, Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread) at a quiet time.
NOMINAL_S = 0.035

_rng = np.random.default_rng(20250130)
_field = _rng.standard_normal((448, 448, 2))
_small = _rng.standard_normal(16)
_sparse = scipy.sparse.csr_matrix(
    (_rng.standard_normal(120000), (_rng.integers(0, 20000, 120000), _rng.integers(0, 20000, 120000))),
    shape=(20000, 20000),
)
_vec = _rng.standard_normal(20000)
_dense = _rng.standard_normal((96, 96))


def _python(n=60000):
    acc = {}
    for i in range(n):
        k = i % 97
        acc[k] = acc.get(k, 0.0) + 0.5 * k - (i & 3)
    return sum(acc.values())


def _numpy_small(n=6000):
    v = _small
    for _ in range(n):
        v = np.sin(v) * 0.9 + 0.1
    return float(v.sum())


def _numpy_large(n=3):
    s = 0.0
    for _ in range(n):
        r = np.sqrt(np.sum(_field * _field, axis=-1))
        s += float(np.abs(np.diff(r, axis=0)).sum())
    return s


def _sparse_matvec(n=30):
    x = _vec
    for _ in range(n):
        x = _sparse @ x
        x /= np.linalg.norm(x) + 1e-300
    return float(x[0])


def _blas(n=90):
    a = _dense
    for _ in range(n):
        a = np.tanh(a @ _dense * 0.01)
    return float(a[0, 0])


def kernel():
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    _python()
    _numpy_small()
    _numpy_large()
    _sparse_matvec()
    _blas()
    return time.perf_counter() - t0
