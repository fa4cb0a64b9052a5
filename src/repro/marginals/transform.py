"""The marginal inversion transform ``Y = h(X)`` (paper eq. 7).

Given a zero-mean unit-variance Gaussian background process ``X`` and a
target marginal ``F_Y``, the foreground process is

.. math:: Y_k = h(X_k) = F_Y^{-1}(\\Phi(X_k))

where ``Phi`` is the standard normal CDF.  The transform is monotone
non-decreasing, so by the paper's Appendix A theorem the foreground
keeps the background's Hurst parameter, with the ACF attenuated by the
factor computed in :mod:`repro.marginals.attenuation`.

Exact evaluation
----------------
Below the median ``h`` is ``ppf(Phi(x))``; above it, ``isf(Phi(-x))``.
Each side so reads the tail probability that does not round toward 1,
and ``h`` keeps full relative precision out to ``|x|`` of about 38
instead of saturating near ``x = 8.3``.  :meth:`MarginalTransform.inverse`
is symmetric in the same way (``cdf`` below the median, ``sf`` above).

Table evaluation
----------------
A normal target keeps the affine form ``mu + sigma x``, which is exact.
Every other target is evaluated through one precomputed table per law:
cubic Hermite pieces on ``2**14`` uniform cells over ``[-6, 6]``, built
from exact values and exact slopes ``h'(x) = phi(x) / f_Y(h(x))``.  A
cell holding one kink of ``h`` (one of the target's
:meth:`~repro.marginals.parametric.MarginalDistribution.breakpoints`) is
split there into two pieces with one-sided slopes.  These samples fall
back to the exact path:

- samples outside the table range (or NaN);
- samples in a cell holding two or more kinks;
- samples in a piece whose cubic, checked at its midpoint against the
  exact ``h``, misses it by more than ``1e-10`` relative, or is not
  provably monotone (Fritsch–Carlson).

So the table stays within ``1e-9`` relative of the exact ``h``.  A
target with more breakpoints than cells, or without a density and a
table key, is always evaluated exactly.  Evaluation runs in chunks of
``8192`` samples with preallocated scratch, and every step is
elementwise: results do not depend on the array's shape or chunking,
and the table, a pure function of the law, is bitwise the same in every
process.  Tables are built on first use and memoized per process in a
fingerprint LRU (:func:`transform_table_info`); pickled transforms
carry no table.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy import special

from ..exceptions import ValidationError
from .parametric import MarginalDistribution, NormalDistribution

__all__ = [
    "MarginalTransform",
    "TransformTableInfo",
    "clear_transform_tables",
    "transform_table_info",
]

ArrayLike = Union[float, np.ndarray]

# Tail probabilities are floored so targets with unbounded support never
# evaluate ppf/isf at exactly 0 (infinite) for |x| beyond about 38.
_U_FLOOR = 1e-300

#: Table geometry: cells, range, and the affine map x -> cell index
#: (index 0 and CELLS + 1 are the out-of-range sentinels).
_CELLS = 1 << 14
_LO, _HI = -6.0, 6.0
_DX = (_HI - _LO) / _CELLS
_INV_DX = _CELLS / (_HI - _LO)
_OFFSET = 1.0 - _LO * _INV_DX
_STRIDE = _CELLS + 2

#: Relative error a cell's cubic may show at its midpoint before the
#: cell falls back to exact evaluation.
_MIDPOINT_RTOL = 1e-10

#: Samples per evaluation chunk: the scratch buffers stay in cache.
_CHUNK = 8192

#: Tables kept per process (each holds about 1 MiB).
_MAX_TABLES = 8


def _exact_h(target: MarginalDistribution, x: np.ndarray) -> np.ndarray:
    """Accurate ``h`` on a 1-D array: lower CDF below 0, survival above."""
    out = np.empty_like(x)
    upper = x > 0
    # Phi(x) below the median and Phi(-x) above it: neither rounds to 1.
    u = np.maximum(special.ndtr(-np.abs(x)), _U_FLOOR)
    lower = ~upper
    if lower.any():
        out[lower] = target.ppf(u[lower])
    if upper.any():
        out[upper] = target.isf(u[upper])
    return out


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _hermite_piece(y_a, y_b, m_a, m_b, w, x_a, target):
    """One cubic Hermite piece per entry, and whether it may be used.

    The piece spans ``w`` cells from ``x_a`` (values ``y``, slopes ``m``
    per cell).  Its coefficients are Taylor coefficients at the piece's
    start, ``y_a + u (m_a + u (c2 + u c3))`` for ``u`` in ``[0, w)``,
    which stay well conditioned for short pieces.  A piece is usable
    when it matches the exact ``h`` at its midpoint to ``_MIDPOINT_RTOL``
    and is monotone by the Fritsch-Carlson condition.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = (y_b - y_a) / w
        c2 = (3.0 * d - 2.0 * m_a - m_b) / w
        c3 = (m_a + m_b - 2.0 * d) / (w * w)
        half = 0.5 * w
        approx = y_a + half * (m_a + half * (c2 + half * c3))
        mid = _exact_h(target, x_a + half * _DX)
        accurate = np.abs(approx - mid) <= _MIDPOINT_RTOL * np.abs(mid)
        alpha, beta = m_a / d, m_b / d
        monotone = (
            (d > 0) & (alpha >= 0) & (beta >= 0)
            & (alpha * alpha + beta * beta <= 9.0)
        ) | ((d == 0) & (m_a == 0) & (m_b == 0))
    return np.stack([y_a, m_a, c2, c3], axis=1), accurate & monotone


class _HermiteTable:
    """Cubic Hermite pieces of ``h`` on the uniform cell grid.

    Row ``j + 1`` of ``coef`` holds cell ``j``'s piece (rows 0 and
    ``_CELLS + 1`` are the out-of-range sentinels).  A cell with one
    kink at local position ``split[j + 1]`` in (0, 1) keeps the piece
    left of the kink in that row and the piece right of it in row
    ``_STRIDE + j + 1``, which it evaluates at ``s - split``.  Every
    other cell has ``split = 2``, beyond reach.  ``exact`` flags the
    rows whose samples go through :func:`_exact_h`.
    """

    __slots__ = ("coef", "split", "exact", "has_kinks")

    def __init__(self, target: MarginalDistribution, kinks: np.ndarray):
        x = _LO + _DX * np.arange(_CELLS + 1)
        y = _exact_h(target, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            m = _DX * _phi(x) / np.asarray(target.pdf(y), dtype=float)
        whole, usable = _hermite_piece(
            y[:-1], y[1:], m[:-1], m[1:], 1.0, x[:-1], target
        )
        coef = np.zeros((2 * _STRIDE, 4))
        coef[1:_STRIDE - 1] = whole
        split = np.full(_STRIDE, 2.0)
        exact = np.ones(2 * _STRIDE, dtype=bool)
        exact[1:_STRIDE - 1] = ~usable

        kinks = kinks[(kinks >= _LO) & (kinks < _HI)]
        position = (kinks - _LO) * _INV_DX
        cell = np.minimum(np.floor(position).astype(np.intp), _CELLS - 1)
        counts = np.bincount(cell, minlength=_CELLS)
        exact[1:_STRIDE - 1] |= counts > 1
        one = counts[cell] == 1
        cell, xk = cell[one], kinks[one]
        frac = position[one] - cell
        if cell.size:
            # One-sided slopes just either side of the kink.
            nudge = 1e-6 * _DX
            yk = _exact_h(target, xk)
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = _DX * _phi(xk)
                m_left = scale / np.asarray(
                    target.pdf(_exact_h(target, xk - nudge)), dtype=float
                )
                m_right = scale / np.asarray(
                    target.pdf(_exact_h(target, xk + nudge)), dtype=float
                )
            width = np.maximum(frac, 1e-300)
            left, left_ok = _hermite_piece(
                y[cell], yk, m[cell], m_left, width, x[cell], target
            )
            right, right_ok = _hermite_piece(
                yk, y[cell + 1], m_right, m[cell + 1], 1.0 - frac, xk, target
            )
            rows = cell + 1
            coef[rows] = left
            coef[_STRIDE + rows] = right
            split[rows] = frac
            # An empty left piece (kink on the node) is never evaluated.
            exact[rows] = ~(left_ok | (frac == 0.0))
            exact[_STRIDE + rows] = ~right_ok
        # Flagged rows are overwritten by the exact path; zeros keep
        # their Horner pass free of inf/NaN warnings.
        coef[exact] = 0.0
        self.coef = coef
        self.split = split
        self.exact = exact
        self.has_kinks = bool(cell.size)

    def evaluate(
        self, target: MarginalDistribution, x: np.ndarray, out: np.ndarray
    ) -> None:
        """Fill the 1-D ``out`` with ``h(x)``, one chunk at a time."""
        n = x.size
        size = min(n, _CHUNK)
        s = np.empty(size)
        acc = np.empty(size)
        row = np.empty(size, dtype=np.intp)
        flag = np.empty(size, dtype=bool)
        pieces = np.empty((size, 4))
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            if stop - start < size:
                size = stop - start
                s, acc, pieces = s[:size], acc[:size], pieces[:size]
                row, flag = row[:size], flag[:size]
            xs, ys = x[start:stop], out[start:stop]
            # s = x / dx + offset, clamped onto the sentinels (fmax maps
            # NaN to the lower one); its integer part is the row.
            np.multiply(xs, _INV_DX, out=s)
            np.add(s, _OFFSET, out=s)
            np.fmax(s, 0.0, out=s)
            np.fmin(s, _CELLS + 1.0, out=s)
            np.copyto(row, s, casting="unsafe")
            np.subtract(s, row, out=s)
            if self.has_kinks:
                np.take(self.split, row, out=acc)
                np.greater_equal(s, acc, out=flag)
                np.subtract(s, acc, out=s, where=flag)
                np.add(row, _STRIDE, out=row, where=flag)
            np.take(self.coef, row, axis=0, out=pieces)
            np.multiply(pieces[:, 3], s, out=acc)
            np.add(acc, pieces[:, 2], out=acc)
            np.multiply(acc, s, out=acc)
            np.add(acc, pieces[:, 1], out=acc)
            np.multiply(acc, s, out=acc)
            np.add(acc, pieces[:, 0], out=ys)
            np.take(self.exact, row, out=flag)
            if flag.any():
                hit = np.flatnonzero(flag)
                ys[hit] = _exact_h(target, xs[hit])


class TransformTableInfo(NamedTuple):
    """Counters of the per-process transform-table LRU."""

    #: Tables currently cached.
    tables: int
    #: Tables built (one per law per process, barring eviction).
    builds: int
    #: Lookups served by an already-built table.
    hits: int
    #: Tables dropped by the LRU.
    evictions: int


_tables: "OrderedDict[tuple, Optional[_HermiteTable]]" = OrderedDict()
_table_lock = threading.RLock()
_table_stats = {"builds": 0, "hits": 0, "evictions": 0}


def _table_for(target: MarginalDistribution) -> Optional[_HermiteTable]:
    """The memoized table of ``target``'s law (None: evaluate exactly)."""
    key = target._table_key()
    if key is None:
        return None
    key = (type(target), key)
    with _table_lock:
        if key in _tables:
            _tables.move_to_end(key)
            _table_stats["hits"] += 1
            return _tables[key]
        kinks = np.asarray(target.breakpoints(), dtype=float)
        if kinks.size > _CELLS:
            table = None
        else:
            table = _HermiteTable(target, special.ndtri(kinks))
        _table_stats["builds"] += 1
        _tables[key] = table
        while len(_tables) > _MAX_TABLES:
            _tables.popitem(last=False)
            _table_stats["evictions"] += 1
        return table


def transform_table_info() -> TransformTableInfo:
    """Counters of this process's transform-table cache."""
    with _table_lock:
        return TransformTableInfo(
            tables=len(_tables),
            builds=_table_stats["builds"],
            hits=_table_stats["hits"],
            evictions=_table_stats["evictions"],
        )


def clear_transform_tables() -> None:
    """Drop every cached table and zero the counters."""
    with _table_lock:
        _tables.clear()
        for name in _table_stats:
            _table_stats[name] = 0


class MarginalTransform:
    """Gaussian-copula marginal transform ``h(x) = F_Y^{-1}(Phi(x))``.

    Parameters
    ----------
    target:
        The target marginal distribution ``F_Y`` (empirical or
        parametric).

    Notes
    -----
    ``h`` is monotone non-decreasing because both ``Phi`` and
    ``F_Y^{-1}`` are.  The inverse mapping
    ``h^{-1}(y) = Phi^{-1}(F_Y(y))`` recovers background values from
    foreground ones and is used in tests of the Appendix A theorem.
    Non-normal targets are served from a cubic table within ``1e-9``
    relative error of the exact ``h`` (see the module docstring).
    """

    def __init__(self, target: MarginalDistribution) -> None:
        if not isinstance(target, MarginalDistribution):
            raise ValidationError(
                "target must be a MarginalDistribution, got "
                f"{type(target).__name__}"
            )
        self.target = target
        self._affine = isinstance(target, NormalDistribution)
        # None until the first call looks the table up; False when the
        # target is evaluated exactly.
        self._table: Union[None, bool, _HermiteTable] = None

    def __getstate__(self):
        # The table is rebuilt (or found in the worker's cache) on first
        # use, so pool-task payloads do not carry it.
        state = self.__dict__.copy()
        state["_table"] = None
        return state

    def __call__(self, x: ArrayLike) -> ArrayLike:
        """Apply ``h`` to background samples (any shape)."""
        x_arr = np.asarray(x, dtype=float)
        if self._affine:
            out = self.target.mu + self.target.sigma * x_arr
        else:
            if self._table is None:
                self._table = _table_for(self.target) or False
            flat = x_arr.ravel()
            if self._table is False:
                out = _exact_h(self.target, flat)
            else:
                out = np.empty_like(flat)
                self._table.evaluate(self.target, flat, out)
            out = out.reshape(x_arr.shape)
        if np.isscalar(x):
            return float(out)
        return out

    def exact(self, x: ArrayLike) -> np.ndarray:
        """Evaluate ``h`` without the table (the accurate reference)."""
        x_arr = np.asarray(x, dtype=float)
        if self._affine:
            return self.target.mu + self.target.sigma * x_arr
        return _exact_h(self.target, x_arr.ravel()).reshape(x_arr.shape)

    def inverse(self, y: ArrayLike) -> ArrayLike:
        """Apply ``h^{-1}(y) = Phi^{-1}(F_Y(y))``.

        Above the median the survival side ``-Phi^{-1}(1 - F_Y(y))`` is
        used, so the upper tail keeps full precision.  Values outside
        the target's support map to ``±inf``, matching the convention
        of :func:`scipy.stats.norm.ppf`.
        """
        y_arr = np.asarray(y, dtype=float)
        lower = np.asarray(self.target.cdf(y_arr), dtype=float)
        upper = np.asarray(self.target.sf(y_arr), dtype=float)
        out = np.where(
            lower <= 0.5, special.ndtri(lower), -special.ndtri(upper)
        )
        if np.isscalar(y):
            return float(out)
        return np.asarray(out, dtype=float).reshape(y_arr.shape)

    def table(self, x_grid: ArrayLike) -> np.ndarray:
        """Evaluate ``h`` on a grid (used to draw the paper's Fig. 2)."""
        return np.asarray(self(np.asarray(x_grid, dtype=float)))

    def __repr__(self) -> str:
        return f"MarginalTransform(target={self.target!r})"
