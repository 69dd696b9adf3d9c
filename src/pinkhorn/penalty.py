"""The KL penalty objective f(x) = KL(Ax || b) for nonnegative systems Ax = b.

Each constraint row contributes f_i(x) = <a_i,x> log(<a_i,x>/b_i) - <a_i,x>
+ b_i, a nonnegative penalty that vanishes exactly on the constraint.  Rows
are grouped into blocks of pairwise support-disjoint constraints; a block is
what one mirror-descent step updates at once (simultaneous row or column
normalization being the motivating case).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import kl_terms
from .projection import Hyperplane, _as_indices, _sparse_rows

__all__ = [
    "ConstraintSystem",
    "Residual",
    "eval_fi",
    "grad_fi",
    "eval_f",
]

# a from_triplets record; the indices are floats too, so that a fractional one is refused, not truncated
_TRIPLET = np.dtype([("row", np.float64), ("col", np.float64), ("val", np.float64)])


@dataclass(frozen=True)
class Residual:
    """Per-constraint KL penalties plus the aggregate violation metrics."""

    per_constraint_kl: np.ndarray
    l1_violation: float
    objective: float


class ConstraintSystem:
    """Rows ``<a_i, x> = b_i`` over R^d with a block partition.

    Within a block, supports must be pairwise disjoint (validated here), so
    one multiplicative update can apply every row of the block at once.  By
    default every row is its own block.

    The coefficients are stored once, in one CSR layout whose rows are in
    block-major order, so each block's entries are one contiguous slice.
    The API keeps the caller's row numbering (``b``, ``blocks``, ``dots``).
    """

    def __init__(self, row, col, val, b, dimension: int, blocks=None):
        """Build from (row, col, value) entry arrays; ``from_*`` convert other inputs."""
        b = np.asarray(b, dtype=np.float64).reshape(-1)
        if blocks is None:
            blocks = [[i] for i in range(b.size)]
        try:
            self.blocks: list[list[int]] = [[operator.index(i) for i in block] for block in blocks]
            order = np.array([i for block in self.blocks for i in block], dtype=np.intp)
        except (TypeError, OverflowError) as exc:  # OverflowError: an index beyond intp
            raise ValueError(f"blocks must hold integer row indices: {exc}") from exc
        sizes = np.array([len(block) for block in self.blocks])
        if not sizes.all() or not np.array_equal(np.sort(order), np.arange(b.size)):
            raise ValueError("blocks must partition the row indices into nonempty blocks")
        row = _as_indices(row, "row")
        if np.any((row < 0) | (row >= b.size)):
            raise ValueError(f"row index out of range for {b.size} targets")

        self._row = order  # caller row at each stored position
        self._pos = np.empty_like(order)  # stored position of each caller row: order's inverse
        self._pos[order] = np.arange(order.size)
        self._indices, self._data, b, self._indptr = _sparse_rows(self._pos[row], col, val, b[order])
        self.dimension = d = int(dimension)  # d < 1 fails the index check
        if self._indices.max() >= d:
            raise ValueError(f"a row references index {self._indices.max()} >= dimension {d}")
        block_id = np.repeat(np.arange(sizes.size), sizes)  # per stored row
        pairs = np.sort(np.repeat(block_id, np.diff(self._indptr)) * d + self._indices)
        clash = pairs[1:][np.diff(pairs) == 0]  # a (block, column) pair seen twice
        if clash.size:
            raise ValueError(f"block {clash[0] // d} has rows with overlapping supports")

        self.b = b[self._pos]
        self._log_b = np.log(b)  # per stored row, for block_update
        self._row_len = np.diff(self._indptr)  # entries per stored row
        self._block_ptr = np.concatenate(([0], np.cumsum(sizes)))
        self._block_of = block_id[self._pos]
        # the fast paths of dots and block_update: all coefficients 1 (a step
        # scales each row's support by one factor), rows stored in the
        # caller's order (no gather of per-row vectors), and blocks whose
        # disjoint rows hold d entries, so they cover every coordinate
        self._unit = bool(np.all(self._data == 1.0))
        self._in_order = bool(np.all(order == np.arange(b.size)))
        starts = self._indptr[self._block_ptr]
        covers = np.diff(starts) == d
        # per covering block (None for other blocks), the source of each
        # coordinate's factor in block_update: the row within the block that
        # holds it on a 0/1 system (one factor per row), else its entry within
        # the block's slice; one scatter per block, as a stacked (blocks, d)
        # map and its index temporaries took about 3x as long on a 120 x 120
        # marginal system
        self._sources: list[np.ndarray | None] = [None] * sizes.size
        for k in np.flatnonzero(covers).tolist():
            p0, p1, lo = self._block_ptr[k], self._block_ptr[k + 1], starts[k]
            source = np.arange(p1 - p0).repeat(self._row_len[p0:p1]) if self._unit else np.arange(d)
            m = self._sources[k] = np.empty(d, dtype=np.intp)
            m[self._indices[lo : lo + d]] = source

    @classmethod
    def from_rows(cls, rows, dimension: int, blocks=None) -> "ConstraintSystem":
        """Build from a list of ``Hyperplane`` rows."""
        rows = list(rows)
        if not rows:
            raise ValueError("constraint system needs at least one row")
        if not all(isinstance(r, Hyperplane) for r in rows):
            raise TypeError("rows must be Hyperplane instances")
        row = np.repeat(np.arange(len(rows)), [r.support_size for r in rows])
        col = np.concatenate([r.indices for r in rows])
        val = np.concatenate([r.values for r in rows])
        return cls(row, col, val, [r.b for r in rows], dimension, blocks)

    @property
    def n_constraints(self) -> int:
        return self.b.size

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def rows(self) -> list[Hyperplane]:
        """The rows as ``Hyperplane`` objects, built on first access."""
        return [Hyperplane(*self._entries(i), b=self.b[i]) for i in range(self.n_constraints)]

    def _entries(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i`` (views into the layout)."""
        p = self._pos[i]
        span = slice(self._indptr[p], self._indptr[p + 1])
        return self._indices[span], self._data[span]

    def _workspace(self) -> np.ndarray:
        """Scratch floats for ``block_update``: one per nonzero, none where every coefficient is 1."""
        return np.empty(0 if self._unit else self._data.size)

    def _check_length(self, x) -> None:
        if np.shape(x) != (self.dimension,):
            raise ValueError(f"x has shape {np.shape(x)}, expected ({self.dimension},)")

    def dots(self, x: np.ndarray) -> np.ndarray:
        """All inner products ``<a_i, x>`` in one vectorized pass."""
        self._check_length(x)
        # a plain gather: numpy buffers a take into ``out=`` whose indices it
        # must check, and the method skips np.take's Python wrapper
        prod = np.asarray(x).take(self._indices)
        if not self._unit:
            np.multiply(prod, self._data, out=prod)
        dots = np.add.reduceat(prod, self._indptr[:-1])
        return dots if self._in_order else dots[self._pos]

    def block_sums(self, v: np.ndarray) -> np.ndarray:
        """Sum of a per-row vector ``v`` over each block."""
        return np.bincount(self._block_of, weights=v, minlength=self.n_blocks)

    def block_update(
        self, x: np.ndarray, s: np.ndarray, block: int, eta: float, out: np.ndarray, work: np.ndarray
    ) -> None:
        """Multiplicative block update z_j = x_j * prod_i (b_i/s_i)^(eta a_ij), into ``out``.

        ``s`` holds the inner products at x; gradients of every row in the
        block are taken at the same x, and disjoint supports keep the row
        factors independent.  On 0/1 rows the factor is one exp per row,
        (b_i/s_i)^eta.  A block that covers every coordinate is written into
        ``out`` by one gather of the factors through ``_sources``, with no
        copy of x and no scatter; other blocks copy x and scatter their
        entries.  ``out`` is not ``x`` itself, and ``work`` is a
        ``_workspace()`` buffer.  An exp that overflows or underflows gives
        inf or 0 in ``out``, which the caller rejects.
        """
        p0, p1 = self._block_ptr[block], self._block_ptr[block + 1]
        lo, hi = self._indptr[p0], self._indptr[p1]
        row_fac = self._log_b[p0:p1] - np.log(s[p0:p1] if self._in_order else s[self._row[p0:p1]])
        source = self._sources[block]
        if self._unit:  # exp(eta r_i) is exp((a_ij eta) r_i) bit for bit, as a_ij = 1
            np.multiply(row_fac, eta, out=row_fac)
            fac = np.exp(row_fac, out=row_fac)
            if source is None:
                fac = fac.repeat(self._row_len[p0:p1])
        else:
            fac = work[: hi - lo]
            np.multiply(self._data[lo:hi], eta, out=fac)
            np.multiply(fac, row_fac.repeat(self._row_len[p0:p1]), out=fac)
            np.exp(fac, out=fac)
        if source is not None:  # fac[source] * x is the per-entry x * fac bit for bit
            np.multiply(fac.take(source), x, out=out)
        else:
            idx = self._indices[lo:hi]
            gathered = x.take(idx)
            np.copyto(out, x)
            np.multiply(gathered, fac, out=gathered)
            out[idx] = gathered

    def block_smooth_constant(self, k: int) -> float:
        """Relative-smoothness constant of one block's summed penalty.

        Supports inside a block are disjoint, so the block constant is the
        max of the per-row constants: the largest coefficient in the block.
        """
        p0, p1 = self._block_ptr[k], self._block_ptr[k + 1]
        return float(self._data[self._indptr[p0] : self._indptr[p1]].max())

    def smooth_constant(self) -> float:
        """Constant for the full objective: sum of the per-block constants."""
        return sum(self.block_smooth_constant(k) for k in range(self.n_blocks))

    @classmethod
    def from_dense(cls, A, b, blocks=None) -> "ConstraintSystem":
        """Build from a dense nonnegative matrix A and positive targets b."""
        A = np.atleast_2d(np.asarray(A, dtype=np.float64))
        if A.shape[0] != np.size(b):
            raise ValueError(f"A has {A.shape[0]} rows but b has {np.size(b)} entries")
        row, col = np.nonzero(A)
        return cls(row, col, A[row, col], b, A.shape[1], blocks)

    @classmethod
    def from_triplets(cls, triplets, b, dimension=None, blocks=None) -> "ConstraintSystem":
        """Build from (row, col, value) triplets; n rows is set by len(b).

        Each triplet is a tuple, list or array of three numbers, and its row
        and column are integers.  One pass reads them into records of three
        floats, which refuses a triplet of another length.
        """
        try:
            entries = np.fromiter(map(tuple, triplets), dtype=_TRIPLET)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"triplets must be (row, col, value) sequences: {exc}") from exc
        if not entries.size:
            raise ValueError("triplets must hold at least one (row, col, value) entry")
        col = _as_indices(entries["col"], "column")
        if dimension is None:
            dimension = int(col.max()) + 1
        return cls(entries["row"], col, entries["val"], b, dimension, blocks)


def _row_dot(system: ConstraintSystem, i: int, x) -> float:
    """``<a_i, x>``, which must be positive."""
    x = np.asarray(x, dtype=np.float64)
    system._check_length(x)
    idx, val = system._entries(i)
    s = float(val @ x[idx])
    if s <= 0.0:
        raise ValueError(f"inner product for constraint {i} is not positive")
    return s


def eval_fi(system: ConstraintSystem, i: int, x) -> float:
    """One penalty term: s log(s/b_i) - s + b_i with s = <a_i, x>."""
    s = _row_dot(system, i, x)
    return float(kl_terms(s, system.b[i]))


def grad_fi(system: ConstraintSystem, i: int, x) -> np.ndarray:
    """Gradient a_i log(<a_i,x>/b_i), dense but supported only on the row.

    Vanishes wherever the constraint holds, so a feasible point zeroes every
    component gradient simultaneously.
    """
    s = _row_dot(system, i, x)
    idx, val = system._entries(i)
    g = np.zeros(system.dimension)
    g[idx] = val * np.log(s / system.b[i])
    return g


def eval_f(system: ConstraintSystem, x) -> Residual:
    """Full objective sum_i f_i(x) together with the l1 constraint violation."""
    x = np.asarray(x, dtype=np.float64)
    s = system.dots(x)
    if np.any(s <= 0.0):
        i = int(np.argmax(s <= 0.0))
        raise ValueError(f"inner product for constraint {i} is not positive")
    b = system.b
    per = kl_terms(s, b)
    return Residual(
        per_constraint_kl=per,
        l1_violation=float(np.sum(np.abs(s - b))),
        objective=float(per.sum()),
    )
