"""Structured matrices of the compressed covariance model.

The model chains three linear maps: an inverse-DFT-style modulation
matrix B couples the N frequency bins to the N coset spectra, a
repetition matrix T expands the N circulant lags to all N^2 covariance
entries, and selection matrices C pick the active cosets.  Both LS
systems, Rc = (C kron C) T for one pattern and the stacked per-group
selection Psi for a family, have a diagonal normal matrix, so each is
solved by one real averaging operator that takes the vectorized sample
covariances to the N circulant lags: each lag is a weighted sum of the
covariance entries that observe it.

``SystemMatrix`` keeps that operator in index form, for either design:
every covariance slot, counted in memory order over the stacked M x M
matrices, sorted by the lag it observes (``slots``), with its weight
(``weights``) and the start of each lag's run of slots (``starts``).
``SystemMatrix.solve``, the one place that reads them, is then a gather,
an in-place scale and one ``np.add.reduceat``: no matrix product, so no
BLAS call.  The BLAS products of a Monte Carlo run, the sample
covariance and the coset map C B, are taken in chunks below the size at
which OpenBLAS would split them over a helper thread.
Synthesis aliases bins into cosets with C B, taken as the rows of B at
the marks.  B is the one model matrix built densely; C, T, Rc and Psi
exist here in index form only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .patterns import CosetPattern, PatternFamily


@dataclass(frozen=True)
class SystemMatrix:
    """Index form of the LS system of a pattern (Rc) or a family (Psi).

    ``gamma`` is the diagonal of the normal matrix.  For a pattern it is
    Rc^T Rc: ``gamma[k]`` counts the covariance entries observing lag k.
    For a family it is Psi^T Psi: ``gamma[N*col + row]`` counts the
    groups observing the ordered coset pair (row, col).  ``slots`` lists
    the covariance slots in lag order, each with its weight in
    ``weights``; lag k's slots start at ``starts[k]``.
    """

    design: CosetPattern | PatternFamily
    gamma: np.ndarray = field(repr=False, compare=False)
    slots: np.ndarray = field(repr=False, compare=False)
    starts: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)

    @property
    def identifiable(self) -> bool:
        return bool(np.min(self.gamma) >= 1)

    @property
    def missing(self) -> tuple[int, ...]:
        """The indices of ``gamma`` that nothing observes."""
        return tuple(int(k) for k in np.flatnonzero(self.gamma == 0))

    def solve(self, matrices) -> np.ndarray:
        """The (L, N) LS lags of each group's (L, M, M) covariances, given
        in design order: every point's entries gathered in lag order,
        weighted in place and summed over each lag's run."""
        flat = [m.reshape(m.shape[0], -1) for m in matrices]
        vec = (flat[0] if len(flat) == 1 else np.concatenate(flat, axis=1))[:, self.slots]
        vec *= self.weights
        return np.add.reduceat(vec, self.starts, axis=1)


@lru_cache(maxsize=16)
def build_modulation_matrix(n: int) -> np.ndarray:
    """Read-only N x N matrix B with entries exp(j 2 pi n i / N) / N."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    matrix = np.exp(2j * np.pi * rows * cols / n) / n
    matrix.setflags(write=False)
    return matrix


def _system_matrix(design, gamma: np.ndarray, lags: np.ndarray, weights: np.ndarray):
    """The system matrix whose slot p (memory order) observes lag
    ``lags[p]`` with weight ``weights[p]``: the slots sorted by lag,
    memory order kept within a lag, their weights and each lag's start."""
    slots = np.argsort(lags, kind="stable")
    starts = np.searchsorted(lags[slots], np.arange(design.period))
    index = {"gamma": gamma, "slots": slots, "starts": starts, "weights": weights[slots]}
    for array in index.values():
        array.setflags(write=False)
    return SystemMatrix(design=design, **index)


@lru_cache(maxsize=64)
def build_system_matrix(pattern: CosetPattern) -> SystemMatrix:
    """Rc = (C kron C) T: memory position M*row + col observes lag
    (marks[row] - marks[col]) mod N, with weight 1/gamma of that lag."""
    n = pattern.period
    marks = np.asarray(pattern.marks)
    lags = ((marks[:, None] - marks[None, :]) % n).reshape(-1)
    gamma = np.bincount(lags, minlength=n)
    return _system_matrix(pattern, gamma, lags, 1.0 / gamma[lags])


@lru_cache(maxsize=16)
def build_psi(family: PatternFamily) -> SystemMatrix:
    """Psi of a pattern family.  Slot (m, mp) of group z, at memory
    position z*M^2 + M*m + mp, observes entry (marks[m], marks[mp]) of
    the N x N matrix, so lag (marks[m] - marks[mp]) mod N, with weight
    1/(N * gamma of the pair): the weighted sum over each lag's slots is
    the mean of that modular diagonal of the LS estimate of the matrix."""
    n = family.period
    marks = np.array([pattern.marks for pattern in family.patterns])
    rows, cols = marks[:, :, None], marks[:, None, :]
    vec_index = (n * cols + rows).reshape(-1)
    gamma = np.bincount(vec_index, minlength=n * n)
    lags = ((rows - cols) % n).reshape(-1)
    return _system_matrix(family, gamma, lags, 1.0 / (n * gamma[vec_index]))
