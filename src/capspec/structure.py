"""Structured matrices of the compressed covariance model.

The model chains three linear maps: an inverse-DFT-style modulation
matrix B couples the N frequency bins to the N coset spectra, a
repetition matrix T expands the N circulant lags to all N^2 covariance
entries, and selection matrices C pick the active cosets.  Both LS
systems have a diagonal normal matrix (Rc^T Rc = diag(gamma) for one
pattern, with Rc = (C kron C) T; Psi^T Psi = diag(pair counts) for a
family), so each design is solved by one real averaging operator that
takes the vectorized sample covariances to the N circulant lags: each
lag is a weighted sum of the covariance entries that observe it.

The designs keep that operator in index form: every covariance slot,
counted in memory order over the stacked M x M matrices, sorted by the
lag it observes (``slots``), with its weight (``weights``) and the
start of each lag's run of slots (``starts``).  A solve is then a
gather, an in-place scale and one ``np.add.reduceat``: no matrix
product, so no BLAS call.  The BLAS products of a Monte Carlo run, the
sample covariance and the coset map C B, are taken in chunks below the
size at which OpenBLAS would split them over a helper thread.  Synthesis
aliases bins into cosets with C B, taken as the rows of B at the marks.
B is the one model matrix built densely; C, T, Rc and Psi exist here in
index form only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .patterns import CosetPattern, PatternFamily


@dataclass(frozen=True)
class SystemMatrixRc:
    """Index form of the compressed system matrix.

    Covariance entry (row, col) observes lag (marks[row] - marks[col])
    mod N.  ``gamma[k]`` counts the entries observing lag k; it is
    exactly the diagonal of Rc^T Rc.  ``slots`` lists the entries in lag
    order by memory position M*row + col, each with the weight
    1/gamma[k]; lag k's entries start at ``starts[k]``.
    """

    pattern: CosetPattern
    gamma: np.ndarray = field(repr=False, compare=False)
    slots: np.ndarray = field(repr=False, compare=False)
    starts: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)

    @property
    def identifiable(self) -> bool:
        return bool(np.min(self.gamma) >= 1)

    @property
    def missing_differences(self) -> tuple[int, ...]:
        return tuple(int(k) for k in np.flatnonzero(self.gamma == 0))


@dataclass(frozen=True)
class PsiMatrix:
    """Index form of the stacked per-group selection system.

    ``pair_counts[N*col + row]`` is the diagonal of Psi^T Psi: how many
    groups observe the ordered coset pair (row, col).  Covariance slot
    (m, mp) of group z, at memory position z*M^2 + M*m + mp of the
    stacked matrices, observes lag (marks[m] - marks[mp]) mod N with
    weight 1/(N * pair count), so the weighted sum over each lag's slots
    is the mean of that modular diagonal of the LS estimate of the N x N
    matrix.  ``slots``, ``starts`` and ``weights`` are in lag order, as
    for ``SystemMatrixRc``.
    """

    family: PatternFamily
    pair_counts: np.ndarray = field(repr=False, compare=False)
    slots: np.ndarray = field(repr=False, compare=False)
    starts: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)

    @property
    def identifiable(self) -> bool:
        return bool(np.min(self.pair_counts) >= 1)

    @property
    def uncovered(self) -> tuple[tuple[int, int], ...]:
        n = self.family.period
        flat = np.flatnonzero(self.pair_counts == 0)
        return tuple((int(q % n), int(q // n)) for q in flat)


def build_modulation_matrix(n: int) -> np.ndarray:
    """Read-only N x N matrix B with entries exp(j 2 pi n i / N) / N."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    matrix = np.exp(2j * np.pi * rows * cols / n) / n
    matrix.setflags(write=False)
    return matrix




def _lag_index(lags: np.ndarray, weights: np.ndarray, n: int) -> dict:
    """Index form of an averaging operator whose slot p (memory order)
    observes lag ``lags[p]`` with weight ``weights[p]``: the slots sorted
    by lag, memory order kept within a lag, their weights and each lag's
    start."""
    slots = np.argsort(lags, kind="stable")
    starts = np.searchsorted(lags[slots], np.arange(n))
    index = {"slots": slots, "starts": starts, "weights": weights[slots]}
    for array in index.values():
        array.setflags(write=False)
    return index


def build_system_matrix(pattern: CosetPattern) -> SystemMatrixRc:
    """Gamma diagonal and averaging operator of Rc = (C kron C) T."""
    n = pattern.period
    marks = np.asarray(pattern.marks)
    # memory position M*row + col observes lag (marks[row] - marks[col]) mod N
    lags = ((marks[:, None] - marks[None, :]) % n).reshape(-1)
    gamma = np.bincount(lags, minlength=n)
    gamma.setflags(write=False)
    return SystemMatrixRc(
        pattern=pattern, gamma=gamma, **_lag_index(lags, 1.0 / gamma[lags], n)
    )


def build_psi(family: PatternFamily) -> PsiMatrix:
    """Ordered-pair counts and averaging operator for a pattern family."""
    n = family.period
    marks = np.array([pattern.marks for pattern in family.patterns])
    # Slot (m, mp) of group z, at memory position z*M^2 + M*m + mp,
    # observes row marks[m] and column marks[mp] of the N x N matrix.
    rows, cols = marks[:, :, None], marks[:, None, :]
    vec_index = (n * cols + rows).reshape(-1)
    pair_counts = np.bincount(vec_index, minlength=n * n)
    pair_counts.setflags(write=False)
    lags = ((rows - cols) % n).reshape(-1)
    weights = 1.0 / (n * pair_counts[vec_index])
    return PsiMatrix(family=family, pair_counts=pair_counts, **_lag_index(lags, weights, n))
