"""Structured matrices of the compressed covariance model.

The model chains three linear maps: an inverse-DFT-style modulation
matrix B couples the N frequency bins to the N coset spectra, a
repetition matrix T expands the N circulant lags to all N^2 covariance
entries, and selection matrices C pick the active cosets.  Both LS
systems have a diagonal normal matrix (Rc^T Rc = diag(gamma) for one
pattern, with Rc = (C kron C) T; Psi^T Psi = diag(pair counts) for a
family), so each design is solved by one real averaging operator, built
here from index maps, that takes the column-major vectorized sample
covariances to the N circulant lags.  The dense builders (``dense_rc``,
``dense_psi``, ``build_selection_matrix``, ``build_repetition_matrix``)
materialize the model matrices and serve as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .patterns import CosetPattern, PatternFamily


@dataclass(frozen=True)
class SystemMatrixRc:
    """Index form of the compressed system matrix.

    The q-th vectorized covariance entry (q = M*col + row) observes lag
    (marks[row] - marks[col]) mod N.  ``gamma[k]`` counts the entries
    observing lag k; it is exactly the diagonal of Rc^T Rc.  ``operator``
    is the M^2 x N averaging operator pinv(Rc)^T: row q holds 1/gamma[k]
    in the column k of the lag that entry q observes, and zeros elsewhere.
    """

    pattern: CosetPattern
    gamma: np.ndarray = field(repr=False, compare=False)
    operator: np.ndarray = field(repr=False, compare=False)

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
    groups observe the ordered coset pair (row, col).  ``operator`` is
    the (Z M^2) x N averaging operator: row z*M^2 + M*mp + m routes the
    covariance slot (m, mp) of group z to lag (marks[m] - marks[mp]) mod
    N with weight 1/(N * pair count), so one product yields the mean of
    each modular diagonal of the LS estimate of the N x N matrix.
    """

    family: PatternFamily
    pair_counts: np.ndarray = field(repr=False, compare=False)
    operator: np.ndarray = field(repr=False, compare=False)

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


def build_repetition_matrix(n: int) -> np.ndarray:
    """Read-only N^2 x N binary matrix T mapping circulant lags to
    vectorized entries.

    Row q carries a single one in column ((q - floor(q/N)) mod N): the
    vectorized entry at (row r, column c) equals lag (r - c) mod N.
    """
    q = np.arange(n * n)
    lag = (q - q // n) % n
    matrix = np.zeros((n * n, n))
    matrix[q, lag] = 1.0
    matrix.setflags(write=False)
    return matrix


def build_selection_matrix(pattern: CosetPattern) -> np.ndarray:
    """Dense M x N row-selection matrix for the active cosets."""
    c = np.zeros((pattern.size, pattern.period))
    c[np.arange(pattern.size), list(pattern.marks)] = 1.0
    return c


def _averaging_operator(lags: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Rows x N matrix with ``weights[q]`` in column ``lags[q]`` of row q."""
    operator = np.zeros((lags.size, n))
    operator[np.arange(lags.size), lags] = weights
    operator.setflags(write=False)
    return operator


def build_system_matrix(pattern: CosetPattern) -> SystemMatrixRc:
    """Gamma diagonal and averaging operator of Rc = (C kron C) T."""
    n = pattern.period
    marks = np.asarray(pattern.marks)
    # vec ordering is column-major (q = M*col + row), so entry q
    # observes lag (marks[q % M] - marks[q // M]) mod N.
    lags = ((marks[None, :] - marks[:, None]) % n).reshape(-1)
    gamma = np.bincount(lags, minlength=n)
    operator = _averaging_operator(lags, 1.0 / gamma[lags], n)
    gamma.setflags(write=False)
    return SystemMatrixRc(pattern=pattern, gamma=gamma, operator=operator)


def dense_rc(pattern: CosetPattern) -> np.ndarray:
    """Materialize Rc = (C kron C) T; M^2 x N. Verification path only."""
    c = build_selection_matrix(pattern)
    t = build_repetition_matrix(pattern.period)
    return np.kron(c, c) @ t


def build_psi(family: PatternFamily) -> PsiMatrix:
    """Ordered-pair counts and averaging operator for a pattern family."""
    n = family.period
    marks = np.array([pattern.marks for pattern in family.patterns])[:, None, :]
    # Column-major slot (mp, m) of group z observes row marks[m] and
    # column marks[mp] of the N x N matrix.
    rows, cols = marks, marks.transpose(0, 2, 1)
    vec_index = (n * cols + rows).reshape(-1)
    pair_counts = np.bincount(vec_index, minlength=n * n)
    lags = ((rows - cols) % n).reshape(-1)
    operator = _averaging_operator(lags, 1.0 / (n * pair_counts[vec_index]), n)
    pair_counts.setflags(write=False)
    return PsiMatrix(family=family, pair_counts=pair_counts, operator=operator)


def dense_psi(family: PatternFamily) -> np.ndarray:
    """Materialize Psi by stacking C_z kron C_z; M^2 Z x N^2. Tests only."""
    blocks = [
        np.kron(build_selection_matrix(p), build_selection_matrix(p))
        for p in family.patterns
    ]
    return np.vstack(blocks)
