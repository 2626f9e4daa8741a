"""Least-squares reconstruction of the averaged periodogram.

Both estimators, CAP-UB and CAP-CB, share one core.  Per in-bin
frequency point, per-sensor outer products of the coset DTFT vectors
are averaged into sample covariances; ``SystemMatrix.solve``, the
design's averaging operator (see ``structure``), maps them, stacked, to
the N circulant lags, the closed-form LS solution; and a length-N
transform of the lags gives the periodogram in O(N log N).  The sample
covariance, the one step whose cost grows with the sensor count, is a
batched BLAS product, one M x M matrix per point, taken over chunks of
sensors small enough that OpenBLAS runs each product on the calling
thread: a helper thread would compete with the other worker processes
for the cores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .patterns import CosetPattern, PatternFamily
from .sensing import BLAS_SPLIT_SIZE, CosetObservationSet
from .structure import build_psi, build_system_matrix

CAP_UB = "CAP-UB"
CAP_CB = "CAP-CB"
NAP = "NAP"


class IdentifiabilityError(ValueError):
    """The sampling design does not determine the quantity being solved for."""

    def __init__(self, message: str, missing=()):
        super().__init__(message)
        self.missing = tuple(missing)


@dataclass
class CovarianceStack:
    """Sample covariance of the coset DTFT vector at each grid point.

    ``matrices[l]`` is the M x M Hermitian average over ``count`` sensors
    at theta = l / (period * L).
    """

    matrices: np.ndarray
    count: int
    pattern: CosetPattern


@dataclass
class Periodogram:
    """Power estimate on the full grid of period * L frequency points."""

    values: np.ndarray
    estimator: str
    max_imag_ratio: float = 0.0

    @property
    def negative_count(self) -> int:
        return int(np.sum(self.values < 0.0))

    def require_finite(self) -> None:
        """Refuse values that finite powers overflowed, e.g. in a covariance."""
        if not np.all(np.isfinite(self.values)):
            raise ValueError(
                f"{self.estimator} values are not finite: the scenario's powers "
                "overflow a float"
            )

    def write_csv(self, path) -> None:
        """Write ``theta,value,estimator,run_id`` rows, as ``cap.csv`` is written."""
        from .runner import _periodogram_csv    # runner imports this module

        _periodogram_csv(self)(path)


def sample_covariance(observations: CosetObservationSet) -> CovarianceStack:
    """Mean over all of the set's sensors of the outer products of their
    coset DTFT vectors: the C-order (L, M, M) ``matrices``.

    The DTFT is transposed to one M x sensors matrix per point, and each
    chunk of sensors adds its batched product to the sum; a chunk holds
    as many sensors as keep a product below ``BLAS_SPLIT_SIZE``.
    """
    tau, m = observations.dtft.shape[:2]
    if tau == 0:
        raise ValueError(f"cluster/group {observations.label} is empty")
    chunk = max(1, (BLAS_SPLIT_SIZE - 1) // (m * m))
    y = np.ascontiguousarray(observations.dtft.transpose(2, 1, 0))
    total = np.zeros((y.shape[0], m, m), dtype=complex)
    for lo in range(0, tau, chunk):
        part = y[:, :, lo : lo + chunk]
        total += part @ part.conj().swapaxes(1, 2)
    return CovarianceStack(matrices=total / tau, count=tau, pattern=observations.pattern)


def ls_reconstruct_rbar(stack: CovarianceStack) -> np.ndarray:
    """Solve the per-point LS problem for the circulant lag vector.

    Because the normal matrix is diag(gamma), the solution for lag k is
    the mean of the covariance entries whose mark difference is k; the
    averaging operator of the system matrix of ``stack.pattern`` computes
    all lags in one pass.
    Returns the (L, N) lags, one row per grid point.  Raises
    IdentifiabilityError when some lag is observed by no pair.
    """
    sysmat = build_system_matrix(stack.pattern)
    if not sysmat.identifiable:
        missing = sysmat.missing
        raise IdentifiabilityError(
            f"pattern {stack.pattern} is not a circular sparse ruler: "
            f"modular differences {list(missing)} are unrealized",
            missing=missing,
        )
    return sysmat.solve([stack.matrices])


def assemble_cap(lags: np.ndarray) -> Periodogram:
    """Expand (L, N) lag vectors to the periodogram on the full frequency grid.

    The diagonal of the de-modulated bin covariance depends only on the
    mean of each modular diagonal (the lag vector): it is N times the
    forward length-N transform of the lags; dividing by the grid size
    leaves fft(lags)/L per bin.  This holds whether or not the
    covariance is circulant, so both estimators end here.  Values are
    kept as-is (small negatives included); the worst imaginary residue
    is recorded.
    """
    l_pts = lags.shape[0]
    diag = np.fft.fft(lags, axis=1) / l_pts
    scale = np.max(np.abs(diag))
    max_imag = float(np.max(np.abs(diag.imag)) / scale) if scale > 0 else 0.0
    # bin i of point l sits at global grid index i*L + l
    values = diag.real.T.reshape(-1).copy()
    return Periodogram(
        values=values,
        estimator=CAP_UB,
        max_imag_ratio=max_imag,
    )


def estimate_multicluster(
    observation_sets: list[CosetObservationSet],
) -> tuple[list[Periodogram], Periodogram]:
    """Run the pipeline per cluster and average the periodograms."""
    if not observation_sets:
        raise ValueError("no clusters to estimate from")
    for obs in observation_sets:
        if obs.pattern != observation_sets[0].pattern:
            raise ValueError("clusters use different patterns")
    caps = [assemble_cap(ls_reconstruct_rbar(sample_covariance(obs))) for obs in observation_sets]
    return caps, average_periodograms(caps)


def average_periodograms(parts: list[Periodogram]) -> Periodogram:
    """Equal-weight average, e.g. of per-cluster estimates or baselines."""
    if not parts:
        raise ValueError("nothing to average")
    return Periodogram(
        values=np.mean([p.values for p in parts], axis=0),
        estimator=parts[0].estimator,
        max_imag_ratio=max(p.max_imag_ratio for p in parts),
    )


def estimate_correlated_bins(group_observations: list[CosetObservationSet]) -> Periodogram:
    """LS reconstruction without the circulant assumption.

    Per grid point, the per-group sample covariances provide one equation
    per ordered coset pair; with Psi^T Psi diagonal the LS solution for
    each bin-covariance entry is the mean of its observations across the
    groups that saw that pair.  The family's averaging operator folds
    that mean and the mean over each modular diagonal into one pass,
    and the periodogram is assembled as for CAP-UB.
    """
    if not group_observations:
        raise ValueError("no groups to estimate from")
    family = PatternFamily(
        period=group_observations[0].pattern.period,
        patterns=tuple(obs.pattern for obs in group_observations),
    )
    psi = build_psi(family)
    if not psi.identifiable:
        # gamma index N*col + row is the ordered coset pair (row, col)
        missing = [(q % family.period, q // family.period) for q in psi.missing]
        raise IdentifiabilityError(
            f"family does not cover coset pairs {missing}; "
            "the bin covariance is not identifiable",
            missing=missing,
        )
    stacks = [sample_covariance(obs) for obs in group_observations]
    if len({s.matrices.shape[0] for s in stacks}) != 1:
        raise ValueError("groups disagree on grid size")
    return replace(assemble_cap(psi.solve([s.matrices for s in stacks])), estimator=CAP_CB)
