"""End-to-end protocol simulation along one route, the blocked one.

The interaction entangles the two held modes (a, b) with a weak coherent
probe through cross-Kerr phases, then sends the probe through the synthesized
splitter chain where each arm meets its reference beam and a non-resolving
detector.  ``run_full_protocol`` takes the blocked route: the total held-mode
photon number s = n_a + n_b is conserved and tags the probe branch, so the
linear cascade acts on exact coherent labels per s and projector overlaps are
evaluated in closed form.  No truncation anywhere except the (a, b) amplitude
grid itself.

Its test oracles are three routes in ``tests/oracles.py``.  The monolithic
one simulates every mode literally through a gate layer (small instances
only), and the displaced one runs the cascade with vacuum reference ports,
displacing each arm by -i q gamma_j before detection.  The operator path
applies the per-detector polynomial operators (q^n/sqrt(n!)) (c - gamma_j)^n
branch by branch and sums exact photon counts up to a cutoff; it converges
to the network result as the cutoff grows.  All three check their dense size
against DENSE_BYTES_LIMIT through ``_check_budget``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .design import (
    DEFAULT_DELTA,
    DetectionScheme,
    TargetCoefficients,
    build_scheme,
    probe_affine,
)
from .errors import DomainError, MemoryBudgetExceeded
from .fock import (
    HERMITIAN_TILE,
    DensOp,
    FockVector,
    TruncationSpec,
    coherent_amplitudes,
    min_cutoff,
)

# dense-array budget of every route; bell-k1 (82.5 MB: its two operators, the
# kernel and the check tiles) is the largest preset run
DENSE_BYTES_LIMIT = 2**30
# dominant_eigenstate asks ARPACK for the top eigenpair from this many rows
# on, LAPACK below; measured on a 2-vCPU VM with one OpenBLAS thread, they
# cross between 100 and 144 rows (81: LAPACK 0.4 ms, ARPACK 0.6 ms; 225:
# LAPACK 4.4 ms, ARPACK 1.4 ms)
EIGSH_MIN_ROWS = 128
# a heralded probability at or below this is taken as zero: its state is left
# unnormalized and the CLI reports no metrics for it.  A target state whose
# squared norm is at or below this share of sum |c_n|^2 is taken as vanishing.
P_NEGLIGIBLE = 1e-30


@dataclass(frozen=True)
class ProtocolParams:
    """Physical inputs plus the synthesized scheme and shared truncation."""

    alpha: complex
    beta: complex
    gamma: complex
    chi: float
    target: TargetCoefficients
    scheme: DetectionScheme
    trunc: TruncationSpec

    def __post_init__(self):
        if not 0 < self.chi <= np.pi:
            raise ValueError(f"chi must lie in (0, pi], got {self.chi}")
        if abs(self.gamma) ** 2 > 0.5:
            # past the generated __init__ and make_protocol (or
            # dataclasses.replace), to the line that asked for the protocol
            warnings.warn(
                f"|gamma|^2 = {abs(self.gamma) ** 2:.3g} > 0.5; the weak-probe "
                "expansions the scheme relies on degrade quickly",
                stacklevel=4,
            )


@dataclass(frozen=True)
class OutcomeRecord:
    """One click pattern with its heralded normalized state and probability."""

    pattern: tuple
    state: DensOp
    probability: float


def make_protocol(
    alpha,
    beta,
    gamma,
    chi,
    target: TargetCoefficients,
    delta: float = DEFAULT_DELTA,
) -> ProtocolParams:
    """Bundle a full parameter set, synthesizing the scheme and the cutoff.

    The cutoff covers every coherent amplitude appearing in the network
    (held modes, probe, references, master) within fock.DEFAULT_TAIL_TOL, so
    the same ProtocolParams can drive the blocked route and its truncated-Fock
    oracles.  To run at another cutoff, replace ``trunc`` on the result
    (``dataclasses.replace``).
    """
    scheme = build_scheme(target, gamma, delta=delta)
    return ProtocolParams(
        complex(alpha),
        complex(beta),
        complex(gamma),
        float(chi),
        target,
        scheme,
        TruncationSpec(
            min_cutoff([alpha, beta, gamma, scheme.ref_net.master, *scheme.gtilde])
        ),
    )


def analytic_target_state(
    target: TargetCoefficients, alpha, beta, chi, trunc: TruncationSpec | None = None
) -> FockVector:
    """Normalized sum_n c_n |alpha e^{i chi n}> |beta e^{i chi n}> on modes (a, b).

    Raises DomainError when that sum has no finite squared norm above
    P_NEGLIGIBLE sum |c_n|^2 (c sums to zero at alpha = beta = 0, say, or
    coefficients that label one coherent pair cancel at chi = pi): there is
    no state to normalize, only round-off.
    """
    if trunc is None:
        trunc = TruncationSpec(min_cutoff([alpha, beta]))
    amp = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    for n, cn in enumerate(target.c):
        qa = coherent_amplitudes(
            alpha * np.exp(1j * chi * n), trunc.n_max, trunc.tail_tol
        )
        qb = coherent_amplitudes(
            beta * np.exp(1j * chi * n), trunc.n_max, trunc.tail_tol
        )
        amp += cn * np.outer(qa, qb)
    norm = np.linalg.norm(amp)
    if not P_NEGLIGIBLE * np.sum(np.abs(target.c) ** 2) < norm**2 < np.inf:
        raise DomainError(f"the target state has squared norm {norm**2:.3g}")
    return FockVector(("a", "b"), amp / norm, trunc)


# ---------------------------------------------------------------------------
# blocked network path (exact coherent-label evolution per conserved s)


def _coh_overlap(bra, ket):
    """<bra|ket> for coherent labels; broadcasts."""
    return np.exp(np.conj(bra) * ket - 0.5 * (np.abs(bra) ** 2 + np.abs(ket) ** 2))


def _branch_labels(params: ProtocolParams):
    """Per-branch arm and end-probe coherent labels for s = 0 .. 2 n_max."""
    s = np.arange(2 * params.trunc.n_max + 1)
    z = params.gamma * np.exp(1j * params.chi * s)
    gam = params.scheme.roots.expanded()
    arms = 1j * params.scheme.q * (z[None, :] - gam[:, None])  # [arm, s]
    mu, nu = probe_affine(params.scheme)
    return arms, mu * z + nu


def _pattern_kernel(arms, probe, pattern):
    """W[r, c] = <out(c)| P_pattern (x) 1_probe |out(r)> over branch labels.

    Per arm, False is the silent projector |0><0| and True the exact click
    complement 1 - |0><0|.
    """
    w = _coh_overlap(probe[None, :], probe[:, None])
    for d, clicked in zip(arms, pattern):
        bra, ket = d[None, :], d[:, None]
        vac = np.exp(-0.5 * (np.abs(bra) ** 2 + np.abs(ket) ** 2))
        w = w * (_coh_overlap(bra, ket) - vac if clicked else vac)
    return w


def _assemble_rho(params: ProtocolParams, kernel) -> DensOp:
    """rho[(na, nb), (ma, mb)] = w[na, nb] conj(w[ma, mb]) kernel[na + nb, ma + mb]
    with w the (a, b) coherent amplitudes, built in a single dim^4 array."""
    d = params.trunc.dim
    qa = coherent_amplitudes(params.alpha, params.trunc.n_max, params.trunc.tail_tol)
    qb = coherent_amplitudes(params.beta, params.trunc.n_max, params.trunc.tail_tol)
    w = np.outer(qa, qb).ravel()
    rho = np.multiply.outer(w, np.conj(w))
    blocks = rho.reshape(d, d, d, d)
    # strided Hankel view, no copy: [na, nb, ma, mb] -> kernel[na + nb, ma + mb]
    blocks *= sliding_window_view(kernel, (d, d)).transpose(0, 2, 1, 3)
    return DensOp(("a", "b"), rho, params.trunc)


def _record(pattern, rho: DensOp) -> OutcomeRecord:
    """The outcome of one pattern: rho's trace is its probability, and rho is
    scaled to unit trace unless that trace is negligible.

    The scaling is done in place: only for an operator just built by the
    caller, which nothing else holds yet.
    """
    p = rho.trace()
    if p > P_NEGLIGIBLE:
        np.divide(rho.matrix, p, out=rho.matrix)
        rho = DensOp(rho.modes, rho.matrix, rho.trunc)
    return OutcomeRecord(tuple(pattern), rho, float(p))


def _dense_bytes(params: ProtocolParams, n: int) -> int:
    """Peak dense bytes of n heralded two-mode operators built one by one: the
    blocked kernel, the n normalized operators kept (each assembled in one
    array and scaled in place), and the two tile-sized temporaries of
    DensOp's Hermiticity check."""
    dim = params.trunc.dim
    tile = min(HERMITIAN_TILE, dim**2)
    return 16 * ((2 * dim - 1) ** 2 + n * dim**4 + 2 * tile**2)


def _check_budget(params: ProtocolParams, route: str, need: int) -> None:
    if need > DENSE_BYTES_LIMIT:
        raise MemoryBudgetExceeded(
            f"{route} needs {need:.3g} B of dense arrays (n_max "
            f"{params.trunc.n_max}), over the {DENSE_BYTES_LIMIT:.3g} B budget"
        )


def run_full_protocol(params: ProtocolParams):
    """All 2^K click-pattern outcomes with heralded states and probabilities,
    along the blocked route; MemoryBudgetExceeded, before any allocation,
    past DENSE_BYTES_LIMIT."""
    K = params.scheme.K
    _check_budget(params, "blocked route", _dense_bytes(params, 2**K))
    arms, probe = _branch_labels(params)
    return [
        _record(pattern, _assemble_rho(params, _pattern_kernel(arms, probe, pattern)))
        for pattern in itertools.product((True, False), repeat=K)
    ]


def all_click_record(records) -> OutcomeRecord:
    for r in records:
        if all(r.pattern):
            return r
    raise ValueError("no all-click record present")


def dominant_eigenstate(rho: DensOp):
    """Largest eigenvalue and its eigenvector as a FockVector over rho's modes."""
    dim = rho.matrix.shape[0]
    if dim < EIGSH_MIN_ROWS:
        from scipy.linalg import eigh

        w, v = eigh(rho.matrix, subset_by_index=[dim - 1, dim - 1])
    else:
        from scipy.sparse.linalg import eigsh

        # a fixed start vector: ARPACK's default one is drawn afresh on every
        # call, which moves the last printed digits of a near-product
        # state's entanglement from run to run
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
        w, v = eigsh(rho.matrix, k=1, which="LA", v0=v0)
    lam, vec = float(w[0]), v[:, 0]
    shape = (rho.trunc.dim,) * len(rho.modes)
    return lam / rho.trace(), FockVector(rho.modes, vec.reshape(shape), rho.trunc)
