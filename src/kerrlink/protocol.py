"""End-to-end protocol simulation along one route, the blocked one, held in
the total-photon-number basis.

The interaction entangles the two held modes (a, b) with a weak coherent
probe through cross-Kerr phases, then sends the probe through the synthesized
splitter chain where each arm meets its reference beam and a non-resolving
detector.  ``run_full_protocol`` takes the blocked route: the total held-mode
photon number s = n_a + n_b is conserved and tags the probe branch, so the
linear cascade acts on exact coherent labels per s and projector overlaps are
evaluated in closed form, as a kernel W[s, s'] per click pattern.

The probe sees the held modes only through s, so every heralded state is
rho = sum_{s, s'} W[s, s'] |v_s><v_s'|, with
v_s = sum_{n_a + n_b = s} Q_{n_a}(alpha) Q_{n_b}(beta) |n_a, n_b>.  The v_s
are orthogonal, also after truncating each mode at n_max, with squared norms
N_s, so rho is exactly the matrix sqrt(N_s) W[s, s'] sqrt(N_s') over the
orthonormal v_s / sqrt(N_s): a ``DensOp`` over the single mode "s" with
cutoff 2 n_max.  Targets live in the same basis; ``lift_to_modes`` turns an
s-vector back into (a, b) amplitudes.  No truncation anywhere except the
(a, b) amplitude grid itself, and no operator on that grid is built.

Its test oracles are three routes in ``tests/oracles.py``, each on the
(a, b) grid, compared through a dense view of the block records.  The
monolithic one simulates every mode literally through a gate layer (small
instances only), and the displaced one runs the cascade with vacuum
reference ports, displacing each arm by -i q gamma_j before detection.  The
operator path applies the per-detector polynomial operators
(q^n/sqrt(n!)) (c - gamma_j)^n branch by branch and sums exact photon counts
up to a cutoff; it converges to the network result as the cutoff grows.  All
three check their dense size against DENSE_BYTES_LIMIT through
``_check_budget``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .design import (
    DEFAULT_DELTA,
    DetectionScheme,
    TargetCoefficients,
    build_scheme,
    probe_affine,
)
from .errors import MemoryBudgetExceeded, ShapeMismatch
from .fock import (
    HERMITIAN_TILE,
    P_NEGLIGIBLE,
    DensOp,
    FockVector,
    TruncationSpec,
    _nonvanishing_norm2,
    coherent_amplitudes,
    coherent_tail,
    min_cutoff,
)

# dense-array budget of every route; bell-k1 (0.5 MB: its two 79 x 79
# operators, the kernel and the check tiles) is the largest preset run
DENSE_BYTES_LIMIT = 2**30
# dominant_eigenstate asks ARPACK for the top eigenpair from this many rows
# on, LAPACK below; measured on a 2-vCPU VM with one OpenBLAS thread, they
# cross between 100 and 144 rows (81: LAPACK 0.4 ms, ARPACK 0.6 ms; 225:
# LAPACK 4.4 ms, ARPACK 1.4 ms)
EIGSH_MIN_ROWS = 128


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

    @property
    def truncated_mass(self) -> float:
        """1 - sum_s N_s: the share of |alpha>|beta> beyond n_max in either
        mode, from the two Poisson tails (the difference 1 - sum_s N_s
        itself cancels to round-off once the tails are small)."""
        ta = coherent_tail(self.alpha, self.trunc.n_max)
        tb = coherent_tail(self.beta, self.trunc.n_max)
        return ta + tb - ta * tb

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
    """One click pattern with its heralded normalized state and probability;
    the state is a DensOp over the total photon number "s" (module docstring)."""

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


def _s_trunc(trunc: TruncationSpec) -> TruncationSpec:
    """Cutoff of s = n_a + n_b when each held mode is cut at trunc.n_max."""
    return TruncationSpec(2 * trunc.n_max, trunc.tail_tol)


def _check_budget(n_max: int, route: str, need: int) -> None:
    if need > DENSE_BYTES_LIMIT:
        raise MemoryBudgetExceeded(
            f"{route} needs {need:.3g} B of dense arrays (n_max "
            f"{n_max}), over the {DENSE_BYTES_LIMIT:.3g} B budget"
        )


@lru_cache(maxsize=64)
def _held_block(alpha: complex, beta: complex, trunc: TruncationSpec):
    """(Q_a, Q_b, N): the held modes' coherent amplitudes up to trunc.n_max and
    N_s = <v_s|v_s> for s = 0 .. 2 n_max; read-only, built once per
    (alpha, beta, trunc) and shared by the records, targets and lifts.
    MemoryBudgetExceeded, before any allocation, when one (2 n_max + 1)-row
    operator alone is past DENSE_BYTES_LIMIT: no route could hold it."""
    S = _s_trunc(trunc).dim
    _check_budget(trunc.n_max, "one heralded block operator", 16 * S**2)
    qa = coherent_amplitudes(alpha, trunc.n_max, trunc.tail_tol)
    qb = coherent_amplitudes(beta, trunc.n_max, trunc.tail_tol)
    norms = np.convolve(np.abs(qa) ** 2, np.abs(qb) ** 2)
    for a in (qa, qb, norms):
        a.flags.writeable = False
    return qa, qb, norms


def analytic_target_state(
    target: TargetCoefficients, alpha, beta, chi, trunc: TruncationSpec
) -> FockVector:
    """Normalized sum_n c_n |alpha e^{i chi n}> |beta e^{i chi n}> over "s".

    On (a, b) that sum is sum_s p(s) v_s with p(s) = sum_n c_n e^{i chi n s},
    so its s-vector is sqrt(N_s) p(s); ``trunc`` is the per-mode cutoff, the
    protocol's own (``ProtocolParams.trunc``) for a target compared with its
    records.  Raises DomainError when that sum vanishes
    (``fock._nonvanishing_norm2``).
    """
    norms = _held_block(complex(alpha), complex(beta), trunc)[2]
    s = np.arange(len(norms))
    p = np.exp(1j * chi * np.outer(s, np.arange(target.K + 1))) @ target.c
    amp = np.sqrt(norms) * p
    norm = np.linalg.norm(amp)
    _nonvanishing_norm2(norm**2, target.c)
    return FockVector(("s",), amp / norm, _s_trunc(trunc))


def lift_to_modes(phi: FockVector, alpha, beta) -> FockVector:
    """The (a, b) amplitudes Q_{n_a}(alpha) Q_{n_b}(beta) phi(s) / sqrt(N_s) of
    an s-vector phi, s = n_a + n_b, with 0 wherever N_s = 0 (an s that no
    (n_a, n_b) within the cutoff reaches with weight)."""
    if phi.modes != ("s",):
        raise ShapeMismatch(f"need a vector over ('s',), got {phi.modes}")
    trunc = TruncationSpec(phi.trunc.n_max // 2, phi.trunc.tail_tol)
    qa, qb, norms = _held_block(complex(alpha), complex(beta), trunc)
    root = np.sqrt(norms)
    per_s = np.divide(phi.amplitudes, root, out=np.zeros(len(root), complex), where=root > 0)
    s_of = np.add.outer(np.arange(trunc.dim), np.arange(trunc.dim))
    return FockVector(("a", "b"), np.outer(qa, qb) * per_s[s_of], trunc)


# ---------------------------------------------------------------------------
# blocked network path (exact coherent-label evolution per conserved s)


def _coh_overlap(bra, ket):
    """<bra|ket> for coherent labels; broadcasts.  Built in its output array:
    besides it, one real temporary of its shape."""
    out = np.conj(bra) * ket
    out -= 0.5 * (np.abs(bra) ** 2 + np.abs(ket) ** 2)
    return np.exp(out, out=out)


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
    complement 1 - |0><0|.  W is updated in place, so that besides it at most
    one complex and two real arrays of its shape are alive at once.
    """
    w = _coh_overlap(probe[None, :], probe[:, None])
    for d, clicked in zip(arms, pattern):
        bra, ket = d[None, :], d[:, None]
        vac = np.exp(-0.5 * (np.abs(bra) ** 2 + np.abs(ket) ** 2))
        if clicked:
            factor = _coh_overlap(bra, ket)
            factor -= vac
            w *= factor
        else:
            w *= vac
    return w


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
    """Peak dense bytes of n heralded block operators built one by one, each
    S x S with S = 2 n_max + 1: the n normalized operators kept (each scaled
    in place), the kernel of the one in the making, and the two tile-sized
    temporaries of DensOp's Hermiticity check."""
    S = _s_trunc(params.trunc).dim
    tile = min(HERMITIAN_TILE, S)
    return 16 * ((n + 1) * S**2 + 2 * tile**2)


def run_full_protocol(params: ProtocolParams):
    """All 2^K click-pattern outcomes with heralded states and probabilities,
    along the blocked route, each state over "s"; MemoryBudgetExceeded,
    before any allocation, past DENSE_BYTES_LIMIT."""
    K = params.scheme.K
    _check_budget(params.trunc.n_max, "blocked route", _dense_bytes(params, 2**K))
    arms, probe = _branch_labels(params)
    root = np.sqrt(_held_block(params.alpha, params.beta, params.trunc)[2])
    trunc = _s_trunc(params.trunc)
    out = []
    for pattern in itertools.product((True, False), repeat=K):
        rho = _pattern_kernel(arms, probe, pattern)
        rho *= root[:, None]
        rho *= root
        out.append(_record(pattern, DensOp(("s",), rho, trunc)))
    return out


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
