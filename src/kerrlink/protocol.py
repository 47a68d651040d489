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

The 2^K kernels are slices of one (2^K, S, S) stack, S = 2 n_max + 1, and
``_metric_rows`` computes the metrics ``simulate`` prints for all patterns
at once on stacks over it: every heralded target from one phase matrix,
both fidelities from one contraction, the dominant eigenvectors from one
LAPACK call (block subspace iteration over the stack from SUBSPACE_MIN_ROWS
rows), and the Schmidt spectra from one lift and one SVD.  The single-state
functions (``analytic_target_state``, ``lift_to_modes``, ``dominant_eigenstate``,
``fock.fidelity``, ``entangle.schmidt_entropy``) are those stacked cores on
a stack of one, and the pattern-by-pattern loop through them is the
oracle of the stacked rows.

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
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .design import (
    DEFAULT_DELTA,
    DetectionScheme,
    TargetCoefficients,
    _heralded_coeffs,
    build_scheme,
    probe_affine,
)
from .entangle import _schmidt_entropies
from .errors import MemoryBudgetExceeded, ShapeMismatch
from .fock import (
    HERMITIAN_TILE,
    P_NEGLIGIBLE,
    DensOp,
    FockVector,
    TruncationSpec,
    _fidelities,
    _nonvanishing_norm2,
    coherent_amplitudes,
    coherent_tail,
    min_cutoff,
)

# dense-array budget of every route; bell-k1 (0.5 MB: its two 79 x 79
# operators and the temporaries of their Hermiticity check) is the largest
# preset run
DENSE_BYTES_LIMIT = 2**30
# the top eigenpairs of heralded operators come from one LAPACK heevd call
# (np.linalg.eigh) over the stack below this many rows, and from block
# subspace iteration (``_top_eigenpairs``) from it on.  Measured on
# (2^K, S, S) stacks of heralded operators on a 2-vCPU VM with one OpenBLAS
# thread (heevd / subspace): K = 2 at 29 rows 0.278 / 0.283 ms, 33 rows
# 0.40 / 0.29 ms, 41 rows 0.68 / 0.31 ms, 79 rows 3.0 / 0.46 ms; K = 1
# crosses lower (21 rows: 0.115 / 0.085 ms; 79 rows: 1.54 / 0.17 ms;
# 185 rows: 15.9 / 0.47 ms)
SUBSPACE_MIN_ROWS = 32
# columns of the subspace block: heralded operators of 79 rows or more have
# numerical rank (at 1e-14) 3 to 7, so 8 columns hold them and most converge
# in one step; at 4, 6, 8 and 12 columns bell-k1 took 0.19, 0.14, 0.16 and
# 0.23 ms, K = 2 at 515 rows 5.7, 5.8, 5.3 and 7.2 ms, and K = 1 at 837 rows
# 9.0, 8.3, 7.5 and 9.6 ms
SUBSPACE_COLS = 8
# a Ritz pair (lam, v) is taken once |M v - lam v| <= SUBSPACE_TOL |lam|:
# heevd's own top eigenpairs sit at 0.4e-15 to 2.1e-15 of lam on heralded
# operators of 29 to 837 rows
SUBSPACE_TOL = 1e-13
# a matrix not converged after this many steps takes heevd on its own; the
# heralded operators took 1 or 2 steps on every case measured (114 operators
# of K = 1 to 3 at random targets, |gamma| up to 0.7, 29 to 837 rows)
SUBSPACE_MAX_STEPS = 10


@dataclass(frozen=True)
class ProtocolParams:
    """Held-mode amplitudes, coupling, the synthesized scheme and the shared
    truncation.  The probe amplitude gamma is the one the scheme's roots were
    solved for, read from the scheme rather than stored a second time."""

    alpha: complex
    beta: complex
    chi: float
    scheme: DetectionScheme
    trunc: TruncationSpec

    @property
    def gamma(self) -> complex:
        return self.scheme.roots.gamma

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
    (``dataclasses.replace``).  The target itself is not kept: the run reads
    it only through the scheme's roots.
    """
    scheme = build_scheme(target, gamma, delta=delta)
    return ProtocolParams(
        complex(alpha),
        complex(beta),
        float(chi),
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
        if need > sys.float_info.max:  # an int with no float :g form
            from decimal import Decimal  # imported here alone: ~0.5 MB resident

            need = Decimal(need)
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
    amp = _target_states(target.c[None], alpha, beta, chi, trunc)[0]
    return FockVector(("s",), amp, _s_trunc(trunc))


def _target_states(cs, alpha, beta, chi, trunc: TruncationSpec) -> np.ndarray:
    """The s-vectors of ``analytic_target_state``, one per coefficient row of
    cs (rows may end in zeros), from one phase matrix e^{i chi n s}; each
    row's norm is checked by ``fock._nonvanishing_norm2``."""
    norms = _held_block(complex(alpha), complex(beta), trunc)[2]
    s = np.arange(len(norms))
    phase = np.exp(1j * chi * np.outer(s, np.arange(cs.shape[1])))
    # per row the float operations of phase @ c and of np.linalg.norm on one
    # vector, so that a target's s-vector does not depend on the stack
    amp = np.sqrt(norms) * (phase @ cs[:, :, None])[:, :, 0]
    re, im = amp.real[:, None, :], amp.imag[:, None, :]
    norm = np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])
    for n, c in zip(norm, cs):
        _nonvanishing_norm2(n**2, c)
    return amp / norm[:, None]


def lift_to_modes(phi: FockVector, alpha, beta) -> FockVector:
    """The (a, b) amplitudes Q_{n_a}(alpha) Q_{n_b}(beta) phi(s) / sqrt(N_s) of
    an s-vector phi, s = n_a + n_b, with 0 wherever N_s = 0 (an s that no
    (n_a, n_b) within the cutoff reaches with weight)."""
    if phi.modes != ("s",):
        raise ShapeMismatch(f"need a vector over ('s',), got {phi.modes}")
    trunc = TruncationSpec(phi.trunc.n_max // 2, phi.trunc.tail_tol)
    return FockVector(("a", "b"), _lifts(phi.amplitudes[None], alpha, beta, trunc)[0], trunc)


def _lifts(phis, alpha, beta, trunc: TruncationSpec) -> np.ndarray:
    """``lift_to_modes`` of each row of phis, as one (rows, n_max + 1, n_max + 1)
    stack; ``trunc`` is the per-mode cutoff."""
    qa, qb, norms = _held_block(complex(alpha), complex(beta), trunc)
    root = np.sqrt(norms)
    per_s = np.divide(phis, root, out=np.zeros(phis.shape, complex), where=root > 0)
    # per_s[:, n_a + n_b] as a view: windows of length n_max + 1 over s
    return np.outer(qa, qb) * sliding_window_view(per_s, trunc.dim, axis=-1)


# ---------------------------------------------------------------------------
# blocked network path (exact coherent-label evolution per conserved s)


def _branch_labels(params: ProtocolParams):
    """Per-branch arm and end-probe coherent labels for s = 0 .. 2 n_max."""
    s = np.arange(2 * params.trunc.n_max + 1)
    z = params.gamma * np.exp(1j * params.chi * s)
    gam = params.scheme.roots.expanded()
    arms = 1j * params.scheme.q * (z[None, :] - gam[:, None])  # [arm, s]
    mu, nu = probe_affine(params.scheme)
    return arms, mu * z + nu


def _overlaps(d, gram):
    """Fills gram with the labels' Gram <d_c|d_r> over coherent labels d and
    returns vac = exp(-(|d_c|^2 + |d_r|^2) / 2), the real vacuum projector
    |0><0| between them (entries [r, c]).  One builder for the probe Gram and
    every arm, whose click factor (1 - |0><0|) is gram - vac; besides gram
    and vac, it holds nothing of their shape.  Each entry takes the
    operations of the one-pattern kernel in their order, so every factor is
    that of a pattern built on its own to the last bit."""
    bra, ket = d[None, :], d[:, None]
    vac = np.abs(bra) ** 2 + np.abs(ket) ** 2
    vac *= 0.5
    np.multiply(np.conj(bra), ket, out=gram)
    gram -= vac
    np.exp(gram, out=gram)
    np.negative(vac, out=vac)
    np.exp(vac, out=vac)
    return vac


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
    """Peak dense bytes of n = 2^K heralded block operators, each S x S with
    S = 2 n_max + 1, as ``run_full_protocol`` builds them: the n kernels, one
    stack allocated first, and the larger of two later needs.  While an arm
    is applied, its real silent factor (half a kernel) is alive, with numpy's
    buffers for casting it to complex, at most two tiles; its click factor
    sits in a kernel slot not yet taken, and the previous arm's silent
    factor is gone.  Once the last one is freed, DensOp's Hermiticity check
    holds three tile-sized temporaries.  ``_metric_rows`` reads the kernels
    in place and fits its own arrays into what they leave of
    DENSE_BYTES_LIMIT, at least this reserve."""
    S = _s_trunc(params.trunc).dim
    tile = min(HERMITIAN_TILE, S)
    return 16 * n * S**2 + max(8 * S**2 + 32 * tile**2, 48 * tile**2)


def run_full_protocol(params: ProtocolParams):
    """All 2^K click-pattern outcomes with heralded states and probabilities,
    along the blocked route, each state over "s"; MemoryBudgetExceeded,
    before any allocation, past DENSE_BYTES_LIMIT.

    The kernel of a pattern is the probe Gram times one factor per arm, the
    click or the silent one, multiplied in arm order.  One overlap builder
    (``_overlaps``) gives the Gram and each arm's pair of factors, once per
    run; going breadth-first over the arms, each prefix product yields its
    two children, so that the kernels end as slices of one (2^K, S, S) stack,
    which the records' operators are, in the order of ``itertools.product(
    (True, False), repeat=K)`` (True: clicked), known to no other code."""
    K = params.scheme.K
    n = 2**K
    _check_budget(params.trunc.n_max, "blocked route", _dense_bytes(params, n))
    arms, probe = _branch_labels(params)
    S = len(probe)
    kernels = np.empty((n, S, S), complex)
    _overlaps(probe, kernels[-1])
    click = kernels[0]
    for j, d in enumerate(arms):
        # a prefix sits in the last slot of its patterns, kept by its silent
        # child; its click child takes the last slot of their first half, and
        # the last arm's first prefix takes slot 0, the click factor's, last
        step = n >> j
        vac = _overlaps(d, click)
        click -= vac
        for last in range(n - 1, 0, -step):
            w = kernels[last]
            np.multiply(w, click, out=kernels[last - step // 2])
            w *= vac
        # the silent factor goes before the next arm's, or DensOp's check
        # tiles, come (_dense_bytes)
        del vac
    root = np.sqrt(_held_block(params.alpha, params.beta, params.trunc)[2])
    kernels *= root[:, None]
    kernels *= root
    trunc = _s_trunc(params.trunc)
    return [_record(pattern, DensOp(("s",), rho, trunc))
            for pattern, rho in zip(itertools.product((True, False), repeat=K), kernels)]


def all_click_record(records) -> OutcomeRecord:
    for r in records:
        if all(r.pattern):
            return r
    raise ValueError("no all-click record present")


def dominant_eigenstate(rho: DensOp):
    """Largest eigenvalue and its eigenvector as a FockVector over rho's modes."""
    lam, vec = _top_eigenpairs(rho.matrix[None])
    shape = (rho.trunc.dim,) * len(rho.modes)
    return float(lam[0]) / rho.trace(), FockVector(rho.modes, vec[0].reshape(shape), rho.trunc)


def _top_eigenpairs(ms):
    """(lam, vecs): the largest eigenvalue of each Hermitian matrix of the
    stack ms and its eigenvector, one row per matrix; one LAPACK heevd call
    for the whole stack below SUBSPACE_MIN_ROWS, and from there block
    subspace iteration with Rayleigh-Ritz, which assumes the top eigenvalue
    is also the largest in modulus (ms positive semidefinite).

    Each step takes Q = qr(Z) and Z = M Q, and the top eigenpair (lam, u) of
    B = Q^H Z (k x k) gives v = Q u, with residual Z u - lam v.  The start
    block is a closed form, so that no random generator is drawn (importing
    numpy.random alone costs a process ~6 MB).  Each matrix keeps the pair
    of the first step it converges at, and the stack's float operations are
    those of each matrix on its own, so a matrix's bits do not depend on the
    stack it sits in.  A matrix still open after SUBSPACE_MAX_STEPS takes
    heevd on its own, one at a time.
    """
    dim = ms.shape[-1]
    if dim < SUBSPACE_MIN_ROWS:
        w, v = np.linalg.eigh(ms)
        return w[:, -1], v[:, :, -1].copy()
    # the start block: frac(n g) - 1/2 for n = 1, 2, ... row by row, the
    # golden-ratio Weyl sequence
    n = np.arange(1, dim * SUBSPACE_COLS + 1).reshape(dim, SUBSPACE_COLS)
    z = ms @ (n * ((np.sqrt(5.0) - 1.0) / 2.0) % 1.0 - 0.5)
    lam = np.full(len(ms), np.nan)
    vecs = np.empty(ms.shape[:2], complex)
    for _ in range(SUBSPACE_MAX_STEPS):
        q = np.linalg.qr(z)[0]
        z = ms @ q
        w, u = np.linalg.eigh(np.conj(q.transpose(0, 2, 1)) @ z)
        top, u = w[:, -1], u[:, :, -1:]
        v = (q @ u)[:, :, 0]
        res = np.linalg.norm((z @ u)[:, :, 0] - top[:, None] * v, axis=1)
        new = np.isnan(lam) & (res <= SUBSPACE_TOL * np.abs(top))
        lam[new], vecs[new] = top[new], v[new]
        if not np.isnan(lam).any():
            return lam, vecs
    for i in np.flatnonzero(np.isnan(lam)):
        w, v = np.linalg.eigh(ms[i])
        lam[i], vecs[i] = w[-1], v[:, -1]
    return lam, vecs


def _metric_rows(params: ProtocolParams, tgt: FockVector, records) -> list:
    """(probability, fidelity against tgt, entanglement, oracle residual) of
    each record of ``run_full_protocol(params)``, in its order.

    The entanglement is the Schmidt entropy of the dominant eigenvector,
    lifted to (a, b); the oracle residual is 1 - the fidelity against the
    target its own pattern heralds (``design._heralded_coeffs``).  A record of
    negligible probability gets 0 for all three; for every other one they
    come from stacks: one build of the heralded targets, then per chunk of
    records one fidelity contraction of both targets over the kernels, one
    eigensolve (``_top_eigenpairs``), one lift and one SVD.  The records'
    operators are slices of one kernel stack, read in place; a chunk holds
    as many records as fit in what the kernels leave of DENSE_BYTES_LIMIT,
    at two operators' bytes each (the eigenvectors of ``np.linalg.eigh``,
    which the subspace side needs only for a matrix it hands to heevd, one
    at a time, and a gathered copy when the chunk skips a record), so all
    records but those of a run near the limit are one chunk.
    """
    kernels = records[0].state.matrix.base
    probs = [r.probability for r in records]
    live = np.flatnonzero(np.array(probs) > P_NEGLIGIBLE)
    heralded = _heralded_coeffs(params.scheme.roots, [records[i].pattern for i in live])
    own = _target_states(heralded, params.alpha, params.beta, params.chi, params.trunc)
    n, S = kernels.shape[:2]
    chunk = max(1, (DENSE_BYTES_LIMIT - 16 * n * S**2) // (32 * S**2))
    metrics = np.zeros((n, 3))
    for i in range(0, len(live), chunk):
        idx = live[i : i + chunk]
        whole = idx[-1] - idx[0] == len(idx) - 1
        ms = kernels[idx[0] : idx[-1] + 1] if whole else kernels[idx]
        vs = np.stack(np.broadcast_arrays(tgt.amplitudes, own[i : i + chunk]), axis=1)
        fid = _fidelities(ms[:, None], vs)
        # the lifts go once their spectra are taken, before the next chunk's
        ent = _schmidt_entropies(
            _lifts(_top_eigenpairs(ms)[1], params.alpha, params.beta, params.trunc))
        metrics[idx] = np.column_stack((fid[:, 0], ent, 1.0 - fid[:, 1]))
    return [(p, *m) for p, m in zip(probs, metrics.tolist())]
