"""Exact linear algebra for multimode bosonic states on a truncated Fock basis.

States are dense complex arrays indexed by per-mode photon numbers, all modes
sharing one cutoff ``n_max``.  Every operation returns a new value; nothing is
mutated in place, so states can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm
from scipy.special import gammaln, pdtrc

from .errors import ShapeMismatch, TailTooHeavy, TruncationOverflow, UnknownMode

DEFAULT_TAIL_TOL = 1e-12


def coherent_tail(z, n_max) -> float:
    """Probability mass of |z> beyond photon number n_max (Poisson tail)."""
    return float(pdtrc(n_max, abs(z) ** 2))


def min_cutoff(amplitudes, tail_tol=DEFAULT_TAIL_TOL) -> int:
    """Smallest n_max such that every coherent amplitude fits within tail_tol."""
    biggest = max((abs(z) for z in amplitudes), default=0.0)
    n = max(1, int(biggest**2))
    while coherent_tail(biggest, n) > tail_tol:
        n += 1
    return n


@dataclass(frozen=True)
class TruncationSpec:
    """Per-mode photon-number cutoff and the admissible truncated mass."""

    n_max: int
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not 0 < self.tail_tol < 1:
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class FockVector:
    """Pure multimode state; possibly sub-normalized after post-selection."""

    modes: tuple
    amplitudes: np.ndarray
    trunc: TruncationSpec

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        want = (self.trunc.dim,) * len(self.modes)
        if self.amplitudes.shape != want:
            raise ShapeMismatch(
                f"amplitude shape {self.amplitudes.shape} != {want} for modes {self.modes}"
            )

    def axis(self, mode) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise UnknownMode(f"mode {mode!r} not in {self.modes}") from None

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm2()))

    def normalized(self) -> "FockVector":
        return FockVector(self.modes, self.amplitudes / self.norm(), self.trunc)


@dataclass(frozen=True)
class DensOp:
    """Density operator over an ordered set of modes (one shared cutoff)."""

    modes: tuple
    matrix: np.ndarray
    trunc: TruncationSpec

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        dim = self.trunc.dim ** len(self.modes)
        if self.matrix.shape != (dim, dim):
            raise ShapeMismatch(
                f"matrix shape {self.matrix.shape} != {(dim, dim)} for modes {self.modes}"
            )
        scale = float(np.max(np.abs(self.matrix))) or 1.0
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > 1e-8 * scale:
            raise ValueError("density matrix is not Hermitian within tolerance")

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def normalized(self) -> "DensOp":
        return DensOp(self.modes, self.matrix / self.trace(), self.trunc)


# ---------------------------------------------------------------------------
# construction


def coherent_amplitudes(z, n_max, tail_tol=DEFAULT_TAIL_TOL) -> np.ndarray:
    """Fock amplitudes (Q_0(z), ..., Q_{n_max}(z)) of the coherent state |z>.

    Raises TailTooHeavy when the truncated mass beyond n_max exceeds tail_tol.
    """
    if coherent_tail(z, n_max) > tail_tol:
        raise TailTooHeavy(
            f"|z|={abs(z):.4g} does not fit below n_max={n_max} at tail_tol={tail_tol:g}"
        )
    n = np.arange(n_max + 1)
    if z == 0:
        out = np.zeros(n_max + 1, dtype=complex)
        out[0] = 1.0
        return out
    # evaluated in log form; z^n / sqrt(n!) overflows long before it matters
    return np.exp(n * np.log(complex(z)) - 0.5 * gammaln(n + 1) - 0.5 * abs(z) ** 2)


def product_state(modes, single_mode_vectors, trunc) -> FockVector:
    """Tensor product of per-mode amplitude vectors, in the given mode order."""
    amp = np.array([1.0 + 0j])
    for v in single_mode_vectors:
        amp = np.multiply.outer(amp, np.asarray(v, dtype=complex))
    return FockVector(tuple(modes), amp.reshape(amp.shape[1:]), trunc)


# ---------------------------------------------------------------------------
# gates


def apply_cross_kerr(state: FockVector, mode_i, mode_j, chi) -> FockVector:
    """Multiply each amplitude by exp(i chi n_i n_j). Exactly norm-preserving."""
    ai, aj = state.axis(mode_i), state.axis(mode_j)
    n = np.arange(state.trunc.dim)
    shape_i = [1] * len(state.modes)
    shape_i[ai] = state.trunc.dim
    shape_j = [1] * len(state.modes)
    shape_j[aj] = state.trunc.dim
    phase = np.exp(1j * chi * n.reshape(shape_i) * n.reshape(shape_j))
    return FockVector(state.modes, state.amplitudes * phase, state.trunc)


@lru_cache(maxsize=4096)
def _bs_block(total, n_max, theta):
    """Unitary exp(i theta (c^dag d + c d^dag)) on the total-photon-number block."""
    lo = max(0, total - n_max)
    hi = min(n_max, total)
    k = np.arange(lo, hi)  # couples (k, total-k) <-> (k+1, total-k-1)
    off = np.sqrt((k + 1.0) * (total - k))
    if len(off) == 0:
        return np.array([[1.0 + 0j]])
    w, v = eigh_tridiagonal(np.zeros(hi - lo + 1), off)
    return (v * np.exp(1j * theta * w)) @ v.T


def apply_beamsplitter(state: FockVector, mode_i, mode_j, theta) -> FockVector:
    """Two-mode mixer exp{i theta (c_i^dag c_j + c_i c_j^dag)}.

    Coherent inputs map to coherent outputs,
    |u>|v| -> |u cos(theta) + i v sin(theta)> |v cos(theta) + i u sin(theta)>.
    Applied block-by-block over the conserved total photon number; blocks that
    stick out past the cutoff evolve within their truncated span, and the state
    mass sitting in those blocks must stay below tail_tol.
    """
    if theta == 0:
        return state
    ai, aj = state.axis(mode_i), state.axis(mode_j)
    n_max = state.trunc.n_max
    d = state.trunc.dim
    arr = np.moveaxis(state.amplitudes, (ai, aj), (-2, -1))
    lead = arr.shape[:-2]
    arr = arr.reshape(-1, d, d)
    out = np.empty_like(arr)
    boundary_mass = 0.0
    for total in range(2 * n_max + 1):
        ks = np.arange(max(0, total - n_max), min(n_max, total) + 1)
        vec = arr[:, ks, total - ks]
        if total > n_max:
            boundary_mass += float(np.sum(np.abs(vec) ** 2))
        out[:, ks, total - ks] = vec @ _bs_block(total, n_max, float(theta)).T
    if boundary_mass > state.trunc.tail_tol:
        raise TruncationOverflow(
            f"mass {boundary_mass:.3e} in blocks beyond n_max={n_max} "
            f"(tail_tol={state.trunc.tail_tol:g}); raise the cutoff"
        )
    out = np.moveaxis(out.reshape(*lead, d, d), (-2, -1), (ai, aj))
    return FockVector(state.modes, np.ascontiguousarray(out), state.trunc)


@lru_cache(maxsize=256)
def _displacement_matrix(dim, d):
    n = np.sqrt(np.arange(1, dim))
    a = np.diag(n, 1)
    gen = d * a.conj().T - np.conj(d) * a
    return expm(gen)


def apply_displacement(state: FockVector, mode, d) -> FockVector:
    """Displace one mode: |z> -> (phase) |z + d|.

    Implemented as the matrix exponential of d c^dag - d* c on a temporarily
    enlarged cutoff; raises TruncationOverflow if the displaced state leaks
    past the original n_max by more than tail_tol.
    """
    if d == 0:
        return state
    ax = state.axis(mode)
    n_max = state.trunc.n_max
    pad = int(np.ceil(abs(d) ** 2 + 4 * abs(d) + 4))
    big = n_max + 1 + pad
    arr = np.moveaxis(state.amplitudes, ax, -1)
    lead = arr.shape[:-1]
    wide = np.zeros((*lead, big), dtype=complex)
    wide[..., : n_max + 1] = arr
    wide = wide.reshape(-1, big) @ _displacement_matrix(big, complex(d)).T
    wide = wide.reshape(*lead, big)
    leaked = float(np.sum(np.abs(wide[..., n_max + 1 :]) ** 2))
    if leaked > state.trunc.tail_tol:
        raise TruncationOverflow(
            f"displacement by |d|={abs(d):.4g} leaks {leaked:.3e} past n_max={n_max}"
        )
    out = np.moveaxis(wide[..., : n_max + 1], -1, ax)
    return FockVector(state.modes, np.ascontiguousarray(out), state.trunc)


# ---------------------------------------------------------------------------
# measurement and reduction


def project_click(state: FockVector, mode, clicked: bool) -> FockVector:
    """Project one mode on a non-resolving detector outcome.

    clicked=False keeps only the vacuum component of the mode, clicked=True
    keeps everything else.  The squared norm of the result is the outcome
    probability; the mode itself stays in the state.
    """
    ax = state.axis(mode)
    amp = state.amplitudes.copy()
    sl = [slice(None)] * len(state.modes)
    if clicked:
        sl[ax] = 0
        amp[tuple(sl)] = 0.0
    else:
        sl[ax] = slice(1, None)
        amp[tuple(sl)] = 0.0
    return FockVector(state.modes, amp, state.trunc)


def reduce_to_density(state: FockVector, keep) -> DensOp:
    """Trace out every mode not in ``keep``; returns a DensOp over ``keep``."""
    keep = tuple(keep)
    for m in keep:
        state.axis(m)
    drop = [m for m in state.modes if m not in keep]
    perm = [state.axis(m) for m in keep] + [state.axis(m) for m in drop]
    d = state.trunc.dim
    mat = np.transpose(state.amplitudes, perm).reshape(d ** len(keep), -1)
    return DensOp(keep, mat @ mat.conj().T, state.trunc)


def partial_trace(rho: DensOp, keep) -> DensOp:
    """Partial trace of a density operator down to the ``keep`` modes."""
    keep = tuple(keep)
    idx = []
    for m in keep:
        if m not in rho.modes:
            raise UnknownMode(f"mode {m!r} not in {rho.modes}")
        idx.append(rho.modes.index(m))
    drop = [i for i in range(len(rho.modes)) if i not in idx]
    d = rho.trunc.dim
    m = len(rho.modes)
    t = rho.matrix.reshape((d,) * (2 * m))
    # contract each dropped mode's row/column index pair, back to front
    for off, i in enumerate(sorted(drop, reverse=True)):
        cur = m - off
        t = np.trace(t, axis1=i, axis2=cur + i)
    # axes now ordered as the surviving modes in original order
    order = [rho.modes[i] for i in sorted(idx)]
    k = len(keep)
    t = t.reshape(d**k, d**k)
    if order != list(keep):
        # permute surviving modes into the requested order
        per = [order.index(mm) for mm in keep]
        t = t.reshape((d,) * (2 * k))
        t = np.transpose(t, per + [k + p for p in per]).reshape(d**k, d**k)
    return DensOp(keep, np.ascontiguousarray(t), rho.trunc)


# ---------------------------------------------------------------------------
# metrics


def _check_same(a, b):
    if a.modes != b.modes or a.trunc.n_max != b.trunc.n_max:
        raise ShapeMismatch(
            f"incompatible operands: {a.modes}@{a.trunc.n_max} vs {b.modes}@{b.trunc.n_max}"
        )


def inner(a: FockVector, b: FockVector) -> complex:
    """<a|b> with matching modes and truncation."""
    _check_same(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(rho: DensOp, psi: FockVector) -> float:
    """<psi|rho|psi>/(Tr rho * <psi|psi>): fidelity of rho against a pure state."""
    if not isinstance(psi, FockVector):
        raise TypeError(f"expected FockVector, got {type(psi).__name__}")
    _check_same(rho, psi)
    v = psi.amplitudes.ravel()
    val = np.real(np.vdot(v, rho.matrix @ v)) / (rho.trace() * np.vdot(v, v).real)
    return float(val)


def trace_distance(rho: DensOp, sigma: DensOp) -> float:
    """Half the trace norm of the difference of the normalized operators."""
    _check_same(rho, sigma)
    diff = rho.matrix / rho.trace() - sigma.matrix / sigma.trace()
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
