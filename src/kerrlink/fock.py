"""States on a truncated Fock basis.

States are dense complex arrays indexed by per-mode photon numbers, all modes
sharing one cutoff ``n_max``: pure states (``FockVector``), density operators
(``DensOp``), coherent amplitudes with their Poisson tail, and the fidelity
against a pure state that the protocol reports.  The Poisson tail and log n!
are computed here from ``math`` (scipy's ``pdtrc`` and ``gammaln`` are their
test oracles), so this module loads no scipy.  A "mode" here may also be
a conserved total photon number: ``protocol`` keeps its heralded states over
the single mode "s" = n_a + n_b with cutoff 2 n_max, so the same operators
and fidelity serve a (2 n_max + 1)-row block.  ``fidelity`` is its stacked
form (``_fidelities``, operators against vectors, each pair with the same
float operations) on one pair; ``protocol`` runs the stacked form over all
click patterns at once.  Every operation returns a new value and nothing is
mutated in place, so states can be shared freely across threads.  The one
exception is ``protocol._record``: it scales an operator just built to unit
trace, before anything else holds it.
The literal gate layer (beamsplitter, cross-Kerr, displacement, click
projection, partial trace) and the trace distance are test oracles and live
in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatch, TailTooHeavy, UnknownMode

DEFAULT_TAIL_TOL = 1e-12
# rows and columns per tile of DensOp's Hermiticity check (fastest measured)
HERMITIAN_TILE = 128
# a heralded probability at or below this is taken as zero: its state is left
# unnormalized and the CLI reports no metrics for it.  A state of coefficients
# c vanishes unless its squared norm is finite and above this share of
# sum |c_n|^2 (c sums to zero at alpha = beta = 0, say, or coefficients that
# label one coherent pair cancel at chi = pi).
P_NEGLIGIBLE = 1e-30
# coherent_tail sums the Poisson series below this mean photon number |z|^2
# and takes Temme's expansion from it on: the series' prefactor carries
# ~|z|^2 log|z|^2 ulps of rounding, and the expansion's truncation error falls
# about as |z|^-8 (5e-9 of the tail at |z|^2 = 1e3, 6e-13 at 1e4); the two
# cross at ~5e3, where both are ~1e-11.
TEMME_MIN_MEAN = 1e4
# Taylor coefficients in eta of Temme's c_0, c_1, c_2 (DLMF 8.12.9-8.12.11)
_TEMME_C = (
    (-1 / 3, 1 / 12, -2 / 135, 1 / 864, 1 / 2835, -139 / 777600, 1 / 25515,
     -571 / 261273600, -281 / 151559100, 163879 / 197522841600),
    (-1 / 540, -1 / 288, 1 / 378, -77 / 77760, 1 / 4860, -1 / 2488320,
     -2743 / 151559100, 41969 / 5486745600),
    (25 / 6048, -139 / 51840, 1 / 1296, 1 / 497664, -6199 / 57736800,
     5531 / 104509440),
)


def _nonvanishing_norm2(norm2: float, c, name: str = "target state") -> float:
    """norm2, the squared norm of a state of coefficients c; DomainError when
    the state vanishes (see P_NEGLIGIBLE): no state to normalize, only round-off."""
    if not P_NEGLIGIBLE * float(np.vdot(c, c).real) < norm2 < np.inf:
        raise DomainError(f"the {name} has squared norm {norm2:.3g}")
    return norm2


def coherent_tail(z, n_max) -> float:
    """Probability mass of |z> beyond photon number n_max: the Poisson tail
    P(N > n_max) of mean lam = |z|^2.

    Below TEMME_MIN_MEAN it sums the Poisson series outward from the side of
    n_max away from lam, in float term ratios, until a term falls below 1e-17
    of the sum: P(N > n) = p(n + 1) (1 + lam/(n + 2) + ...) when n + 1 > lam,
    else 1 - p(n) (1 + n/lam + n (n - 1)/lam^2 + ...), with the Poisson
    probability p(k) from math.lgamma.  Such a series runs up to ~9 sqrt(lam)
    terms, so from TEMME_MIN_MEAN on the tail is Temme's uniform expansion
    instead.  Both agree with scipy.special.pdtrc to ~1e-11 relative down to
    tails of 1e-290 up to lam = 1e4, and the expansion with mpmath to ~1e-11
    at the 1e-12 point of lam = 1e7 to 1e12, where pdtrc reads low (0.77 of
    the tail at lam = 1e8).
    """
    lam = abs(z) ** 2
    if lam >= TEMME_MIN_MEAN:
        return _temme_lower_gamma(n_max + 1, lam)
    if lam == 0:
        return 0.0
    k = n_max + 1
    term = total = 1.0
    if k > lam:
        j = k
        while term > 1e-17 * total:
            j += 1
            term *= lam / j
            total += term
        return _poisson_pmf(k, lam) * total
    j = k  # the terms end at n!/lam^n, then one zero
    while term > 1e-17 * total:
        j -= 1
        term *= j / lam
        total += term
    return 1.0 - _poisson_pmf(n_max, lam) * total


def _poisson_pmf(k, lam) -> float:
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def _temme_lower_gamma(a, x) -> float:
    """The regularized lower incomplete gamma P(a, x) for large a, by Temme's
    uniform expansion (DLMF 8.12.4, 8.12.8): 1/2 erfc(-eta sqrt(a/2)) minus
    exp(-a eta^2/2)/sqrt(2 pi a) sum_k c_k(eta) a^-k, where
    eta^2/2 = mu - log(1 + mu) for mu = x/a - 1, and eta has mu's sign.
    Wherever P is neither 0 nor 1 in floats, |eta| < 0.32 for x >= 1e4, so
    the c_k are Taylor polynomials."""
    mu = (x - a) / a
    if abs(mu) > 0.25:
        half_eta2 = mu - math.log1p(mu)
    else:  # the same as sum_{k>=2} (-mu)^k/k, without log1p's cancellation
        half_eta2, power, k = 0.0, mu * mu, 2
        while abs(power) > 1e-17 * k * half_eta2:
            half_eta2 += power / k
            power, k = -power * mu, k + 1
    eta = math.copysign(math.sqrt(2 * half_eta2), mu)
    series = 0.0
    for order, coeffs in enumerate(_TEMME_C):
        c = 0.0
        for coeff in reversed(coeffs):
            c = c * eta + coeff
        power = a**order  # an int, exact
        # past float range (a^2 for a > ~1.3e154) c / a^order vanishes next to c_0
        series += c / power if power <= sys.float_info.max else 0.0
    return (0.5 * math.erfc(-eta * math.sqrt(a / 2))
            - math.exp(-a * half_eta2) / math.sqrt(2 * math.pi * a) * series)


def min_cutoff(amplitudes, tail_tol=DEFAULT_TAIL_TOL) -> int:
    """Smallest n_max >= max(1, |z|^2) such that every coherent amplitude z
    fits within tail_tol.  The tail falls monotonically in n, so a doubling
    bracket and a bisection find it in O(log |z|) tail evaluations.  Raises
    DomainError when the largest |z|^2 is beyond float range."""
    biggest = max((abs(z) for z in amplitudes), default=0.0)
    try:
        lam = float(biggest) ** 2
    except OverflowError:
        lam = math.inf
    if not lam < math.inf:  # NaN fails it too
        raise DomainError(
            f"a coherent amplitude of modulus {biggest:.3g} has |z|^2 beyond float range"
        )
    lo = hi = max(1, int(lam))
    step = 1
    while coherent_tail(biggest, hi) > tail_tol:  # every n <= hi falls short
        lo, hi, step = hi + 1, hi + step, 2 * step
    # bisected by hand: a range(lo, hi) wider than sys.maxsize has no len()
    while lo < hi:
        mid = (lo + hi) // 2
        if coherent_tail(biggest, mid) <= tail_tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


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
        gap, scale = _hermitian_gap(self.matrix)
        # a NaN or inf entry makes gap or scale non-finite, and fails here too
        if not gap <= 1e-8 * (scale or 1.0) < np.inf:
            raise ValueError("density matrix is not finite and Hermitian within tolerance")

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def normalized(self) -> "DensOp":
        return DensOp(self.modes, self.matrix / self.trace(), self.trunc)


def _hermitian_gap(m):
    """(max |m - m^H|, max |m|) tile by tile over the upper triangle.

    Entry (c, r) of m - m^H is minus the conjugate of entry (r, c), so both
    have the same modulus and the maxima are those of the whole matrices,
    without a temporary of m's size.  Each tile's moduli come before its
    difference: a NaN or inf entry makes the scale non-finite, and the gap
    is then NaN at once, as it would be over the whole matrix (inf - inf),
    so a finite difference is all that is ever taken and raises no
    invalid-value warning.
    """
    n, t = m.shape[0], HERMITIAN_TILE
    gap = scale = 0.0
    for i in range(0, n, t):
        for j in range(i, n, t):
            upper, lower = m[i : i + t, j : j + t], m[j : j + t, i : i + t]
            scale = np.maximum(scale, np.abs(upper).max())
            if j != i:
                scale = np.maximum(scale, np.abs(lower).max())
            if not np.isfinite(scale):
                return math.nan, float(scale)
            gap = np.maximum(gap, np.abs(upper - lower.conj().T).max())
    return float(gap), float(scale)


# ---------------------------------------------------------------------------
# construction


def coherent_amplitudes(z, n_max, tail_tol=DEFAULT_TAIL_TOL) -> np.ndarray:
    """Fock amplitudes (Q_0(z), ..., Q_{n_max}(z)) of the coherent state |z>,
    exp(n log z - log(n!)/2 - |z|^2/2) with log n! from math.lgamma.

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
    log_factorials = np.array([math.lgamma(k + 1) for k in range(n_max + 1)])
    return np.exp(n * np.log(complex(z)) - 0.5 * log_factorials - 0.5 * abs(z) ** 2)


# ---------------------------------------------------------------------------
# metrics


def _check_same(a, b):
    if a.modes != b.modes or a.trunc.n_max != b.trunc.n_max:
        raise ShapeMismatch(
            f"incompatible operands: {a.modes}@{a.trunc.n_max} vs {b.modes}@{b.trunc.n_max}"
        )


def fidelity(rho: DensOp, psi: FockVector) -> float:
    """<psi|rho|psi>/(Tr rho * <psi|psi>): fidelity of rho against a pure state."""
    if not isinstance(psi, FockVector):
        raise TypeError(f"expected FockVector, got {type(psi).__name__}")
    _check_same(rho, psi)
    return float(_fidelities(rho.matrix, psi.amplitudes.ravel()))


def _fidelities(ms, vs):
    """``fidelity`` <v|m|v>/(Tr m <v|v>) over stacks: operators ms (..., D, D)
    against vectors vs (..., D), the two stacks broadcast against each other.
    One matrix-vector product per pair and the inner products as
    1 x D by D x 1 products, so a pair's float operations do not depend on
    the stack it sits in."""
    bras, kets = vs.conj()[..., None, :], vs[..., :, None]
    num = (bras @ (ms @ kets))[..., 0, 0].real
    return num / (np.trace(ms, axis1=-2, axis2=-1).real * (bras @ kets)[..., 0, 0].real)
