"""Nonideality pipeline for the heralded pair-coherent protocol.

Every imperfection acts on the held modes through one of three channels:

* a coefficient-pair map multiplying c_{n1} c_{n2}* by
  e^{i eta1 (n1-n2) - eta2 (n1-n2)^2}, which collects the Kerr-stage loss,
  the storage loss and the transmission phase noise into the two numbers
  (eta1, eta2);
* a discrete-phase channel on mode a (Poisson mixture of phase rotations),
  standing in for photon losses suffered by the probe in the channel;
* an incoherent admixture of silent-detector states caused by dark counts.

The leading-order fidelity budget splits 1 - F into six named terms, and the
six-inequality feasibility system inverts that budget: given a per-term
allowance eps it bounds the channel loss, storage loss, phase noise,
Kerr-stage loss, probe intensity and nonlinearity errors.

Every channel is evaluated in the coherent-pair span through Gram overlaps.
The exact budget sums its Poisson series as one contraction: one rotated
mode-a Gram per term, stacked, then every term's overlap vector from one
matmul and every quadratic form from one broadcast product and sum.  The
leading-order dark-count term reads the silent-detector coefficient rows,
which depend only on (c, gamma), from a read-only memo, so a second call on
the same target solves no roots.
The dense Fock forms of the discrete-phase channel and the dark-count
mixture, which the tests compare against, live in ``tests/oracles.py``.

Conventions.  Lambda denotes relative intensity loss (I0 - I)/I, so channel
attenuation in dB is 10 log10(Lambda + 1).  lambda_det is the detector
efficiency, zeta the dark-count probability per detector per window, and
eps_ac/eps_bc the relative errors of the two nonlinearity strengths.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .design import TargetCoefficients, semi_success_coeffs, solve_roots
from .entangle import _rot_gram, pair_gram
from .errors import DomainError
from .fock import _nonvanishing_norm2

DB_PER_KM = 0.20
SERIES_TOL = 1e-14
PROBE_CAP = 0.5  # ceiling on |gamma|^2 where the probe inequality allows more
P_FLOOR = 1e-6  # success probability that defines the practical cutoff
BOUND_RTOL = 1e-12  # relative round-off within which a value still meets its bound


@dataclass(frozen=True)
class NoiseParams:
    """Dimensionless nonideality parameters of one protocol run."""

    Lambda: float = 0.0
    Lambda1: float = 0.0
    Lambda2: float = 0.0
    dphi2: float = 0.0
    lambda_det: float = 1.0
    zeta: float = 0.0
    eps_ac: float = 0.0
    eps_bc: float = 0.0

    def __post_init__(self):
        # written so that NaN fails each check
        for name in ("Lambda", "Lambda1", "Lambda2", "dphi2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("eps_ac", "eps_bc"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.lambda_det <= 1:
            raise ValueError(f"lambda_det must lie in (0, 1], got {self.lambda_det}")
        if not 0 <= self.zeta < 1:
            raise ValueError(f"zeta must lie in [0, 1), got {self.zeta}")


@dataclass(frozen=True)
class FidelityBreakdown:
    """Six leading-order loss terms by name and the resulting fidelity F = 1 - sum."""

    terms: dict
    F: float


@dataclass(frozen=True)
class InequalityCheck:
    """One feasibility inequality: value must not exceed bound."""

    name: str
    value: float
    bound: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class FeasibilityReport:
    """All six inequality checks plus the implied channel reach."""

    checks: tuple
    all_pass: bool
    max_attenuation_db: float
    max_distance_km: float


# ---------------------------------------------------------------------------
# stage superoperators


def eta_params(noise: NoiseParams, alpha, beta, chi_ac, chi_bc):
    """Phase drift per photon (eta1) and pair-decay rate (eta2).

    eta1 = Lambda1 (|a|^2 chi_ac + |b|^2 chi_bc)/2 + |a|^2 chi_ac Lambda2
    eta2 = dphi2 + Lambda1 (|a|^2 chi_ac^2 + |b|^2 chi_bc^2)/3
                 + |a|^2 chi_ac^2 Lambda2 / 2
    """
    a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
    eta1 = 0.5 * noise.Lambda1 * (a2 * chi_ac + b2 * chi_bc) + a2 * chi_ac * noise.Lambda2
    eta2 = (
        noise.dphi2
        + noise.Lambda1 * (a2 * chi_ac**2 + b2 * chi_bc**2) / 3.0
        + 0.5 * a2 * chi_ac**2 * noise.Lambda2
    )
    return float(eta1), float(eta2)


def _poisson_weights(s: float):
    """Normalized truncated Poisson weights s^k/k!.

    The terms rise up to the mode k ~ s, so the series is cut only past it, at
    the first term below SERIES_TOL of the full sum e^s.  Raises DomainError
    when e^s is beyond float range (s > ~709.78).
    """
    ws = [1.0]
    if s > 0:
        try:
            total = math.exp(s)
        except OverflowError as err:
            raise DomainError(
                f"Poisson parameter Lambda |gamma|^2 = {s:g}: e^s is beyond float range"
            ) from err
        term, k = 1.0, 0
        while True:
            k += 1
            term *= s / k
            if k > s and term < SERIES_TOL * total:
                break
            ws.append(term)
    w = np.array(ws)
    return w / w.sum()


# ---------------------------------------------------------------------------
# leading-order infidelity terms


@lru_cache(maxsize=256)
def _silent_rows(c: tuple, gamma: complex) -> np.ndarray:
    """Read-only (K, K+1) array whose row j-1 holds the coefficients heralded
    when only detector j stays silent, zero-padded; memoized per (c, gamma)."""
    roots = solve_roots(TargetCoefficients(np.array(c)), gamma)
    rows = np.zeros((roots.K, len(c)), dtype=complex)
    for j in range(1, roots.K + 1):
        cj = semi_success_coeffs(roots, {j}).c
        rows[j - 1, : len(cj)] = cj
    rows.flags.writeable = False
    return rows


def _label_variance(v, M2, M1) -> float:
    """Re<w|M2|w> - |<w|M1|v>|^2, w = n v: <Psi1|g^2|Psi1> - |<Psi1|g|Psi_f>|^2
    for the normalized target v and |Psi1> = sum n v_n |pair_n>, where M1 and
    M2 hold the pair matrix elements of g and g^2 (both the pair Gram if g = 1)."""
    w = np.arange(len(v), dtype=float) * v
    quad = float(np.real(np.conj(w) @ M2 @ w))
    lin = complex(np.conj(w) @ M1 @ v)
    return quad - abs(lin) ** 2


def _chi_error_term(v, G, a2, b2, chi, eps_ac, eps_bc) -> float:
    """Infidelity from nonlinearity-strength errors Delta chi = eps * chi.

    The label variance of g = Dchi_ac n_a + Dchi_bc n_b over the normalized
    target v of pair Gram G.  Coherent matrix elements of n and n^2 reduce
    to Gram entries times powers of z1* z2.
    """
    n = np.arange(len(v), dtype=float)
    d = n[None, :] - n[:, None]  # n - m
    ph = np.exp(1j * chi * d)
    Am = a2 * ph  # <pair_m|n_a|pair_n> / G[m,n]
    Bm = b2 * ph
    da, db = eps_ac * chi, eps_bc * chi
    M1 = (da * Am + db * Bm) * G
    M2 = (da**2 * (Am**2 + Am) + 2 * da * db * Am * Bm + db**2 * (Bm**2 + Bm)) * G
    return _label_variance(v, M2, M1)


def _discrete_phase_term(x: float, s: float) -> float:
    """Probe-decoherence infidelity; closed forms in the two x = |a|^2 chi^2 regimes."""
    if s == 0:
        return 0.0
    low, high = x * (s + s * s), s
    if x <= 0.3:
        return low
    if x >= 3.0:
        return high
    warnings.warn(
        f"|alpha|^2 chi^2 = {x:.3g} sits between the small- and large-"
        "distinguishability closed forms; interpolating log-linearly",
        stacklevel=3,
    )
    w = math.log(x / 0.3) / math.log(10.0)
    return float((1 - w) * low + w * high)


def fidelity_leading_order(
    target: TargetCoefficients, noise: NoiseParams, alpha, beta, gamma, chi
) -> FidelityBreakdown:
    """Six-term leading-order fidelity budget for the all-click state.

    The pair-decay infidelity eta2 * 2<Psi1|P_perp|Psi1> is split over its
    three sources (phase noise, Kerr-stage loss, storage loss) so that
    removing one noise source zeroes exactly its term.  The probe-photon
    phase drift eta1 is taken as compensated by redesigned roots and does
    not appear.  Raises DomainError when the target state vanishes
    (``fock._nonvanishing_norm2``).
    """
    c = np.asarray(target.c, dtype=complex)
    a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
    G_a, G_b = pair_gram(target.K, alpha, beta, chi)
    G = G_a * G_b
    N = _nonvanishing_norm2(float(np.real(np.conj(c) @ G @ c)), c)
    v = c / math.sqrt(N)
    D = 2.0 * _label_variance(v, G, G)  # 2 <Psi1|P_perp|Psi1>

    t_dark = 0.0
    if noise.zeta > 0:
        ck2 = abs(c[-1]) ** 2 / N
        w1 = noise.zeta / (noise.lambda_det * abs(gamma) ** 2)
        ct = _silent_rows(tuple(target.c), complex(gamma))
        # every detector j at once: nt_j = ct_j^H G ct_j, ov_j = c^H G ct_j
        nt = np.real(np.sum(np.sum(np.conj(ct)[:, :, None] * G, axis=1) * ct, axis=1))
        ov = np.sum(ct * (np.conj(c) @ G), axis=1)
        ov2 = np.real(ov * np.conj(ov)) / (N * nt)
        t_dark = float(np.sum(w1 * ck2 * (1.0 - ov2)))

    terms = {
        "dephase": noise.dphi2 * D,
        "kerr_loss": (noise.Lambda1 / 3.0) * (a2 + b2) * chi**2 * D,
        "storage": 0.5 * a2 * chi**2 * noise.Lambda2 * D,
        "chi_err": _chi_error_term(v, G, a2, b2, chi, noise.eps_ac, noise.eps_bc),
        "darkcount": t_dark,
        "discrete_phase": _discrete_phase_term(a2 * chi**2, noise.Lambda * abs(gamma) ** 2),
    }
    budget = FidelityBreakdown(terms, F=1.0 - sum(terms.values()))
    for name, t in terms.items():
        if t > 0.2:
            warnings.warn(
                f"loss term {name} = {t:.3g} > 0.2; the leading-order budget "
                "is outside its validity range",
                stacklevel=2,
            )
    return budget


def superop_pipeline_fidelity(
    target: TargetCoefficients, noise: NoiseParams, alpha, beta, gamma, chi
) -> float:
    """Fidelity from composing the stage maps exactly in the pair representation.

    Order: nonlinearity-error relabeling (actual chi_ac/chi_bc), then the
    discrete-phase mixture on mode a, then the coefficient-pair decay map.
    The reference is the ideal target with the eta1 drift compensated,
    c_n -> c_n e^{i eta1 n}, which is exactly the state a scheme with roots
    rotated by e^{-i eta1} heralds.  All overlaps are closed-form Gram
    entries, so the only approximation left is the Poisson series cutoff.
    Raises DomainError when Lambda |gamma|^2 is too large for that series
    (see _poisson_weights), and when the target, the compensated reference or
    the noisy state (whose pairs sit on the actual-coupling labels) vanishes
    (``fock._nonvanishing_norm2``).
    """
    c = np.asarray(target.c, dtype=complex)
    K = target.K
    n = np.arange(K + 1, dtype=float)
    a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
    chi_ac = chi * (1.0 + noise.eps_ac)
    chi_bc = chi * (1.0 + noise.eps_bc)
    eta1, eta2 = eta_params(noise, alpha, beta, chi_ac, chi_bc)

    d = n[:, None] - n[None, :]
    rho = np.outer(c, np.conj(c)) * np.exp(1j * eta1 * d - eta2 * d * d)

    cb = c * np.exp(1j * eta1 * n)  # compensated reference, nominal labels
    G_a, G_b = pair_gram(K, alpha, beta, chi)
    G_nom = G_a * G_b
    _nonvanishing_norm2(float(np.real(np.conj(c) @ G_nom @ c)), c)
    norm_bra = _nonvanishing_norm2(
        float(np.real(np.conj(cb) @ G_nom @ cb)), c, "compensated reference"
    )
    G_act = _rot_gram(a2, chi_ac * n, chi_ac * n) * _rot_gram(b2, chi_bc * n, chi_bc * n)
    tr = _nonvanishing_norm2(float(np.real(np.sum(rho * G_act.T))), c, "noisy state")

    w = _poisson_weights(noise.Lambda * abs(gamma) ** 2)
    Gb = _rot_gram(b2, chi * n, chi_bc * n)
    # one mode-a Gram per Poisson term k; its ket angles chi_ac n + chi_ac k
    # round differently from chi_ac (n + k), so they are written this way
    bra, ket = chi * n, chi_ac * n
    Ga = np.empty((len(w), K + 1, K + 1), dtype=complex)
    for k in range(len(w)):
        Ga[k] = _rot_gram(a2, bra, ket + chi_ac * k)
    u = np.conj(cb) @ (Ga * Gb)  # u[k, m] = <reference|pair_m rotated by k>
    # q[k] = Re(u_k rho u_k^H) from broadcast products and sums: a stacked
    # matmul or an einsum here pages in kernels that nothing else in the
    # budgets runs, ~0.3 MB more resident memory per process
    q = np.real(np.sum(np.sum(u[:, :, None] * rho, axis=1) * np.conj(u), axis=1))
    return float(np.sum(w * q)) / (norm_bra * tr)


# ---------------------------------------------------------------------------
# success probability and feasibility


def success_probability(
    target: TargetCoefficients,
    gamma,
    lambda_det,
    q: float | None = None,
    norm_squared: float = 1.0,
) -> float:
    """All-click probability with detector efficiency: (q^2 lambda |gamma|^2)^K N / |c_K|^2,
    N = norm_squared the squared norm of the target state under c (1 if c is normalized)."""
    if not 0 < lambda_det <= 1:
        raise ValueError(f"lambda_det must lie in (0, 1], got {lambda_det}")
    K = target.K
    if q is None:
        q = 1.0 / math.sqrt(K)
    ideal = (q**2 * abs(gamma) ** 2) ** K * norm_squared / abs(target.c[-1]) ** 2
    return lambda_det**K * float(ideal)


def attenuation_db(Lambda: float) -> float:
    """Channel attenuation in dB for relative loss Lambda = (I0 - I)/I."""
    return 10.0 * math.log10(Lambda + 1.0)


def db_to_loss(db: float) -> float:
    """Inverse of attenuation_db; DomainError for a negative attenuation (a
    gain, not a loss) and past float range (~3083 dB)."""
    if db < 0:
        raise DomainError(f"attenuation {db:g} dB is negative")
    try:
        return 10.0 ** (db / 10.0) - 1.0
    except OverflowError as err:
        raise DomainError(f"attenuation {db:g} dB is beyond float range") from err


def darkcount_loss_limit(eps: float, lambda_det: float, zeta: float) -> float:
    """Largest channel loss compatible with the dark-count budget: 2 eps^2 lambda/zeta."""
    if zeta == 0:
        return math.inf
    return 2.0 * eps**2 * lambda_det / zeta


def _tightening(K: int) -> float:
    """Factor on the storage, phase-noise, Kerr-loss and nonlinearity-error
    bounds: 1 for K = 1, 1/2 for K >= 2."""
    return 1.0 if K == 1 else 0.5


def _probe_bound(eps: float, x: float, Lambda: float) -> float:
    """Probe-intensity bound eps/(x Lambda) on |gamma|^2; inf where x Lambda is 0.

    The inequality |gamma|^2 Lambda <= eps/x is symmetric, so passing a
    |gamma|^2 as Lambda gives the largest loss that probe intensity allows.
    """
    return math.inf if x * Lambda <= 0 else eps / (x * Lambda)


def feasibility_check(
    noise: NoiseParams, alpha, chi, gamma, eps: float, K: int
) -> FeasibilityReport:
    """Evaluate the six parameter inequalities for a per-term budget eps.

    For K = 1 the bounds read Lambda < 2 eps^2 lambda/zeta, Lambda2 < 2 eps,
    dphi2 < |alpha|^2 chi^2 eps, Lambda1 < 3 eps/2, |gamma|^2 <
    eps/(|alpha|^2 chi^2 Lambda) and eps_ac^2, eps_bc^2 < eps/(2|alpha|^2);
    for K >= 2 conditions 2, 3, 4 and 6 tighten (_tightening).  A value
    within round-off of its bound (BOUND_RTOL) passes, so an operating point
    placed on a bound is feasible.
    """
    if not 0 < eps < 1.0 / 6.0:
        raise ValueError(f"eps must lie in (0, 1/6), got {eps}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    f = _tightening(K)
    a2 = abs(alpha) ** 2
    if a2 == 0:
        raise ValueError("alpha must be nonzero")
    x = a2 * chi**2
    lam_max = darkcount_loss_limit(eps, noise.lambda_det, noise.zeta)
    entries = (
        ("channel_loss", noise.Lambda, lam_max),
        ("storage_loss", noise.Lambda2, 2.0 * eps * f),
        ("phase_noise", noise.dphi2, x * eps * f),
        ("kerr_loss", noise.Lambda1, 1.5 * eps * f),
        ("probe_intensity", abs(gamma) ** 2, _probe_bound(eps, x, noise.Lambda)),
        ("nonlinearity_error", max(noise.eps_ac**2, noise.eps_bc**2), eps * f / (2 * a2)),
    )
    checks = tuple(
        InequalityCheck(
            name, float(v), float(b), float(b - v), bool(v <= b * (1 + BOUND_RTOL))
        )
        for name, v, b in entries
    )
    db = attenuation_db(lam_max) if math.isfinite(lam_max) else math.inf
    return FeasibilityReport(
        checks=checks,
        all_pass=all(ch.passed for ch in checks),
        max_attenuation_db=db,
        max_distance_km=db / DB_PER_KM,
    )


def min_distinguishability(K: int, eps: float, dphi2: float) -> float:
    """Smallest |alpha|^2 chi^2 allowed by the phase-noise inequality."""
    return dphi2 / (eps * _tightening(K))


def probe_ceiling(eps: float, x: float, Lambda: float) -> float:
    """Largest |gamma|^2 allowed by the probe-intensity inequality, capped at PROBE_CAP."""
    return min(_probe_bound(eps, x, Lambda), PROBE_CAP)


def budget_success(
    K: int, Lambda: float, eps: float, lambda_det: float, zeta: float, dphi2: float
) -> float:
    """Closed-form p_K at the probe ceiling and minimum distinguishability.

    Uses q^2 = 1/K and the unit-|c_K| normalization of the design
    polynomial; a concrete target rescales this by norm_squared/|c_K|^2.
    Returns 0 beyond the dark-count loss limit.
    """
    if Lambda > darkcount_loss_limit(eps, lambda_det, zeta):
        return 0.0
    x = min_distinguishability(K, eps, dphi2)
    g2 = probe_ceiling(eps, x, Lambda)
    return (lambda_det * g2 / K) ** K


def practical_cutoff_db(K: int, eps: float, lambda_det: float, dphi2: float) -> float:
    """Attenuation where the budget success probability drops to P_FLOOR.

    Inverts budget_success through the same probe ceiling: the loss at which
    the probe-intensity bound falls to the |gamma|^2 that gives p_K = P_FLOOR.
    Returns 0.0 when that |gamma|^2 exceeds PROBE_CAP, i.e. when even the
    capped p_K at 0 dB is below P_FLOOR.  The dark-count wall, past which
    budget_success is 0, is not applied here; it is reported separately
    (darkcount_loss_limit).
    """
    g2 = K * P_FLOOR ** (1.0 / K) / lambda_det
    if g2 > PROBE_CAP:
        return 0.0
    return attenuation_db(_probe_bound(eps, min_distinguishability(K, eps, dphi2), g2))
