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
mode-a Gram per term, each built in place (``entangle._rot_gram``) at that
term's row of one broadcast array of ket angles and stacked, the stack times
the mode-b Gram in place, then every term's overlap vector from one matmul
and every quadratic form from one broadcast product and sum.  The label
arrays n, n - m and (n - m)^2 are built once per K (``_labels``).

What depends only on the operating point is built once into a bounded memo
of read-only records that both budgets read (``_nominal``): the pair Gram G,
the target's squared norm N with its vanishing check, D = 2<Psi1|P_perp|Psi1>
and the two nonlinearity-error weights A and C, keyed by c's bytes and
strides, |alpha|^2, |beta|^2 and chi.  Strides are in the key because a
reversed view and a contiguous copy of one c round differently in the Gram
products.  The dark-count sum |c_K|^2/N sum_j (1 - |<target|silent_j>|^2) is
recorded under that key plus the target's roots and gamma
(``_dark_factors``), so a budget call solves no roots beyond the target's own
single solve.  Each leading-order term is a closed-form weight of the
NoiseParams times recorded constants, so each call does only the work its
NoiseParams change, and a warm call returns the cold call's values bit for bit.
The dense Fock forms of the discrete-phase channel and the dark-count
mixture, which the tests compare against, live in ``tests/oracles.py``.

Conventions.  Lambda denotes relative intensity loss (I0 - I)/I, so channel
attenuation in dB is 10 log10(Lambda + 1).  lambda_det is the detector
efficiency, zeta the dark-count probability per detector per window, and
eps_ac/eps_bc the relative errors of the two nonlinearity strengths.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .design import TargetCoefficients, _heralded_coeffs, solve_roots
from .entangle import _rot_gram, pair_gram
from .errors import DegenerateLeadingCoefficient, DomainError
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
    """Six leading-order loss terms by name; the fidelity is F = 1 - their sum."""

    terms: dict

    @property
    def F(self) -> float:
        return 1.0 - sum(self.terms.values())


@dataclass(frozen=True)
class InequalityCheck:
    """One feasibility inequality: value must not exceed bound.  A value
    within round-off of its bound (BOUND_RTOL) passes, so an operating point
    placed on a bound is feasible."""

    name: str
    value: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound - self.value

    @property
    def passed(self) -> bool:
        return self.value <= self.bound * (1 + BOUND_RTOL)


@dataclass(frozen=True)
class FeasibilityReport:
    """All six inequality checks plus the implied channel reach."""

    checks: tuple
    max_attenuation_db: float

    @property
    def all_pass(self) -> bool:
        return all(ch.passed for ch in self.checks)

    @property
    def max_distance_km(self) -> float:
        return self.max_attenuation_db / DB_PER_KM


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


@lru_cache(maxsize=64)
def _labels(K: int):
    """Read-only pair labels n = 0..K, their differences d[m, n] = m - n and d^2."""
    n = np.arange(K + 1, dtype=float)
    d = n[:, None] - n[None, :]
    d2 = d * d
    for a in (n, d, d2):
        a.flags.writeable = False
    return n, d, d2


def _check_poisson_mean(s: float) -> None:
    """DomainError unless the Poisson mean s = Lambda |gamma|^2 is finite and >= 0."""
    if not 0 <= s < math.inf:
        raise DomainError(f"Poisson parameter Lambda |gamma|^2 = {s:g} must be finite and >= 0")


def _poisson_weights(s: float):
    """Normalized truncated Poisson weights s^k/k!.

    The terms rise up to the mode k ~ s, so the series is cut only past it, at
    the first term below SERIES_TOL of the full sum e^s.  Raises DomainError
    unless 0 <= s < inf (``_check_poisson_mean``), and when e^s is beyond
    float range (s > ~709.78).
    """
    _check_poisson_mean(s)
    if s == 0:
        return np.ones(1)
    try:
        cut = SERIES_TOL * math.exp(s)
    except OverflowError as err:
        raise DomainError(
            f"Poisson parameter Lambda |gamma|^2 = {s:g}: e^s is beyond float range"
        ) from err
    ws, term, k = [1.0], 1.0, 0
    for k in range(1, int(s) + 1):  # up to the mode every term is kept
        term *= s / k
        ws.append(term)
    while True:
        k += 1
        term *= s / k
        if term < cut:
            break
        ws.append(term)
    w = np.array(ws)
    w /= w.sum()
    return w


# ---------------------------------------------------------------------------
# leading-order infidelity terms


# the operating-point memo: key -> read-only record, oldest dropped past _MEMO_SIZE
_MEMO_SIZE = 256
_MEMO: dict = {}
_MEMO_LOCK = threading.Lock()


def _memoized(key, build):
    """The record of key in _MEMO, made by build() on the first call; a build
    that raises keeps nothing, so a failure is raised again on every call."""
    rec = _MEMO.get(key)
    if rec is None:
        rec = build()
        with _MEMO_LOCK:  # another thread may have recorded key since the get
            if key not in _MEMO:
                if len(_MEMO) >= _MEMO_SIZE:
                    del _MEMO[next(iter(_MEMO))]
                _MEMO[key] = rec
    return rec


def _nominal(c, K, alpha, beta, chi):
    """(key, G, N, D, A, C) of the target c at (alpha, beta, chi), recorded by
    value; pair_gram is asked once per call.  G is the pair Gram, N = c^H G c
    (``fock._nonvanishing_norm2``), D = 2<Psi1|P_perp|Psi1>.  With v = c/sqrt(N),
    w = n v and P = e^{i chi (n-m)} G, A = _label_variance(v, e^{i chi (n-m)} P, P)
    and C = Re w^H P w: the label variance of g = chi (eps_ac n_a + eps_bc n_b)
    is s1^2 A + s2 C for s1 = chi (eps_ac |alpha|^2 + eps_bc |beta|^2) and
    s2 = chi^2 (eps_ac^2 |alpha|^2 + eps_bc^2 |beta|^2)."""
    G_a, G_b = pair_gram(K, alpha, beta, chi)
    key = (c.tobytes(), c.strides, float(abs(alpha) ** 2), float(abs(beta) ** 2), float(chi))

    def build():
        G = G_a * G_b
        N = _nonvanishing_norm2(float(np.real(np.conj(c) @ G @ c)), c)
        v = c / math.sqrt(N)
        n = np.arange(len(c), dtype=float)
        ph = np.exp(1j * chi * (n[None, :] - n[:, None]))
        P, w = ph * G, n * v
        G.flags.writeable = False
        return (G, N, 2.0 * _label_variance(v, G, G), _label_variance(v, ph * P, P),
                float(np.real(np.conj(w) @ P @ w)))

    return (key, *_memoized(key, build))


def _dark_factors(key, c, G, N, target_roots: tuple, gamma: complex) -> float:
    """|c_K|^2/N sum_j miss_j, miss_j = 1 - |<target|silent_j>|^2 over the
    state where only detector j stays silent (``_heralded_coeffs`` of that
    pattern); recorded under the nominal key plus the target's (x_m, l_m)
    roots and gamma."""

    def build():
        roots = solve_roots(target_roots, gamma)
        ct = _heralded_coeffs(roots, ~np.eye(roots.K, dtype=bool))
        # every detector j at once: nt_j = ct_j^H G ct_j, ov_j = c^H G ct_j
        nt = np.real(np.sum(np.sum(np.conj(ct)[:, :, None] * G, axis=1) * ct, axis=1))
        ov = np.sum(ct * (np.conj(c) @ G), axis=1)
        miss = 1.0 - np.real(ov * np.conj(ov)) / (N * nt)
        return float(abs(c[-1]) ** 2 / N * np.sum(miss))

    return _memoized(key + (target_roots, gamma), build)


def _label_variance(v, M2, M1) -> float:
    """Re<w|M2|w> - |<w|M1|v>|^2, w = n v: <Psi1|g^2|Psi1> - |<Psi1|g|Psi_f>|^2
    for the normalized target v and |Psi1> = sum n v_n |pair_n>, where M1 and
    M2 hold the pair matrix elements of g and g^2 (both the pair Gram if g = 1)."""
    w = np.arange(len(v), dtype=float) * v
    quad = float(np.real(np.conj(w) @ M2 @ w))
    lin = complex(np.conj(w) @ M1 @ v)
    return quad - abs(lin) ** 2


def _discrete_phase_term(x: float, s: float) -> float:
    """Probe-decoherence infidelity; closed forms in the two x = |a|^2 chi^2 regimes."""
    _check_poisson_mean(s)
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
    (``fock._nonvanishing_norm2``), when Lambda |gamma|^2 is not finite and
    >= 0, and when dark counts (zeta > 0) meet a gamma with |gamma|^2 = 0,
    where their term zeta/(lambda_det |gamma|^2) has no value.  Only the
    dark-count term reads the target's roots.
    """
    c = np.asarray(target.c, dtype=complex)
    a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
    key, G, N, D, A, C = _nominal(c, target.K, alpha, beta, chi)
    # ahead of the dark-count term, so a non-finite gamma reaches no root
    t_phase = _discrete_phase_term(a2 * chi**2, noise.Lambda * abs(gamma) ** 2)

    t_dark = 0.0
    if noise.zeta > 0:
        g2 = abs(gamma) ** 2
        if g2 == 0:
            raise DomainError(
                f"gamma = {gamma} leaves the dark-count term zeta/(lambda_det "
                "|gamma|^2) undefined; dark counts (zeta > 0) need a nonzero gamma"
            )
        t_dark = noise.zeta / (noise.lambda_det * g2) * _dark_factors(
            key, c, G, N, target.roots, complex(gamma)
        )

    s1 = chi * (noise.eps_ac * a2 + noise.eps_bc * b2)
    s2 = chi**2 * (noise.eps_ac**2 * a2 + noise.eps_bc**2 * b2)
    terms = {
        "dephase": noise.dphi2 * D,
        "kerr_loss": (noise.Lambda1 / 3.0) * (a2 + b2) * chi**2 * D,
        "storage": 0.5 * a2 * chi**2 * noise.Lambda2 * D,
        "chi_err": s1**2 * A + s2 * C,
        "darkcount": t_dark,
        "discrete_phase": t_phase,
    }
    for name, t in terms.items():
        if t > 0.2:
            warnings.warn(
                f"loss term {name} = {t:.3g} > 0.2; the leading-order budget "
                "is outside its validity range",
                stacklevel=2,
            )
    return FidelityBreakdown(terms)


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
    The detectors do not enter: lambda_det and zeta are not read, so F is the
    same for every detector efficiency and dark-count probability (the
    leading-order budget carries the dark-count term alone).
    Raises DomainError unless 0 <= Lambda |gamma|^2 < inf, when it is too
    large for that series (see _poisson_weights), and when the target, the
    compensated reference or the noisy state (whose pairs sit on the
    actual-coupling labels) vanishes (``fock._nonvanishing_norm2``).
    """
    c = np.asarray(target.c, dtype=complex)
    K = target.K
    n, d, d2 = _labels(K)
    a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
    chi_ac = chi * (1.0 + noise.eps_ac)
    chi_bc = chi * (1.0 + noise.eps_bc)
    eta1, eta2 = eta_params(noise, alpha, beta, chi_ac, chi_bc)

    rho = c[:, None] * c.conj() * np.exp(1j * eta1 * d - eta2 * d2)

    cb = c * np.exp(1j * eta1 * n)  # compensated reference, nominal labels
    cb_h = cb.conj()
    G_nom = _nominal(c, K, alpha, beta, chi)[1]
    norm_bra = _nonvanishing_norm2(float((cb_h @ G_nom @ cb).real), c, "compensated reference")
    th, th_a, th_b = chi * n, chi_ac * n, chi_bc * n
    G_act = _rot_gram(a2, th_a, th_a)
    G_act *= _rot_gram(b2, th_b, th_b)
    tr = _nonvanishing_norm2(float((rho * G_act.T).sum().real), c, "noisy state")

    w = _poisson_weights(noise.Lambda * abs(gamma) ** 2)
    Gb = _rot_gram(b2, th, th_b)
    # one mode-a Gram per Poisson term k; its ket angles chi_ac n + chi_ac k
    # round differently from chi_ac (n + k), so they are written this way
    kets = th_a + chi_ac * np.arange(len(w), dtype=float)[:, None]
    Ga = np.empty((len(w), K + 1, K + 1), dtype=complex)
    for k, ket in enumerate(kets):
        Ga[k] = _rot_gram(a2, th, ket)
    Ga *= Gb
    u = cb_h @ Ga  # u[k, m] = <reference|pair_m rotated by k>
    # q[k] = Re(u_k rho u_k^H) from broadcast products and sums: a stacked
    # matmul or an einsum here pages in kernels that nothing else in the
    # budgets runs, ~0.3 MB more resident memory per process
    q = ((u[:, :, None] * rho).sum(1) * u.conj()).sum(1).real
    return float((w * q).sum()) / (norm_bra * tr)


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
    N = norm_squared the squared norm of the target state under c (1 if c is normalized);
    ValueError for K < 1, DegenerateLeadingCoefficient if |c_K|^2 is 0, also by underflow."""
    if not 0 < lambda_det <= 1:
        raise ValueError(f"lambda_det must lie in (0, 1], got {lambda_det}")
    K = target.K
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}: no detector to click")
    ck2 = abs(target.c[-1]) ** 2
    if ck2 == 0:
        raise DegenerateLeadingCoefficient(
            f"|c_K|^2 = 0 (c_K = {target.c[-1]}): no all-click probability; "
            "lower the target degree")
    if q is None:
        q = 1.0 / math.sqrt(K)
    ideal = (q**2 * abs(gamma) ** 2) ** K * norm_squared / ck2
    return lambda_det**K * float(ideal)


def attenuation_db(Lambda: float) -> float:
    """Channel attenuation in dB for relative loss Lambda = (I0 - I)/I;
    DomainError for a negative Lambda (a gain, not a loss) and for NaN."""
    if not Lambda >= 0:
        raise DomainError(f"relative loss Lambda = {Lambda:g} is not >= 0")
    return 10.0 * math.log10(Lambda + 1.0)


def db_to_loss(db: float) -> float:
    """Inverse of attenuation_db; DomainError for a negative attenuation (a
    gain, not a loss), for NaN and past float range (~3083 dB)."""
    if not db >= 0:
        raise DomainError(f"attenuation {db:g} dB is {'negative' if db < 0 else 'not a number'}")
    try:
        return 10.0 ** (db / 10.0) - 1.0
    except OverflowError as err:
        raise DomainError(f"attenuation {db:g} dB is beyond float range") from err


def darkcount_loss_limit(eps: float, lambda_det: float, zeta: float) -> float:
    """Largest channel loss compatible with the dark-count budget: 2 eps^2 lambda/zeta,
    divided in Python floats, so a quotient past float range (a subnormal zeta)
    is inf with no warning."""
    if zeta == 0:
        return math.inf
    return float(2.0 * eps**2 * lambda_det) / float(zeta)


def _tightening(K: int) -> float:
    """Factor on the storage, phase-noise, Kerr-loss and nonlinearity-error
    bounds: 1 for K = 1, 1/2 for K >= 2."""
    return 1.0 if K == 1 else 0.5


def _probe_bound(eps: float, x: float, Lambda: float) -> float:
    """Probe-intensity bound eps/(x Lambda) on |gamma|^2; inf where x Lambda is
    0, and 0 where it is beyond float range.  In Python floats, so a product or
    quotient past float range is inf with no warning.

    The inequality |gamma|^2 Lambda <= eps/x is symmetric, so passing a
    |gamma|^2 as Lambda gives the largest loss that probe intensity allows.
    """
    xl = float(x) * float(Lambda)
    return math.inf if xl <= 0 else float(eps) / xl


def feasibility_check(
    noise: NoiseParams, alpha, chi, gamma, eps: float, K: int
) -> FeasibilityReport:
    """Evaluate the six parameter inequalities for a per-term budget eps.

    For K = 1 the bounds read Lambda < 2 eps^2 lambda/zeta, Lambda2 < 2 eps,
    dphi2 < |alpha|^2 chi^2 eps, Lambda1 < 3 eps/2, |gamma|^2 <
    eps/(|alpha|^2 chi^2 Lambda) and eps_ac^2, eps_bc^2 < eps/(2|alpha|^2);
    for K >= 2 conditions 2, 3, 4 and 6 tighten (_tightening).  Each check
    passes within round-off of its bound (``InequalityCheck.passed``).
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
    db = attenuation_db(lam_max) if math.isfinite(lam_max) else math.inf
    return FeasibilityReport(
        tuple(InequalityCheck(name, float(v), float(b)) for name, v, b in entries), db
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
    Returns 0 beyond the dark-count loss limit; ValueError for K < 1.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
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
    (darkcount_loss_limit).  ValueError for K < 1.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    g2 = K * P_FLOOR ** (1.0 / K) / lambda_det
    if g2 > PROBE_CAP:
        return 0.0
    return attenuation_db(_probe_bound(eps, min_distinguishability(K, eps, dphi2), g2))
