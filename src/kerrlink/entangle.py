"""Entanglement entropy of two-mode coherent superpositions.

States of the form sum_n c_n |alpha e^{i chi n}> |beta e^{i chi n}> live in a
(K+1)-dimensional span of nonorthogonal coherent vectors.  The reduced-state
spectrum is computed directly in that span through the Gram matrices, with no
Fock truncation; a truncated-Fock partial trace serves as an oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.optimize import minimize

from .design import EliminationRoots, TargetCoefficients, semi_success_coeffs
from .errors import DomainError, NonConvergence, ShapeMismatch

EIG_FLOOR = 1e-14


@dataclass(frozen=True)
class GramPair:
    """Gram matrices of {|alpha e^{i chi n}>} and {|beta e^{i chi n}>}, n=0..K."""

    G_a: np.ndarray
    G_b: np.ndarray


@dataclass(frozen=True)
class EntanglementReport:
    """Entropy in bits, reduced-state spectrum, and (if optimized) the c vector."""

    E: float
    schmidt: np.ndarray
    c_opt: np.ndarray | None = None


def _rot_gram(z2, bra_angles, ket_angles) -> np.ndarray:
    """G[m, n] = <|z| e^{i bra[m]}  |  |z| e^{i ket[n]}> for |z|^2 = z2 (angle arrays)."""
    ph = ket_angles[None, :] - bra_angles[:, None]
    return np.exp(z2 * (np.exp(1j * ph) - 1))


def pair_gram(K: int, alpha, beta, chi) -> GramPair:
    th = chi * np.arange(K + 1)
    return GramPair(_rot_gram(abs(alpha) ** 2, th, th), _rot_gram(abs(beta) ** 2, th, th))


def entropy_of_coefficients(c, alpha, beta, chi, floor=EIG_FLOOR) -> EntanglementReport:
    """Entropy of sum_n c_n |alpha e^{i chi n}>|beta e^{i chi n}> across the modes.

    The reduced operator of mode a in the coherent span is X[n, m] =
    c_n c_m* <beta_m|beta_n>; whitening with G_a^{1/2} turns its spectrum into
    the Schmidt weights.  Eigenvalues below ``floor`` are discarded (the span
    is heavily ill-conditioned when the constituent states nearly coalesce).
    """
    c = np.asarray(c, dtype=complex)
    K = len(c) - 1
    g = pair_gram(K, alpha, beta, chi)
    norm2 = float(np.real(np.conj(c) @ ((g.G_a * g.G_b) @ c)))
    X = np.outer(c, np.conj(c)) * g.G_b.T
    w, v = np.linalg.eigh(g.G_a)
    w = np.where(w > floor, w, 0.0)
    s = (v * np.sqrt(w)) @ v.conj().T
    lam = np.real(np.linalg.eigvalsh(s @ X @ s)) / norm2
    lam = np.sort(lam[lam > floor])[::-1]
    return EntanglementReport(float(-np.sum(lam * np.log2(lam))), lam)


def entropy_of_target(
    target: TargetCoefficients, alpha, beta, chi
) -> EntanglementReport:
    """Entropy of the state encoded by a target coefficient vector."""
    return entropy_of_coefficients(target.c, alpha, beta, chi)


def semi_success_entropy(
    target: TargetCoefficients, roots: EliminationRoots, missing, alpha, beta, chi
) -> EntanglementReport:
    """Entropy of the state heralded when the given detectors stay silent."""
    ctil = semi_success_coeffs(target, roots, missing)
    return entropy_of_coefficients(ctil.c, alpha, beta, chi)


def schmidt_entropy(state, floor=EIG_FLOOR) -> float:
    """Entanglement entropy (bits) of a pure two-mode Fock-space state."""
    if len(state.modes) != 2:
        raise ShapeMismatch(f"need exactly two modes, got {state.modes}")
    sv = np.linalg.svd(state.amplitudes, compute_uv=False)
    lam = sv**2 / np.sum(sv**2)
    lam = lam[lam > floor]
    return float(-np.sum(lam * np.log2(lam)))


def weak_entanglement_estimate(alpha, gamma, chi) -> float:
    """Binary-entropy estimate h(chi^2 |alpha|^2 |gamma|^2) of the pre-measurement
    probe-induced entanglement; valid only deep in the weak-coupling regime."""
    x = chi**2 * abs(alpha) ** 2 * abs(gamma) ** 2
    if not 0 < x < 1:
        raise DomainError(f"argument chi^2|alpha|^2|gamma|^2 = {x:g} outside (0, 1)")
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def optimize_coefficients(
    K: int, alpha, beta, chi, restarts: int = 20, seed: int = 0
) -> EntanglementReport:
    """Maximize the entropy over c with the gauge c_0 = 1.

    Direct-search (Nelder-Mead) from structured plus random starting points:
    alternating-binomial patterns with the known per-index phase twists cover
    the weak-coupling optimum, flat alternating patterns the well-separated
    regime, root patterns split symmetrically in angle the transition, and
    seeded random vectors the rest.  The winner is then refined in root space
    (per-root modulus and angle), which stays well conditioned in the
    weak-coupling regime where the coefficient parametrization squeezes the
    optimum into a narrow curved valley.  Raises NonConvergence (with the
    best report attached) if no restart converges.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    a2b2 = abs(alpha) ** 2 + abs(beta) ** 2
    n = np.arange(1, K + 1)
    sigma = abs(chi) * np.sqrt(a2b2)
    mu = np.arange(K) - (K - 1) / 2.0

    def unpack(x):
        return np.concatenate(([1.0 + 0j], x[:K] + 1j * x[K:]))

    def neg_entropy(x):
        return -entropy_of_coefficients(unpack(x), alpha, beta, chi).E

    starts = []
    for theta in (a2b2 * np.sin(chi), a2b2 * np.sin(chi) + chi / 2, a2b2 * chi):
        twist = np.exp(-1j * theta * n)
        binom = np.array([comb(K, int(k)) for k in n], dtype=float)
        starts.append(((-1.0) ** n) * binom * twist)
        starts.append(((-1.0) ** n) * twist)
        if K >= 2:
            # unit-modulus roots fanned out around the twist angle; the fan
            # width sqrt((|alpha|^2+|beta|^2)) chi matches the known K=2
            # weak-coupling optimum at f = 1
            for f in (0.7, 1.5):
                roots = np.exp(1j * (theta + 2.0 * f * sigma * mu))
                c = np.poly(roots)[::-1]
                starts.append((c / c[0])[1:])
    starts = starts[:restarts]
    rng = np.random.default_rng(seed)
    while len(starts) < restarts:
        starts.append(rng.normal(size=K) + 1j * rng.normal(size=K))

    best = None
    converged = False
    for c_tail in starts:
        x0 = np.concatenate((np.real(c_tail), np.imag(c_tail)))
        res = minimize(
            neg_entropy,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 6000, "maxfev": 9000},
        )
        converged = converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    # one polishing pass from the winner
    res = minimize(
        neg_entropy,
        best.x,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 6000, "maxfev": 9000},
    )
    converged = converged or bool(res.success)
    if res.fun < best.fun:
        best = res
    c_opt = unpack(best.x)

    # stage two: refine in root space from the winner's roots and from the
    # fanned unit-modulus patterns
    def neg_entropy_roots(params):
        roots = params[:K] * np.exp(1j * params[K:])
        c = np.poly(roots)[::-1]
        if not np.all(np.isfinite(c)):
            return 0.0
        return -entropy_of_coefficients(c, alpha, beta, chi).E

    cands = []
    poly_hi = c_opt[::-1]
    if abs(poly_hi[0]) > 1e-9 * np.max(np.abs(poly_hi)):
        r = np.roots(poly_hi)
        if len(r) == K and np.all(np.abs(r) > 1e-9) and np.all(np.abs(r) < 1e9):
            cands.append(np.concatenate((np.abs(r), np.angle(r))))
    theta0 = a2b2 * np.sin(chi)
    for f in (0.7, 1.5):
        cands.append(np.concatenate((np.ones(K), theta0 + 2.0 * f * sigma * mu)))
    best_r = None
    for p0 in cands:
        res = minimize(
            neg_entropy_roots,
            p0,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 20000, "maxfev": 30000},
        )
        converged = converged or bool(res.success)
        if best_r is None or res.fun < best_r.fun:
            best_r = res
    if best_r is not None and best_r.fun < best.fun:
        roots = best_r.x[:K] * np.exp(1j * best_r.x[K:])
        c = np.poly(roots)[::-1]
        if abs(c[0]) > 1e-12 * np.max(np.abs(c)):
            c = c / c[0]
        c_opt = c
    rep = entropy_of_coefficients(c_opt, alpha, beta, chi)
    report = EntanglementReport(rep.E, rep.schmidt, c_opt)
    if not converged:
        raise NonConvergence(
            f"no restart converged for K={K}; best E = {report.E:.6f}", best=report
        )
    return report
