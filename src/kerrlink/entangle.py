"""Entanglement entropy of two-mode coherent superpositions.

States of the form sum_n c_n |alpha e^{i chi n}> |beta e^{i chi n}> live in a
(K+1)-dimensional span of nonorthogonal coherent vectors.  The reduced-state
spectrum is computed directly in that span through the Gram matrices, with no
Fock truncation; the truncated-Fock reduction in ``tests/oracles.py`` serves
as its oracle.  Each per-mode Gram, and its square root when an entropy asks
for one, is built once per (K, |z|^2, chi) and shared read-only, so an
optimizer run or a noise budget that revisits a key builds nothing.

An entropy evaluation keeps a fixed order of float operations, and the
optimizer expands roots into coefficients with ``design._poly``, np.poly's
convolutions in np.poly's order (the references in ``tests/oracles.py`` pin
both bit for bit), so that scan artifacts are reproducible byte for byte.
The optimizer's Nelder-Mead search is kerrlink's own (``minimize``), with
scipy's as its test oracle, so this module loads no scipy and scan artifacts
do not depend on the installed scipy's optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .design import _poly
from .errors import DomainError, NonConvergence, ShapeMismatch
from .fock import _nonvanishing_norm2

EIG_FLOOR = 1e-14


@dataclass(frozen=True)
class EntanglementReport:
    """Entropy in bits, reduced-state spectrum, and (if optimized) the c vector
    and its K roots: ``optimize_coefficients`` always fills both, with c_opt
    np.poly(roots) reversed and gauged by c_0."""

    E: float
    schmidt: np.ndarray
    c_opt: np.ndarray | None = None
    roots: np.ndarray | None = None


def _rot_gram(z2, bra_angles, ket_angles) -> np.ndarray:
    """G[m, n] = <|z| e^{i bra[m]}  |  |z| e^{i ket[n]}> for |z|^2 = z2 (angle arrays)."""
    ph = ket_angles[None, :] - bra_angles[:, None]
    return np.exp(z2 * (np.exp(1j * ph) - 1))


@lru_cache(maxsize=256)
def _mode_gram(K: int, z2: float, chi: float) -> np.ndarray:
    """Read-only Gram of {|z e^{i chi n}>}, n=0..K, for |z|^2 = z2; memoized."""
    th = chi * np.arange(K + 1)
    G = _rot_gram(z2, th, th)
    G.flags.writeable = False
    return G


@lru_cache(maxsize=256)
def _gram_root(K: int, z2: float, chi: float) -> np.ndarray:
    """Read-only square root of _mode_gram(K, z2, chi), its eigenvalues below
    EIG_FLOOR set to 0; memoized, and built only when an entropy asks."""
    w, v = np.linalg.eigh(_mode_gram(K, z2, chi))
    w = np.where(w > EIG_FLOOR, w, 0.0)
    s = (v * np.sqrt(w)) @ v.conj().T
    s.flags.writeable = False
    return s


def pair_gram(K: int, alpha, beta, chi):
    """(G_a, G_b): Grams of {|alpha e^{i chi n}>} and {|beta e^{i chi n}>}, n=0..K.

    Their elementwise product is the Gram of the K+1 coherent pairs.  Both
    are shared, read-only arrays.
    """
    return (_mode_gram(K, float(abs(alpha) ** 2), float(chi)),
            _mode_gram(K, float(abs(beta) ** 2), float(chi)))


def _bits(lam) -> float:
    """Shannon entropy (bits) of the weights lam; +0.0, not -0.0, for lam = [1]."""
    return float(0.0 - (lam * np.log2(lam)).sum())


def entropy_of_coefficients(c, alpha, beta, chi) -> EntanglementReport:
    """Entropy of sum_n c_n |alpha e^{i chi n}>|beta e^{i chi n}> across the modes.

    The reduced operator of mode a in the coherent span is X[n, m] =
    c_n c_m* <beta_m|beta_n>; whitening with G_a^{1/2} turns its spectrum into
    the Schmidt weights.  Eigenvalues below EIG_FLOOR are discarded (the span
    is heavily ill-conditioned when the constituent states nearly coalesce).
    Raises DomainError when the state vanishes (``fock._nonvanishing_norm2``).
    """
    c = np.asarray(c, dtype=complex)
    cc = c.conj()
    K = len(c) - 1
    G_a, G_b = pair_gram(K, alpha, beta, chi)
    norm2 = _nonvanishing_norm2(float((cc @ ((G_a * G_b) @ c)).real), c)
    X = c[:, None] * cc * G_b.T
    s = _gram_root(K, float(abs(alpha) ** 2), float(chi))
    # eigvalsh returns real eigenvalues in ascending order, and norm2 > 0
    lam = np.linalg.eigvalsh(s @ X @ s) / norm2
    lam = lam[lam > EIG_FLOOR][::-1]
    return EntanglementReport(_bits(lam), lam)


def schmidt_entropy(state) -> float:
    """Entanglement entropy (bits) of a pure two-mode Fock-space state."""
    if len(state.modes) != 2:
        raise ShapeMismatch(f"need exactly two modes, got {state.modes}")
    return float(_schmidt_entropies(state.amplitudes[None])[0])


def _schmidt_entropies(amps) -> np.ndarray:
    """``schmidt_entropy`` of each two-mode amplitude matrix of the stack amps,
    from one SVD of the stack; Schmidt weights at or below EIG_FLOOR are
    dropped (taken as 1, which adds no bits)."""
    sv = np.linalg.svd(amps, compute_uv=False)
    lam = sv**2 / np.sum(sv**2, axis=-1, keepdims=True)
    lam = np.where(lam > EIG_FLOOR, lam, 1.0)
    # _bits row by row; _bits itself stays the optimizer's lean 1-d form
    return 0.0 - (lam * np.log2(lam)).sum(-1)


class _MaxFev(Exception):
    """The evaluation budget of a ``minimize`` search is spent."""


def minimize(fun, x0, *, xatol, fatol, maxiter, maxfev):
    """Nelder-Mead search for a minimum of fun from x0: kerrlink's own port
    of scipy's non-adaptive, unbounded ``minimize(method="Nelder-Mead")``,
    its test oracle, which it matches bit for bit in x, fun, nfev and success
    at the same options.  The simplex is kept as lists of floats, ordered by
    ``np.argsort`` of its values as in scipy (ties and NaNs included), and fun
    sees each vertex as a new 1-d array.  A search stops at maxfev at once,
    inside an iteration or a shrink; it succeeds unless maxfev or maxiter was
    reached.  Returns an object with ``x``, ``fun`` (the least value of the
    final simplex), ``nfev`` and ``success``.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nfev = 0

    def f(v):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFev
        nfev += 1
        return float(fun(np.array(v)))

    def ray(t):
        # (1 + t) xbar - t worst: reflection, expansion, outside and
        # inside contraction at t = rho, rho chi, psi rho and -psi
        return [(1 + t) * b - t * w for b, w in zip(xbar, sim[-1])]

    def ordered():
        order = np.argsort(fsim)
        return [sim[i] for i in order], [fsim[i] for i in order]

    x0 = [float(v) for v in x0]
    N = len(x0)
    sim = [x0] + [x0[:k] + [(1 + 0.05) * v if v != 0 else 0.00025] + x0[k + 1:]
                  for k, v in enumerate(x0)]
    fsim = [np.inf] * (N + 1)
    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _MaxFev:
        pass
    sim, fsim = ordered()

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, sim[0]))
                    and all(abs(fsim[0] - g) <= fatol for g in fsim[1:])):
                break
            xbar = [0.0] * N
            for v in sim[:-1]:
                xbar = [s + a for s, a in zip(xbar, v)]
            xbar = [s / N for s in xbar]
            xr = ray(rho)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = ray(rho * chi)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                xc = ray(psi * rho if outside else -psi)
                fxc = f(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, N + 1):
                        sim[j] = [a + sigma * (b - a) for a, b in zip(sim[0], sim[j])]
                        fsim[j] = f(sim[j])
            iterations += 1
        except _MaxFev:
            pass
        sim, fsim = ordered()

    return SimpleNamespace(x=np.array(sim[0]), fun=np.min(fsim), nfev=nfev,
                           success=not (nfev >= maxfev or iterations >= maxiter))


def optimize_coefficients(
    K: int, alpha, beta, chi, restarts: int = 20, seed: int = 0
) -> EntanglementReport:
    """Maximize the entropy over c with the gauge c_0 = 1.

    One Nelder-Mead search per start in root space: each of the K roots of
    c(z) = sum_n c_n z^n as a modulus and an angle.  Structured starts come
    first, per phase twist theta: the K-fold root e^{i theta} (alternating
    binomial c, weak coupling), -e^{i theta} w over the K non-unit (K+1)-th
    roots of unity w (flat alternating c, separated components) and unit
    roots fanned about theta (the transition).  Repeated root sets are
    dropped; seeded random roots fill up to ``restarts``.  A point replaces
    the best only by a margin, so a flat optimum keeps the first start's
    phase.  Raises NonConvergence (with the best report attached) if no
    start converges.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    a2b2 = abs(alpha) ** 2 + abs(beta) ** 2
    fan = 2.0 * abs(chi) * np.sqrt(a2b2) * (np.arange(K) - (K - 1) / 2.0)
    unity = np.exp(2j * np.pi * np.arange(1, K + 1) / (K + 1))

    def neg_entropy(params):
        c = _poly(params[:K] * np.exp(1j * params[K:]))[::-1]
        if not np.isfinite(c).all():
            return 0.0
        try:
            return -entropy_of_coefficients(c, alpha, beta, chi).E
        except DomainError:  # a vanishing state: the worst value, as above
            return 0.0

    def candidates():
        for theta in (a2b2 * np.sin(chi), a2b2 * np.sin(chi) + chi / 2, a2b2 * chi):
            yield np.full(K, np.exp(1j * theta))
            yield -np.exp(1j * theta) * unity
            # the fan width sqrt(|alpha|^2+|beta|^2) chi matches the known
            # K=2 weak-coupling optimum at f = 1
            for f in (0.7, 1.5):
                yield np.exp(1j * (theta + f * fan))
        rng = np.random.default_rng(seed)
        while True:
            yield rng.normal(size=K) + 1j * rng.normal(size=K)

    starts, polys = [], []
    for roots in candidates():
        p = _poly(roots)
        if not any(np.allclose(p, q, rtol=0, atol=1e-12) for q in polys):
            starts.append(roots)
            polys.append(p)
        if len(starts) == restarts:
            break

    opts = {"xatol": 1e-9, "fatol": 1e-12, "maxiter": 6000, "maxfev": 9000}
    best_x, best_f, converged = None, np.inf, False
    for roots in starts:
        x0 = np.concatenate((np.abs(roots), np.angle(roots)))
        res = minimize(neg_entropy, x0, **opts)
        converged = converged or bool(res.success)
        # a start or its search result takes over only by a margin
        for x, f in ((x0, neg_entropy(x0)), (res.x, res.fun)):
            if f < best_f - 1e-12:
                best_x, best_f = x, f
    roots = best_x[:K] * np.exp(1j * best_x[K:])
    c = _poly(roots)[::-1]
    if abs(c[0]) > 1e-12 * np.max(np.abs(c)):
        c = c / c[0]
    rep = entropy_of_coefficients(c, alpha, beta, chi)
    report = EntanglementReport(rep.E, rep.schmidt, c, roots)
    if not converged:
        raise NonConvergence(
            f"no restart converged for K={K}; best E = {report.E:.6f}", best=report
        )
    return report
