"""Synthesis of elimination-measurement networks from target coefficients.

A target two-mode superposition is encoded by a coefficient vector
(c_0, ..., c_K), or by the roots x_m of sum_n c_n x^n.  The probe amplitudes
that must trigger *no* click are gamma x_m; around those roots this module
builds the complete passive network: the splitter chain that taps the probe,
the reference beams that cancel it arm by arm, and the secondary cascade that
derives every reference beam from one master coherent source.
"""

from __future__ import annotations

import cmath
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateLeadingCoefficient, NoSolution

DEFAULT_DELTA = 1e-3
# np.roots splits an m-fold root into m values a few eps^(1/m) max|x| apart;
# 16 eps^(1/m) held at least 99.8% of them over 2000 random targets per
# m = 2..6, and 16 eps^(1/2) = 2.4e-7 keeps simple roots 1e-6 apart distinct
ROOT_SPLIT = 16.0
# an m-fold root's derivatives of order below m vanish at it to a few eps of
# their round-off scale (at most 4 eps over 3000 random targets per m = 2..6),
# where m simple roots 5e-4 apart, relative, leave at least 2e5 eps
ROOT_ROUNDOFF = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class TargetCoefficients:
    """Unnormalized coefficients (c_0, ..., c_K) of the desired final state,
    and the roots of sum_n c_n x^n: carried exactly by a target built
    ``from_roots``, else solved from c once, when first read."""

    c: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=complex))
        if np.all(c == 0):
            raise ValueError("coefficient vector is identically zero")
        object.__setattr__(self, "c", c)

    @classmethod
    def from_roots(cls, zs) -> TargetCoefficients:
        """The monic target prod_j (x - z_j) (c by ``_poly``) with roots z_j,
        equal values making one root of their count as its multiplicity."""
        zs = np.asarray(zs, dtype=complex)
        target = cls(_poly(zs)[::-1])
        object.__setattr__(target, "roots", tuple(Counter(zs.tolist()).items()))
        return target

    @property
    def K(self) -> int:
        return len(self.c) - 1

    @cached_property
    def roots(self) -> tuple:
        """(x_m, multiplicity l_m) from np.roots.  m values within ROOT_SPLIT
        eps^(1/m) max|x| of each other, and of no other value, are one root at
        their mean if the polynomial has an m-fold root there (``_is_m_fold``),
        the largest such m winning.  DegenerateLeadingCoefficient if c_K
        vanishes."""
        c = self.c
        if abs(c[-1]) <= 1e-12 * np.max(np.abs(c)):
            raise DegenerateLeadingCoefficient(
                f"leading coefficient c_K={c[-1]} vanishes; lower the target degree"
            )
        vals = np.roots(c[::-1])
        dist = np.abs(vals[:, None] - vals)
        scale = ROOT_SPLIT * np.max(np.abs(vals), initial=0.0)
        head = np.arange(len(vals))  # each value's cluster, by its lowest index
        for m in range(2, len(vals) + 1):
            near = dist <= np.finfo(float).eps ** (1 / m) * scale
            alone = (near.sum(1) == m) & ((near[:, None] == near).all(2) | ~near).all(1)
            for i in np.flatnonzero(alone & (near.argmax(1) == np.arange(len(vals)))):
                if _is_m_fold(c[::-1], np.mean(vals[near[i]]), m):
                    head[near[i]] = i
        return tuple((complex(np.mean(vals[head == i])), int(np.sum(head == i)))
                     for i in range(len(vals)) if head[i] == i)


def _poly(roots) -> np.ndarray:
    """np.poly(roots) for a 1-d complex array, without its input checks: the
    same convolutions in the same order, hence the same floats, and real when
    the roots are closed under conjugation (``_conjugate_closed``).  The
    convolutions stay np.convolve's: its dot products may fuse multiply-adds,
    so scalar arithmetic would not round as np.poly does."""
    zs = roots.tolist()
    # a fresh start per call, as np.poly's np.ones(1): np.convolve copies a
    # read-only operand, and the copy's dot loop expands inf roots to other
    # bits; with no roots, asarray gives np.poly's [1+0j]
    a = [1 + 0j]
    for z in zs:
        a = np.convolve(a, [1, -z])
    a = np.asarray(a)
    if _conjugate_closed(zs):
        return a.real.copy()
    return a


def _conjugate_closed(zs) -> bool:
    """Whether the complex values zs, as a multiset, equal their conjugates
    under IEEE ==: np.poly's test, which compares both sorted (±0 equal, and
    any NaN fails), decided by matching each value to an unmatched conjugate."""
    rest = [z.conjugate() for z in zs]
    for z in zs:
        for i, w in enumerate(rest):
            if w == z:
                del rest[i]
                break
        else:
            return False
    return True


def _is_m_fold(p, x, m) -> bool:
    """Whether the polynomial p (highest power first) has an m-fold root near
    x: after two Newton steps on its (m-1)th derivative from x, its
    derivatives of order below m vanish to ROOT_ROUNDOFF of their round-off
    scale, sum_n |p_n^(k)| |x|^n."""
    ders = [np.polyder(p, k) for k in range(m + 1)]
    with np.errstate(all="ignore"):  # a vanishing mth derivative rules x out
        for _ in range(2):
            x = x - np.polyval(ders[m - 1], x) / np.polyval(ders[m], x)
        return all(abs(np.polyval(d, x)) <= ROOT_ROUNDOFF * np.polyval(abs(d), abs(x))
                   for d in ders[:m])


@dataclass(frozen=True)
class EliminationRoots:
    """Roots (gamma_m, multiplicity l_m) of the elimination polynomial."""

    roots: tuple
    gamma: complex

    def __post_init__(self):
        object.__setattr__(
            self, "roots", tuple((complex(z), int(l)) for z, l in self.roots)
        )

    @property
    def K(self) -> int:
        return sum(l for _, l in self.roots)

    def expanded(self) -> np.ndarray:
        """Detector-ordered amplitudes, each root repeated by its multiplicity."""
        return np.array(
            [z for z, l in self.roots for _ in range(l)], dtype=complex
        )


@dataclass(frozen=True)
class RefNet:
    """Splitting cascade turning one master beam into the K reference beams.

    Tp and phi hold the K-1 adjustable transmittances and phase shifts; the
    final element is a mirror (full reflection, zero phase) and is implicit.
    """

    Tp: np.ndarray
    phi: np.ndarray
    master: complex


@dataclass(frozen=True)
class DetectionScheme:
    """Complete synthesized network.  Its inputs are the roots and the
    last-splitter transmittance delta; the splitter chain (T, q), the
    references gtilde and their cascade ref_net are derived on construction,
    also under ``dataclasses.replace``."""

    roots: EliminationRoots
    delta: float
    T: np.ndarray = field(init=False)
    q: float = field(init=False)
    gtilde: np.ndarray = field(init=False)
    ref_net: RefNet = field(init=False)

    def __post_init__(self):
        T, q = transmittances(self.roots.K, self.delta)
        gt = reference_amplitudes(self.roots, T, q)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "gtilde", gt)
        object.__setattr__(self, "ref_net", reference_network(gt))

    @property
    def K(self) -> int:
        return self.roots.K


def solve_roots(target, gamma) -> EliminationRoots:
    """A target's roots, or gamma-free (x_m, l_m) pairs, as probe amplitudes
    gamma x_m, sorted by ascending complex argument, then modulus, which
    fixes the detector indexing."""
    gamma = complex(gamma)
    if gamma == 0:
        raise ValueError("probe amplitude gamma must be nonzero")
    roots = target.roots if isinstance(target, TargetCoefficients) else target
    vals = gamma * np.array([x for x, _ in roots], dtype=complex)
    scaled = sorted(zip(vals, (l for _, l in roots)),
                    key=lambda zl: (np.angle(zl[0]), abs(zl[0])))
    return EliminationRoots(tuple(scaled), gamma)


def transmittances(K: int, delta: float):
    """Closed-form splitter chain: equal probe tap q into each detector arm.

    T_j = ((K-j-1)(1-delta)+1)/((K-j)(1-delta)+1) for j < K, T_K = delta,
    and q = (K + delta/(1-delta))^{-1/2}.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    j = np.arange(1, K + 1)
    T = ((K - j - 1) * (1 - delta) + 1) / ((K - j) * (1 - delta) + 1)
    T[-1] = delta
    q = 1.0 / np.sqrt(K + delta / (1 - delta))
    return T, float(q)


def reference_amplitudes(roots: EliminationRoots, T, q) -> np.ndarray:
    """Reference beam amplitudes that cancel each root arm by arm.

    Each splitter j mixes the through-going probe with a fresh reference
    gtilde_j so that a probe entering at gamma_x leaves arm j carrying exactly
    i q (gamma_x - gamma_j); the recurrence tracks the reference part riding
    along the probe line.  NoSolution at the first amplitude beyond float
    range.
    """
    gam = roots.expanded()
    theta = np.arccos(np.sqrt(np.asarray(T, dtype=float)))
    gt = np.empty(len(gam), dtype=complex)
    carried = 0j
    # an overflow shows as the non-finite amplitude checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(len(gam)):
            g = (-1j * q * gam[j] - 1j * carried * np.sin(theta[j])) / np.cos(theta[j])
            if not cmath.isfinite(g):
                raise NoSolution(
                    f"reference amplitude gtilde_{j + 1} is beyond float range; "
                    "no reference beam exists"
                )
            gt[j] = g
            carried = carried * np.cos(theta[j]) + 1j * g * np.sin(theta[j])
    return gt


def reference_network(gtilde) -> RefNet:
    """Derive all reference beams from one master via a splitting cascade.

    Beam j picks up one reflection, j-1 transmissions, and a phase shifter:
    gtilde_j = i cos(th'_1)...cos(th'_{j-1}) sin(th'_j) e^{i phi_j} master.
    Solved in closed form from the energy ladder R_j = sum_{m>=j} |gtilde_m|^2;
    arms with zero amplitude get phi_j = 0 by convention.  NoSolution when
    every gtilde vanishes or R_1 is beyond float range.
    """
    gt = np.asarray(gtilde, dtype=complex)
    K = len(gt)
    with np.errstate(over="ignore"):  # a power past float range is raised below
        mag2 = np.abs(gt) ** 2
        R = np.cumsum(mag2[::-1])[::-1]
    if R[0] == 0:
        raise NoSolution("all reference amplitudes vanish; no master beam exists")
    if not R[0] < np.inf:
        raise NoSolution(
            "the reference beams' total power sum |gtilde_j|^2 is beyond float range; "
            "no master beam exists"
        )
    nz = np.nonzero(np.abs(gt))[0]
    ref = gt[nz[-1]]

    Tp = np.ones(K)  # 1 where nothing is left to split off
    phi = np.zeros(K)
    left = R != 0
    Tp[left] = 1.0 - mag2[left] / R[left]
    lit = left & (np.abs(gt) > 0)
    phi[lit] = np.angle(gt[lit] / ref)
    master = ref * np.sqrt(R[0]) / (1j * abs(ref))
    return RefNet(Tp[: K - 1], phi[: K - 1], complex(master))


def probe_affine(scheme: DetectionScheme):
    """(mu, nu) of the end-of-chain probe map gamma_x -> mu gamma_x + nu."""
    K = scheme.K
    mu = np.sqrt(1.0 - K * scheme.q**2)
    nu = (
        np.sqrt((1.0 - scheme.delta) / scheme.delta)
        * scheme.q
        * np.sum(scheme.roots.expanded())
    )
    return float(mu), complex(nu)


def coeffs_from_photon_target(s: int, K: int, chi: float) -> TargetCoefficients:
    """Coefficients whose elimination roots are gamma e^{i chi s'} for s' != s.

    The surviving joint photon numbers then satisfy n_a + n_b = s with all
    other totals from 0..K eliminated.  Built from those roots, c_K = 1.
    """
    if not 0 <= s <= K:
        raise ValueError(f"need 0 <= s <= K, got s={s}, K={K}")
    others = [np.exp(1j * chi * sp) for sp in range(K + 1) if sp != s]
    return TargetCoefficients.from_roots(others)


def semi_success_coeffs(roots: EliminationRoots, missing) -> TargetCoefficients:
    """Coefficients of the state heralded when some detectors stay silent.

    missing holds 1-based detector indices (canonical root order, degenerate
    roots occupying consecutive slots).  The result is the monic polynomial
    over the still-eliminated roots, degree K - |missing|.
    """
    missing = set(missing)
    K = roots.K
    bad = [j for j in missing if not 1 <= j <= K]
    if bad:
        raise ValueError(f"detector indices {bad} outside 1..{K}")
    gam = roots.expanded()
    kept = [gam[j - 1] / roots.gamma for j in range(1, K + 1) if j not in missing]
    return TargetCoefficients.from_roots(kept)


def _heralded_coeffs(roots: EliminationRoots) -> np.ndarray:
    """Rows of ``semi_success_coeffs`` of each click pattern's silent detectors,
    byte for byte, zero-padded to K + 1, in ``run_full_protocol``'s record
    order.  Going breadth-first over the detectors, each prefix polynomial is
    multiplied by (x - x_j) for its click child and kept for its silent one:
    ``_poly``'s convolutions in its order, and its real rule on each row."""
    x = roots.expanded() / roots.gamma
    rows = [np.ones(1, dtype=complex)]
    for z in x:
        rows = [r for p in rows for r in (np.convolve(p, [1, -z]), p)]
    c = np.zeros((len(rows), len(x) + 1), dtype=complex)
    for row, p in zip(c, rows):
        row[: len(p)] = p[::-1]
    # a row's roots are closed under conjugation when every value occurs
    # among them as often as its conjugate does
    clicked = 1 - (np.arange(len(rows))[:, None] >> np.arange(len(x))[::-1] & 1)
    excess = (x[:, None] == x).astype(int) - (x[:, None] == x.conj())
    c.imag[~(clicked @ excess).any(1)] = 0.0
    return c


def build_scheme(
    target: TargetCoefficients, gamma, delta: float = DEFAULT_DELTA
) -> DetectionScheme:
    """Full synthesis: roots, splitter chain, references, reference cascade."""
    return DetectionScheme(solve_roots(target, gamma), float(delta))


# ---------------------------------------------------------------------------
# export


def _c2j(z):
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def to_json(scheme: DetectionScheme) -> str:
    """Serialize a scheme; floats keep full double precision (17 digits)."""
    doc = {
        "K": scheme.K,
        "delta": scheme.delta,
        "gamma": _c2j(scheme.roots.gamma),
        "roots": [{**_c2j(z), "mult": l} for z, l in scheme.roots.roots],
        "T": [float(t) for t in scheme.T],
        "q": scheme.q,
        "gtilde": [_c2j(g) for g in scheme.gtilde],
        "ref_net": {
            "Tp": [float(t) for t in scheme.ref_net.Tp],
            "phi": [float(p) for p in scheme.ref_net.phi],
            "gtilde_master": _c2j(scheme.ref_net.master),
        },
    }
    return json.dumps(doc, indent=2)
