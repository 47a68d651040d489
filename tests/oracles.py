"""Reference implementations the tests compare the library against.

The library simulates the scheme one way: the blocked coherent-label route
of ``protocol.run_full_protocol`` and the coherent-pair span of ``entangle``
and ``noise``.  This module keeps the independent, literal routes that check
it, and nothing in ``src/`` imports it:

* the truncated-Fock gate layer (product states, cross-Kerr phases,
  beamsplitters, displacements, click projection, reduction and partial
  trace), which raises ``TruncationOverflow`` instead of truncating silently;
* the monolithic and displaced truncated-Fock protocol routes
  (``_run_fock_pipeline``), still bounded by ``protocol.DENSE_BYTES_LIMIT``
  and normalizing their records themselves (``_oracle_record``),
  and the leading-order heralded state written as a product of elimination
  factors (``build_target_by_elimination``);
* the rotated-label Gram as its two-line formula (``rot_gram_formula``),
  which ``entangle._rot_gram`` builds in place and must match bit for bit;
* the dense Fock forms of the discrete-phase channel and the dark-count
  mixture, which ``noise`` evaluates through Gram overlaps, and the two
  budgets' loops that ``noise`` writes as single contractions: the exact
  budget's Poisson series term by term (``pipeline_fidelity_per_term``)
  and the leading-order dark-count term detector by detector
  (``darkcount_term_per_detector``), and the leading-order chi-error term
  from its per-call moment matrices (``_chi_error_term``), which ``noise``
  evaluates as two recorded weights of the operating point;
* a bare probe through the synthesized splitter chain in truncated Fock
  space (``probe_cascade``), and the full (theta', phi) arrays of the
  reference cascade, which the tests drive through the beamsplitter gate;
* the operator path (``operator_path_state``): the per-detector polynomial
  operators (q^n/sqrt(n!)) (c - gamma_j)^n applied branch by branch and
  summed over exact photon counts, written without the blocked route's
  branch labels, kernel or assembly;
* the whole-matrix form of ``DensOp``'s Hermiticity test, which the
  library does tile by tile (``hermitian_at_once``);
* the kernel of one click pattern built on its own, factor by factor
  (``_pattern_kernel``) from its own coherent overlaps (``_coh_overlap``),
  which ``run_full_protocol`` forms for all 2^K patterns at once as prefix
  products over shared per-arm factors and must match bit for bit;
* the dense (a, b) forms of what the library keeps over the total photon
  number s = n_a + n_b: the heralded operator as an index gather over
  s (``gathered_rho``), a block record's dense view built through it
  (``dense_view``), the block norms N_s summed over the (a, b) grid
  (``block_norms``), and the analytic target on the (a, b) grid
  (``dense_target_state``);
* the entanglement objective as first written (``entropy_outer_sorted``:
  np.outer, np.real on the eigenvalues and a descending re-sort) and the
  root expansion by np.poly (``poly_by_numpy``), which the lean objective in
  ``entangle`` and the expansion ``design._poly`` must match bit for bit;
* the rows of ``kerrlink simulate`` computed pattern by pattern through the
  single-state metrics (``simulate_rows_per_pattern``), which
  ``protocol._metric_rows`` computes as stacks over all patterns at once;
* the trace distance between two density operators.
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm
from scipy.special import factorial

from kerrlink.design import (
    RefNet,
    TargetCoefficients,
    probe_affine,
    semi_success_coeffs,
    solve_roots,
)
from kerrlink.entangle import (
    EIG_FLOOR,
    EntanglementReport,
    _gram_root,
    pair_gram,
    schmidt_entropy,
)
from kerrlink.errors import DomainError, KerrlinkError, UnknownMode
from kerrlink.fock import (
    P_NEGLIGIBLE,
    DensOp,
    FockVector,
    TruncationSpec,
    _check_same,
    _nonvanishing_norm2,
    coherent_amplitudes,
    fidelity,
    min_cutoff,
)
from kerrlink.noise import _label_variance, _poisson_weights, eta_params
from kerrlink.protocol import (
    OutcomeRecord,
    ProtocolParams,
    _check_budget,
    all_click_record,
    analytic_target_state,
    dominant_eigenstate,
    lift_to_modes,
    make_protocol,
    run_full_protocol,
)


class TruncationOverflow(KerrlinkError):
    """A gate pushed non-negligible population against the Fock cutoff."""


# ---------------------------------------------------------------------------
# truncated-Fock gate layer


def product_state(modes, single_mode_vectors, trunc) -> FockVector:
    """Tensor product of per-mode amplitude vectors, in the given mode order."""
    amp = np.array([1.0 + 0j])
    for v in single_mode_vectors:
        amp = np.multiply.outer(amp, np.asarray(v, dtype=complex))
    return FockVector(tuple(modes), amp.reshape(amp.shape[1:]), trunc)


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


def inner(a: FockVector, b: FockVector) -> complex:
    """<a|b> with matching modes and truncation."""
    _check_same(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def trace_distance(rho: DensOp, sigma: DensOp) -> float:
    """Half the trace norm of the difference of the normalized operators."""
    _check_same(rho, sigma)
    diff = rho.matrix / rho.trace() - sigma.matrix / sigma.trace()
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


# ---------------------------------------------------------------------------
# whole-matrix dense steps and the (a, b) forms of the block route


def hermitian_gap_at_once(m):
    """(max |m - m^H|, max |m|) over the whole matrix."""
    return float(np.max(np.abs(m - m.conj().T))), float(np.max(np.abs(m)))


def hermitian_at_once(m) -> bool:
    """DensOp's Hermiticity test: max |m - m^H| <= 1e-8 max |m| (1 if m = 0)."""
    gap, scale = hermitian_gap_at_once(m)
    return not gap > 1e-8 * (scale or 1.0)


def _coh_overlap(bra, ket):
    """<bra|ket> for coherent labels; broadcasts.  Built in its output array:
    besides it, one real temporary of its shape."""
    out = np.conj(bra) * ket
    out -= 0.5 * (np.abs(bra) ** 2 + np.abs(ket) ** 2)
    return np.exp(out, out=out)


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


def gathered_rho(params: ProtocolParams, kernel) -> np.ndarray:
    """w w^H times kernel[s_row, s_col], gathered with s = n_a + n_b per index."""
    d = params.trunc.dim
    qa = coherent_amplitudes(params.alpha, params.trunc.n_max, params.trunc.tail_tol)
    qb = coherent_amplitudes(params.beta, params.trunc.n_max, params.trunc.tail_tol)
    w = np.outer(qa, qb).ravel()
    s_of = np.add.outer(np.arange(d), np.arange(d)).ravel()
    return np.outer(w, np.conj(w)) * kernel[np.ix_(s_of, s_of)]


def block_norms(params: ProtocolParams) -> np.ndarray:
    """N_s = sum_{n_a + n_b = s} |Q_{n_a}(alpha) Q_{n_b}(beta)|^2, summed over
    the (a, b) grid, for s = 0 .. 2 n_max."""
    d = params.trunc.dim
    qa = coherent_amplitudes(params.alpha, params.trunc.n_max, params.trunc.tail_tol)
    qb = coherent_amplitudes(params.beta, params.trunc.n_max, params.trunc.tail_tol)
    s_of = np.add.outer(np.arange(d), np.arange(d)).ravel()
    w2 = np.abs(np.outer(qa, qb).ravel()) ** 2
    return np.bincount(s_of, weights=w2, minlength=2 * d - 1)


def dense_view(params: ProtocolParams, rho: DensOp) -> DensOp:
    """The (a, b) operator sum_{s, s'} rho[s, s'] |v_s><v_s'| / sqrt(N_s N_s')
    of a block state over "s", built through ``gathered_rho`` (rows and
    columns with N_s = 0 are left out, as the library's lift does)."""
    if rho.modes != ("s",) or rho.trunc.n_max != 2 * params.trunc.n_max:
        raise ValueError(f"not a block state of this protocol: {rho.modes}@{rho.trunc.n_max}")
    _check_budget(params.trunc.n_max, "dense view", 16 * 3 * params.trunc.dim**4)
    root = np.sqrt(block_norms(params))
    inv = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0)
    kernel = inv[:, None] * rho.matrix * inv
    return DensOp(("a", "b"), gathered_rho(params, kernel), params.trunc)


def dense_target_state(
    target: TargetCoefficients, alpha, beta, chi, trunc: TruncationSpec | None = None
) -> FockVector:
    """Normalized sum_n c_n |alpha e^{i chi n}> |beta e^{i chi n}> on modes
    (a, b), summed term by term on the truncated grid; DomainError, as
    ``protocol.analytic_target_state`` raises, for a vanishing state."""
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
# truncated-Fock protocol routes


def _oracle_record(pattern, rho: DensOp) -> OutcomeRecord:
    """The outcome of one pattern: rho's trace is its probability, and rho
    divided by it is the heralded state, unless that trace is negligible."""
    p = rho.trace()
    if p > P_NEGLIGIBLE:
        rho = DensOp(rho.modes, rho.matrix / p, rho.trunc)
    return OutcomeRecord(tuple(pattern), rho, p)


def _run_fock_pipeline(params: ProtocolParams, displaced: bool = False):
    """Test oracle for run_full_protocol: every mode in truncated Fock space,
    monolithic (references at the ports) or displaced (vacuum ports, arms
    displaced before detection).  Checks its dim^(K+3) product state against
    DENSE_BYTES_LIMIT before allocating."""
    K = params.scheme.K
    trunc = params.trunc
    _check_budget(trunc.n_max, "Fock route", 16 * trunc.dim ** (K + 3))
    modes = ["a", "b", "c"] + [f"r{j}" for j in range(1, K + 1)]
    refs = np.zeros(K, dtype=complex) if displaced else params.scheme.gtilde
    amps = [
        coherent_amplitudes(params.alpha, trunc.n_max, trunc.tail_tol),
        coherent_amplitudes(params.beta, trunc.n_max, trunc.tail_tol),
        coherent_amplitudes(params.gamma, trunc.n_max, trunc.tail_tol),
    ] + [coherent_amplitudes(g, trunc.n_max, trunc.tail_tol) for g in refs]
    st = product_state(modes, amps, trunc)
    st = apply_cross_kerr(st, "a", "c", params.chi)
    st = apply_cross_kerr(st, "b", "c", params.chi)
    theta = np.arccos(np.sqrt(params.scheme.T))
    gam = params.scheme.roots.expanded()
    for j in range(1, K + 1):
        st = apply_beamsplitter(st, "c", f"r{j}", theta[j - 1])
        if displaced:
            st = apply_displacement(st, f"r{j}", -1j * params.scheme.q * gam[j - 1])
    out = []
    for pattern in itertools.product((True, False), repeat=K):
        proj = st
        for j, clicked in enumerate(pattern, start=1):
            proj = project_click(proj, f"r{j}", clicked)
        rho = reduce_to_density(proj, ("a", "b"))
        out.append(_oracle_record(pattern, rho))
    return out


def operator_path_state(params: ProtocolParams, counts) -> DensOp:
    """Unnormalized heralded state for per-arm lists of exact photon counts.

    Held-mode branch s = n_a + n_b leaves the probe in |z_s>, z_s =
    gamma e^{i chi s}, and arm j in |d_s>, d_s = i q (z_s - gamma_j).
    Counting n photons there gives the polynomial-operator amplitude
    A_n(s) = e^{-|d_s|^2/2} d_s^n / sqrt(n!), and arm j contributes
    sum_n conj(A_n(c)) A_n(r) over its counts[j] (``(0,)`` is a silent
    arm).  The end probe mu z_s + nu is traced out through its coherent
    overlaps.  Checks its dense size against DENSE_BYTES_LIMIT first.
    """
    n_max, dim = params.trunc.n_max, params.trunc.dim
    # the kernel, then gathered_rho's outer product, gather and their product
    _check_budget(n_max, "operator path", 16 * ((2 * n_max + 1) ** 2 + 3 * dim**4))
    z = params.gamma * np.exp(1j * params.chi * np.arange(2 * n_max + 1))
    mu, nu = probe_affine(params.scheme)
    p = mu * z + nu
    kernel = np.exp(np.conj(p) * p[:, None] - 0.5 * (abs(p) ** 2 + abs(p[:, None]) ** 2))
    for g, arm in zip(params.scheme.roots.expanded(), counts):
        d = 1j * params.scheme.q * (z - g)
        n = np.asarray(arm)[:, None]
        amp = np.exp(-0.5 * abs(d) ** 2) * d**n / np.sqrt(factorial(n))  # [count, s]
        kernel = kernel * (amp.T @ amp.conj())
    return DensOp(("a", "b"), gathered_rho(params, kernel), params.trunc)


def equivalence_report(params: ProtocolParams, target: TargetCoefficients):
    """(trace distance, residual, exponent) of the all-click outcome of
    params, a protocol made for target.

    trace distance: the blocked route against the operator path with counts
    1..3 on every arm.  residual: the blocked state's infidelity against
    the analytic target.  exponent: the two-point |gamma| scaling of the
    residual (expected ~ 2), against a run at gamma/2 on the same cutoff.
    """
    def all_click(p):
        state = all_click_record(run_full_protocol(p)).state
        tgt = analytic_target_state(target, p.alpha, p.beta, p.chi, p.trunc)
        return state, 1.0 - fidelity(state, tgt)

    net, r1 = all_click(params)
    op = operator_path_state(params, [range(1, 4)] * params.scheme.K)
    half = make_protocol(params.alpha, params.beta, params.gamma / 2, params.chi,
                         target, delta=params.scheme.delta)
    _, r2 = all_click(dataclasses.replace(half, trunc=params.trunc))
    return trace_distance(dense_view(params, net), op), r1, float(np.log2(r1 / r2))


def simulate_rows_per_pattern(prot: ProtocolParams, target: TargetCoefficients):
    """The rows of ``kerrlink simulate`` (pattern, probability,
    fidelity_vs_target, entanglement, oracle_residual) as its loop first
    computed them, pattern by pattern through the single-state metrics and
    ``design.semi_success_coeffs``; the oracle of the stacked
    ``protocol._metric_rows``."""
    alpha, beta, chi = prot.alpha, prot.beta, prot.chi
    tgt = analytic_target_state(target, alpha, beta, chi, prot.trunc)
    rows = []
    # records come all-click first, in itertools.product order: the row order
    for rec in run_full_protocol(prot):
        pat = "".join("1" if b else "0" for b in rec.pattern)
        if rec.probability <= P_NEGLIGIBLE:
            rows.append((pat, rec.probability, 0.0, 0.0, 0.0))
            continue
        f_target = fidelity(rec.state, tgt)
        _, vec = dominant_eigenstate(rec.state)
        ent = schmidt_entropy(lift_to_modes(vec, alpha, beta))
        missing = {j for j, b in enumerate(rec.pattern, start=1) if not b}
        own = analytic_target_state(
            semi_success_coeffs(prot.scheme.roots, missing),
            alpha, beta, chi, prot.trunc,
        )
        rows.append(
            (pat, rec.probability, f_target, ent, 1.0 - fidelity(rec.state, own))
        )
    return rows


def build_target_by_elimination(params: ProtocolParams) -> FockVector:
    """Product of (e^{i chi (n_a+n_b)} - gamma_m/gamma) factors on |alpha>|beta>.

    This is the leading-order heralded state written without reference to the
    coefficient vector; it must coincide (after normalization) with the
    analytic target, which pins down the whole elimination construction.
    """
    trunc = params.trunc
    qa = coherent_amplitudes(params.alpha, trunc.n_max, trunc.tail_tol)
    qb = coherent_amplitudes(params.beta, trunc.n_max, trunc.tail_tol)
    amp = np.outer(qa, qb)
    s = np.add.outer(np.arange(trunc.dim), np.arange(trunc.dim))
    f = np.exp(1j * params.chi * s)
    for z, l in params.scheme.roots.roots:
        amp = amp * (f - z / params.gamma) ** l
    return FockVector(("a", "b"), amp / np.linalg.norm(amp), trunc)


# ---------------------------------------------------------------------------
# noise channels: dense Fock forms, and the budgets' loops


def apply_discrete_phase_channel(rho: DensOp, Lambda, gamma, chi_ac) -> DensOp:
    """Poisson mixture of phase rotations e^{i chi_ac k n_a} on mode a, the
    first of rho's modes.

    The rotated copies are summed and the output is rescaled to the input
    trace (the raw series is trace-increasing by e^{Lambda|gamma|^2}).  This
    dense Fock form is the test oracle for superop_pipeline_fidelity, which
    evaluates the same mixture through rotated-label Gram overlaps.
    """
    w = _poisson_weights(Lambda * abs(gamma) ** 2)
    if not isinstance(rho, DensOp):
        raise TypeError(f"expected DensOp, got {type(rho).__name__}")
    dim, nmodes = rho.trunc.dim, len(rho.modes)
    idx = np.arange(dim**nmodes) // dim ** (nmodes - 1)
    out = np.zeros_like(rho.matrix)
    for k, wk in enumerate(w):
        u = np.exp(1j * chi_ac * k * idx)
        out += wk * (u[:, None] * rho.matrix * np.conj(u)[None, :])
    return DensOp(rho.modes, out, rho.trunc)


def dark_count_mixture(
    target: TargetCoefficients,
    roots,
    alpha,
    beta,
    chi,
    gamma,
    lambda_det,
    zeta,
    trunc: TruncationSpec | None = None,
) -> DensOp:
    """Unnormalized mixture of the target with silent-detector states.

    A dark count lets one (or two) detectors fire without photons, so the
    heralded state is the corresponding silent-detector superposition; each
    missing detector contributes weight zeta/(lambda |gamma|^2) |c_K|^2 with
    c_K taken for the normalized target.  The series stops at two dark
    counts.
    """
    w1 = zeta / (lambda_det * abs(gamma) ** 2)
    if w1 > 0.1:
        warnings.warn(
            f"zeta/(lambda |gamma|^2) = {w1:.3g} is not small; the two-dark-"
            "count truncation is unreliable",
            stacklevel=2,
        )
    if trunc is None:
        trunc = TruncationSpec(min_cutoff([alpha, beta]))
    K = target.K
    G_a, G_b = pair_gram(K, alpha, beta, chi)
    G = G_a * G_b
    c = np.asarray(target.c, dtype=complex)
    ck2 = abs(c[-1]) ** 2 / float(np.real(np.conj(c) @ G @ c))

    def projector(t):
        v = dense_target_state(t, alpha, beta, chi, trunc).amplitudes.ravel()
        return np.outer(v, np.conj(v))

    mat = projector(target)
    if zeta > 0:
        for j in range(1, K + 1):
            mat += w1 * ck2 * projector(semi_success_coeffs(roots, {j}))
        for i in range(1, K + 1):
            for j in range(i + 1, K + 1):
                mat += w1**2 * ck2 * projector(
                    semi_success_coeffs(roots, {i, j})
                )
    return DensOp(("a", "b"), mat, trunc)


def rot_gram_formula(z2, bra_angles, ket_angles) -> np.ndarray:
    """``entangle._rot_gram`` as the two-line formula, which the library's
    in-place build must match bit for bit."""
    ph = ket_angles[None, :] - bra_angles[:, None]
    return np.exp(z2 * (np.exp(1j * ph) - 1))


def pipeline_fidelity_per_term(target, noise, alpha, beta, gamma, chi) -> float:
    """``noise.superop_pipeline_fidelity`` with its Poisson series summed term
    by term: per k one rotated mode-a Gram, one overlap vector u and one
    quadratic form u rho u^H, accumulated in a Python loop; every rotated
    Gram from ``rot_gram_formula``, with the library's arguments."""
    c = np.asarray(target.c, dtype=complex)
    n = np.arange(target.K + 1, dtype=float)
    a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
    chi_ac = chi * (1.0 + noise.eps_ac)
    chi_bc = chi * (1.0 + noise.eps_bc)
    eta1, eta2 = eta_params(noise, alpha, beta, chi_ac, chi_bc)
    d = n[:, None] - n[None, :]
    rho = np.outer(c, np.conj(c)) * np.exp(1j * eta1 * d - eta2 * d * d)
    cb = c * np.exp(1j * eta1 * n)
    G_a, G_b = pair_gram(target.K, alpha, beta, chi)
    norm_bra = float(np.real(np.conj(cb) @ (G_a * G_b) @ cb))
    G_act = rot_gram_formula(a2, chi_ac * n, chi_ac * n) * rot_gram_formula(
        b2, chi_bc * n, chi_bc * n)
    tr = float(np.real(np.sum(rho * G_act.T)))
    w = _poisson_weights(noise.Lambda * abs(gamma) ** 2)
    Gb = rot_gram_formula(b2, chi * n, chi_bc * n)
    num = 0.0
    for k, wk in enumerate(w):
        Gk = rot_gram_formula(a2, chi * n, chi_ac * n + chi_ac * k) * Gb
        u = np.conj(cb) @ Gk
        num += wk * float(np.real(u @ rho @ np.conj(u)))
    return num / (norm_bra * tr)


def darkcount_term_per_detector(target, noise, alpha, beta, gamma, chi) -> float:
    """The ``darkcount`` term of ``noise.fidelity_leading_order`` one silent
    detector at a time: the roots solved on every call, then per detector j
    its ``semi_success_coeffs`` and two Gram forms."""
    if noise.zeta == 0:
        return 0.0
    c = np.asarray(target.c, dtype=complex)
    G_a, G_b = pair_gram(target.K, alpha, beta, chi)
    G = G_a * G_b
    N = float(np.real(np.conj(c) @ G @ c))
    ck2 = abs(c[-1]) ** 2 / N
    roots = solve_roots(target, gamma)
    w1 = noise.zeta / (noise.lambda_det * abs(gamma) ** 2)
    t_dark = 0.0
    for j in range(1, target.K + 1):
        ct = np.zeros(target.K + 1, dtype=complex)
        cj = semi_success_coeffs(roots, {j}).c
        ct[: len(cj)] = cj
        nt = float(np.real(np.conj(ct) @ G @ ct))
        ov2 = abs(np.conj(c) @ G @ ct) ** 2 / (N * nt)
        t_dark += w1 * ck2 * (1.0 - ov2)
    return t_dark


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


# ---------------------------------------------------------------------------
# the entanglement objective, operation by operation as first written


def entropy_outer_sorted(c, alpha, beta, chi) -> EntanglementReport:
    """entangle.entropy_of_coefficients as first written: the reduced
    operator by np.outer, np.real on eigvalsh's output, a descending re-sort
    of the kept weights, and np.sum for the entropy."""
    c = np.asarray(c, dtype=complex)
    K = len(c) - 1
    G_a, G_b = pair_gram(K, alpha, beta, chi)
    norm2 = _nonvanishing_norm2(float(np.real(np.conj(c) @ ((G_a * G_b) @ c))), c)
    X = np.outer(c, np.conj(c)) * G_b.T
    s = _gram_root(K, float(abs(alpha) ** 2), float(chi))
    lam = np.real(np.linalg.eigvalsh(s @ X @ s)) / norm2
    lam = np.sort(lam[lam > EIG_FLOOR])[::-1]
    return EntanglementReport(float(0.0 - np.sum(lam * np.log2(lam))), lam)


def poly_by_numpy(roots) -> np.ndarray:
    """Coefficients of prod_m (z - roots[m]), highest power first: np.poly,
    which roots were expanded with before ``design._poly``."""
    return np.poly(roots)


# ---------------------------------------------------------------------------
# splitter chain and reference cascade


def probe_cascade(scheme, probe_amp, n_max, displaced=False) -> FockVector:
    """A bare coherent probe |probe_amp> through the synthesized splitter
    chain, every mode in truncated Fock space: modes ("c", "r1", ..., "rK").
    Arm j's reference enters as |gtilde_j>, or (displaced) as vacuum with
    the arm displaced by -i q gamma_j after its splitter."""
    K = scheme.K
    trunc = TruncationSpec(n_max, tail_tol=1e-9)
    modes = ["c"] + [f"r{j}" for j in range(1, K + 1)]
    refs = np.zeros(K, dtype=complex) if displaced else scheme.gtilde
    amps = [coherent_amplitudes(z, n_max, tail_tol=1.0) for z in (probe_amp, *refs)]
    st = product_state(modes, amps, trunc)
    theta = np.arccos(np.sqrt(scheme.T))
    gam = scheme.roots.expanded()
    for j in range(1, K + 1):
        st = apply_beamsplitter(st, "c", f"r{j}", theta[j - 1])
        if displaced:
            st = apply_displacement(st, f"r{j}", -1j * scheme.q * gam[j - 1])
    return st


def refnet_angles(net: RefNet, K: int):
    """Full K-element (theta', phi) arrays with the implicit final mirror."""
    Tp = np.append(net.Tp, 0.0)
    phi = np.append(net.phi, 0.0)
    if len(Tp) != K:
        raise ValueError(f"ref_net holds {len(Tp) - 1} splitters, expected {K - 1}")
    return np.arccos(np.sqrt(np.clip(Tp, 0.0, 1.0))), phi
