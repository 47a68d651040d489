"""Core Fock-space layer: closed-form oracles and error contracts."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln, pdtrc

from kerrlink import fock
from kerrlink.design import build_scheme
from kerrlink.errors import DomainError, ShapeMismatch, TailTooHeavy, UnknownMode
from kerrlink.fock import (
    HERMITIAN_TILE,
    DensOp,
    FockVector,
    TruncationSpec,
    _hermitian_gap,
    coherent_amplitudes,
    coherent_tail,
    fidelity,
    min_cutoff,
)
from kerrlink.presets import get_preset
from oracles import (
    TruncationOverflow,
    apply_beamsplitter,
    apply_cross_kerr,
    apply_displacement,
    hermitian_at_once,
    hermitian_gap_at_once,
    inner,
    partial_trace,
    product_state,
    project_click,
    reduce_to_density,
    trace_distance,
)


def coh_state(zs, trunc):
    """Product of coherent states, one per entry of zs, modes named m0, m1, ..."""
    modes = tuple(f"m{i}" for i in range(len(zs)))
    vecs = [coherent_amplitudes(z, trunc.n_max, tail_tol=1.0) for z in zs]
    return product_state(modes, vecs, trunc)


class TestCoherentAmplitudes:
    def test_recurrence_and_norm(self):
        z = 1.3 - 0.4j
        q = coherent_amplitudes(z, 30)
        for n in range(29):
            step = z / np.sqrt(n + 1)
            assert abs(q[n + 1] - step * q[n]) < 1e-12, f"recurrence broken at n={n}"
        assert abs(np.sum(np.abs(q) ** 2) - (1 - coherent_tail(z, 30))) < 1e-12

    def test_overlap_closed_form(self):
        # <z1|z2> = exp(conj(z1) z2 - |z1|^2/2 - |z2|^2/2)
        z1, z2 = 0.9 + 0.5j, -0.3 + 1.1j
        q1 = coherent_amplitudes(z1, 40)
        q2 = coherent_amplitudes(z2, 40)
        got = np.vdot(q1, q2)
        want = np.exp(np.conj(z1) * z2 - 0.5 * (abs(z1) ** 2 + abs(z2) ** 2))
        assert abs(got - want) < 1e-12, f"{got} vs {want}"

    def test_large_amplitude_is_stable(self):
        # log-domain evaluation; naive z^n/sqrt(n!) would overflow at n ~ 170
        q = coherent_amplitudes(12.0, 400)
        assert np.isfinite(q).all()
        assert abs(np.sum(np.abs(q) ** 2) - 1.0) < 1e-12

    def test_vacuum(self):
        q = coherent_amplitudes(0.0, 5)
        assert q[0] == 1.0 and np.all(q[1:] == 0)

    def test_tail_too_heavy(self):
        with pytest.raises(TailTooHeavy):
            coherent_amplitudes(3.0, 4, tail_tol=1e-12)

    @pytest.mark.parametrize("z", [0.01, 0.5 + 0.3j, 1.0, -2.5j, 7.3, 20 * np.exp(0.4j),
                                   -45.0, 60.0, 60j])
    def test_matches_the_gammaln_form(self, z):
        # math.lgamma and scipy's gammaln differ by up to 3 ulps at about half
        # of all n, so each amplitude may differ by 1.5 ulps of log n!
        # (5e-12 relative at |z| = 60) on top of rounding
        n_max = min_cutoff([z])
        n = np.arange(n_max + 1)
        want = np.exp(n * np.log(complex(z)) - 0.5 * gammaln(n + 1) - 0.5 * abs(z) ** 2)
        got = coherent_amplitudes(z, n_max)
        bound = (1e-13 + 2 * np.spacing(gammaln(n + 1))) * np.abs(want)
        assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) / np.abs(want))


def pdtrc_tail(z, n):
    return float(pdtrc(n, abs(z) ** 2))


def mpmath_tail(lam, n):
    """P(N > n) for a Poisson N of mean lam, at 50 digits."""
    with mpmath.workdps(50):
        return 1 - mpmath.gammainc(n + 1, lam, mpmath.inf, regularized=True)


class TestPoissonTail:
    @pytest.mark.parametrize("lam, tol", [
        *((lam, 1e-12) for lam in (1e-4, 0.01, 0.3, 1.0, 2.5, 10.0, 37.3, 100.0)),
        (1e3, 1e-11),  # the series' prefactor rounds by ~lam log lam ulps
        (1e4, 3e-12),  # Temme's expansion: 7e-12 without its c_2 term
    ])
    def test_matches_pdtrc(self, lam, tol):
        # every n from lam - 10 sqrt(lam) to where the tail falls below 1e-290,
        # through the series on either side of lam and, at 1e4, Temme's expansion
        n = max(0, math.ceil(lam - 10 * math.sqrt(lam)))
        worst = 0.0
        while (want := pdtrc_tail(math.sqrt(lam), n)) >= 1e-290:
            worst = max(worst, abs(coherent_tail(math.sqrt(lam), n) / want - 1))
            n += 1
        assert worst <= tol, worst

    def test_vacuum_has_no_tail(self):
        assert coherent_tail(0.0, 0) == 0.0 == pdtrc_tail(0.0, 0)

    @pytest.mark.parametrize("lam", [1e7, 1e8, 1e10])
    def test_large_mean_matches_mpmath(self, lam):
        # at the 1e-12 point, where scipy's pdtrc reads 0.99, 0.77 and 0.13
        # of the tail; the expansion is good to ~1e-14 there (1e-11 with eta
        # taken from log1p alone, which cancels)
        z = math.sqrt(lam)
        n = int(lam + 7.03 * z + 8)
        want = mpmath_tail(z * z, n)  # z^2 is lam up to an ulp, 4e-12 of the tail at 1e7
        assert abs(coherent_tail(z, n) / want - 1) <= 1e-12

    def test_cutoff_of_a_large_amplitude_is_exact(self):
        # pdtrc put it at 10000674304, where the tail is 7.8 tail_tol
        n = min_cutoff([1e5])
        assert mpmath_tail(1e10, n) <= fock.DEFAULT_TAIL_TOL < mpmath_tail(1e10, n - 1)


    def test_cutoff_past_float_resolution(self):
        # at |z|^2 = 1e200 the float spacing (~1e184) dwarfs sqrt(|z|^2): the
        # search brackets and bisects ranges wider than sys.maxsize, and the
        # expansion's c_2 / a^2 has no float; past float range |z|^2 has none
        n = min_cutoff([1e100])
        assert coherent_tail(1e100, n) <= fock.DEFAULT_TAIL_TOL < coherent_tail(1e100, n - 1)
        with pytest.raises(DomainError, match="beyond float range"):
            min_cutoff([1e200])


class TestTruncation:
    def test_min_cutoff_is_minimal(self):
        for z, tol in [(1.0, 1e-12), (3.16, 1e-10), (0.1, 1e-8)]:
            n = min_cutoff([z], tol)
            assert coherent_tail(z, n) <= tol
            assert n == 1 or coherent_tail(z, n - 1) > tol, f"n={n} not minimal for z={z}"

    @staticmethod
    def stepped_cutoff(z, tol, tail=coherent_tail):
        """The cutoff by the rule of stepping n up by one from |z|^2."""
        n = max(1, int(abs(z) ** 2))
        while tail(z, n) > tol:
            n += 1
        return n

    @staticmethod
    def cutoff_grid():
        """(beam, tol): 0, a grid up to |z| = 60 and every beam of the presets
        (held modes, probe, references and master beam; maxent-k2-high's are
        100), each at three tolerances."""
        beams = [0.0, *np.geomspace(1e-3, 60.0, 150)]
        for name in ("bell-k1", "maxent-k2-low", "maxent-k2-high", "photon-correlated:2,2",
                     "photon-correlated:1,3", "photon-correlated:2,4"):
            p = get_preset(name)
            scheme = build_scheme(p.target, p.gamma, delta=p.delta)
            beams += [p.alpha, p.beta, p.gamma, scheme.ref_net.master, *scheme.gtilde]
        return [(z, tol) for tol in (1e-12, 1e-9, 1e-3) for z in beams]

    def test_min_cutoff_is_the_stepped_cutoff(self):
        for z, tol in self.cutoff_grid():
            assert min_cutoff([z], tol) == self.stepped_cutoff(z, tol), (z, tol)

    def test_min_cutoff_is_the_pdtrc_cutoff(self):
        for z, tol in self.cutoff_grid():
            assert min_cutoff([z], tol) == self.stepped_cutoff(z, tol, pdtrc_tail), (z, tol)

    def test_min_cutoff_takes_logarithmically_many_tail_calls(self, monkeypatch):
        calls = []

        def counted(z, n):
            calls.append(n)
            return coherent_tail(z, n)

        monkeypatch.setattr(fock, "coherent_tail", counted)
        n = min_cutoff([1e5])
        assert coherent_tail(1e5, n) <= fock.DEFAULT_TAIL_TOL < coherent_tail(1e5, n - 1)
        calls.clear()
        n = min_cutoff([1e8])  # n - |z|^2 is ~6e8: stepping would take as many calls
        assert 1e16 < n < 1e16 + 1e9 and len(calls) <= 100, (n, len(calls))

    def test_for_amplitudes_uses_largest(self):
        # several amplitudes: the cutoff is the one the largest needs
        t = TruncationSpec(min_cutoff([0.1, 2.0, 1.0], 1e-10), tail_tol=1e-10)
        assert t.n_max == min_cutoff([2.0], 1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationSpec(0)
        with pytest.raises(ValueError):
            TruncationSpec(5, tail_tol=2.0)


class TestGates:
    def test_cross_kerr_phases(self):
        trunc = TruncationSpec(12)
        st = coh_state([0.8, 1.1], trunc)
        out = apply_cross_kerr(st, "m0", "m1", 0.3)
        n = np.arange(trunc.dim)
        want = st.amplitudes * np.exp(1j * 0.3 * np.outer(n, n))
        assert np.max(np.abs(out.amplitudes - want)) < 1e-14
        assert abs(out.norm2() - st.norm2()) < 1e-14

    def test_cross_kerr_conditional_rotation(self):
        # fixing n photons in mode 1 must rotate mode 0 as |z> -> |z e^{i chi n}>
        chi = 0.45
        trunc = TruncationSpec(25)
        st = coh_state([1.2, 0.9], trunc)
        out = apply_cross_kerr(st, "m0", "m1", chi)
        q1 = coherent_amplitudes(0.9, trunc.n_max, tail_tol=1.0)
        for n in [0, 1, 3]:
            col = out.amplitudes[:, n] / q1[n]
            want = coherent_amplitudes(1.2 * np.exp(1j * chi * n), trunc.n_max, tail_tol=1.0)
            assert np.max(np.abs(col - want)) < 1e-10, f"conditional rotation off at n={n}"

    def test_beamsplitter_coherent_law(self):
        # |u>|v> -> |u cos + i v sin>|v cos + i u sin>
        theta = 0.7
        u, v = 0.9 + 0.2j, -0.5 + 0.6j
        trunc = TruncationSpec(30)
        out = apply_beamsplitter(coh_state([u, v], trunc), "m0", "m1", theta)
        c, s = np.cos(theta), np.sin(theta)
        want = coh_state([u * c + 1j * v * s, v * c + 1j * u * s], trunc)
        assert np.max(np.abs(out.amplitudes - want.amplitudes)) < 1e-10

    def test_beamsplitter_unitary_and_inverse(self):
        trunc = TruncationSpec(14)
        rng = np.random.default_rng(7)
        amp = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
        amp[np.add.outer(np.arange(15), np.arange(15)) > 14] = 0  # keep inside blocks
        st = FockVector(("a", "b"), amp / np.linalg.norm(amp), trunc)
        out = apply_beamsplitter(st, "a", "b", 0.4)
        assert abs(out.norm2() - 1.0) < 1e-12
        back = apply_beamsplitter(out, "a", "b", -0.4)
        assert np.max(np.abs(back.amplitudes - st.amplitudes)) < 1e-12

    def test_beamsplitter_swap_angle(self):
        trunc = TruncationSpec(25)
        st = coh_state([1.1, 0.3], trunc)
        out = apply_beamsplitter(st, "m0", "m1", np.pi / 2)
        want = coh_state([0.3j, 1.1j], trunc)
        assert np.max(np.abs(out.amplitudes - want.amplitudes)) < 1e-9

    def test_beamsplitter_overflow(self):
        trunc = TruncationSpec(6, tail_tol=1e-12)
        st = coh_state([1.8, 1.8], trunc)  # heavy boundary blocks at this cutoff
        with pytest.raises(TruncationOverflow):
            apply_beamsplitter(st, "m0", "m1", 0.3)

    def test_displacement_from_vacuum(self):
        trunc = TruncationSpec(20)
        d = 0.7 - 1.1j
        out = apply_displacement(coh_state([0.0], trunc), "m0", d)
        want = coherent_amplitudes(d, trunc.n_max, tail_tol=1.0)
        assert np.max(np.abs(out.amplitudes - want)) < 1e-11

    def test_displacement_composition_weyl_phase(self):
        # D(d2) D(d1) = exp(i Im(d2 conj(d1))) D(d1 + d2)
        trunc = TruncationSpec(25)
        d1, d2 = 0.6 + 0.3j, -0.4 + 0.5j
        st = apply_displacement(coh_state([0.0], trunc), "m0", d1)
        st = apply_displacement(st, "m0", d2)
        phase = np.exp(1j * np.imag(d2 * np.conj(d1)))
        want = phase * coherent_amplitudes(d1 + d2, trunc.n_max, tail_tol=1.0)
        assert np.max(np.abs(st.amplitudes - want)) < 1e-10

    def test_displacement_overflow(self):
        trunc = TruncationSpec(4, tail_tol=1e-12)
        with pytest.raises(TruncationOverflow):
            apply_displacement(coh_state([0.0], trunc), "m0", 2.5)

    def test_unknown_mode(self):
        trunc = TruncationSpec(5)
        st = coh_state([0.2, 0.2], trunc)
        with pytest.raises(UnknownMode):
            apply_cross_kerr(st, "m0", "nope", 0.1)
        with pytest.raises(UnknownMode):
            apply_beamsplitter(st, "bad", "m1", 0.1)


class TestMeasurement:
    def test_click_probabilities_on_coherent(self):
        z = 0.9
        trunc = TruncationSpec(20)
        st = coh_state([z, 0.4], trunc)
        p_dark = project_click(st, "m0", False).norm2()
        p_click = project_click(st, "m0", True).norm2()
        assert abs(p_dark - np.exp(-abs(z) ** 2)) < 1e-10
        assert abs(p_dark + p_click - st.norm2()) < 1e-12

    def test_click_projectors_are_complementary(self):
        trunc = TruncationSpec(8)
        st = coh_state([0.5, 0.7], trunc)
        a = project_click(st, "m1", False).amplitudes
        b = project_click(st, "m1", True).amplitudes
        assert np.max(np.abs(a + b - st.amplitudes)) < 1e-15
        assert abs(np.vdot(a, b)) < 1e-15

    def test_discard_product_mode_leaves_pure_state(self):
        trunc = TruncationSpec(15)
        st = coh_state([0.8 + 0.1j, 1.2], trunc)
        rho = reduce_to_density(st, ("m0",))
        assert rho.modes == ("m0",)
        psi = coherent_amplitudes(0.8 + 0.1j, trunc.n_max, tail_tol=1.0)
        overlap = np.real(np.vdot(psi, rho.matrix @ psi))
        assert abs(overlap / rho.trace() - 1.0) < 1e-10, "reduction of a product is mixed"

    def test_reduce_matches_partial_trace(self):
        trunc = TruncationSpec(6)
        rng = np.random.default_rng(3)
        amp = rng.normal(size=(7, 7, 7)) + 1j * rng.normal(size=(7, 7, 7))
        st = FockVector(("a", "b", "c"), amp / np.linalg.norm(amp), trunc)
        direct = reduce_to_density(st, ("c", "a"))
        via_full = partial_trace(reduce_to_density(st, ("a", "b", "c")), ("c", "a"))
        assert np.max(np.abs(direct.matrix - via_full.matrix)) < 1e-12
        assert abs(direct.trace() - 1.0) < 1e-12

    def test_partial_trace_entangled_pair(self):
        # (|00> + |11>)/sqrt(2) reduces to the maximally mixed qubit
        trunc = TruncationSpec(1)
        amp = np.zeros((2, 2), dtype=complex)
        amp[0, 0] = amp[1, 1] = 1 / np.sqrt(2)
        rho = reduce_to_density(FockVector(("a", "b"), amp, trunc), ("a",))
        assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) < 1e-14


class TestMetrics:
    def test_inner_and_mismatch(self):
        trunc = TruncationSpec(10)
        a = coh_state([0.5], trunc)
        b = coh_state([0.5j], trunc)
        want = np.exp(np.conj(0.5) * 0.5j - 0.125 - 0.125)
        assert abs(inner(a, b) - want) < 1e-10
        with pytest.raises(ShapeMismatch):
            inner(a, coh_state([0.5, 0.1], trunc))
        with pytest.raises(ShapeMismatch):
            inner(a, coh_state([0.5], TruncationSpec(11)))

    def test_fidelity_pure_vs_pure(self):
        trunc = TruncationSpec(18)
        a = coh_state([0.8], trunc)
        b = coh_state([1.1], trunc)
        rho = reduce_to_density(a, ("m0",))
        sig = reduce_to_density(b, ("m0",))
        want = abs(inner(a, b)) ** 2
        assert abs(fidelity(rho, b) - want) < 1e-10
        with pytest.raises(TypeError):
            fidelity(rho, sig)

    def test_fidelity_ignores_subnormalization(self):
        trunc = TruncationSpec(12)
        a = coh_state([0.6], trunc)
        rho = reduce_to_density(a, ("m0",))
        scaled = DensOp(("m0",), 0.3 * rho.matrix, trunc)
        half = FockVector(("m0",), 0.5 * a.amplitudes, trunc)
        assert abs(fidelity(scaled, half) - 1.0) < 1e-12

    def test_trace_distance_bounds(self):
        trunc = TruncationSpec(10)
        a = reduce_to_density(coh_state([0.0], trunc), ("m0",))
        fock1 = np.zeros(11, dtype=complex)
        fock1[1] = 1.0
        b = reduce_to_density(FockVector(("m0",), fock1, trunc), ("m0",))
        assert abs(trace_distance(a, b) - 1.0) < 1e-12  # orthogonal -> 1
        assert trace_distance(a, a) < 1e-12

    def test_trace_distance_bounds_fidelity(self):
        # 1 - F <= T for pure states (T = sqrt(1 - F) bound squared)
        trunc = TruncationSpec(15)
        a = coh_state([0.4], trunc)
        b = coh_state([0.7 + 0.2j], trunc)
        t = trace_distance(reduce_to_density(a, ("m0",)), reduce_to_density(b, ("m0",)))
        f = abs(inner(a.normalized(), b.normalized())) ** 2
        assert abs(t - np.sqrt(1 - f)) < 1e-8


class TestValueChecks:
    def test_vector_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            FockVector(("a", "b"), np.zeros((3, 4), dtype=complex), TruncationSpec(2))

    def test_densop_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            DensOp(("a", "b"), np.eye(3, dtype=complex), TruncationSpec(2))

    def test_densop_requires_hermitian(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            DensOp(("a",), m, TruncationSpec(1))

    @pytest.mark.parametrize("entry,value", [
        ((0, 1), np.nan), ((0, 0), np.nan), ((0, 0), np.inf),
    ])
    def test_densop_rejects_non_finite(self, entry, value):
        # every comparison with NaN is false, so the check must fail on one;
        # inf - inf in the check is NaN too, and must not warn on its way
        m = np.eye(2, dtype=complex)
        m[entry] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                DensOp(("a",), m, TruncationSpec(1))


def hermitian_base(n, seed=0):
    """Exactly Hermitian n x n matrix, max modulus 1 (at [1, 1]), others < 0.71."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n))
    m = (a + a.conj().T) / 2
    m[1, 1] = 1.0
    return m


def densop_accepts(m) -> bool:
    try:
        DensOp(("a",), m, TruncationSpec(m.shape[0] - 1))
    except ValueError:
        return False
    return True


class TestHermitianCheck:
    """DensOp's tiled check reaches the whole-matrix test's decision."""

    T = HERMITIAN_TILE
    # (rows, planted entry, planted size in units of the tolerance 1e-8 max|m|)
    CASES = {
        "hermitian": (T + 72, None, 0.0),
        "far corner": (3 * T, (0, 3 * T - 1), 10.0),
        "partial last tile": (T + 72, (T + 71, T + 2), 10.0),
        "just inside": (T + 72, (5, T + 22), 0.99),
        "just outside": (T + 72, (5, T + 22), 1.01),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_decision_as_whole_matrix(self, case):
        n, entry, size = self.CASES[case]
        m = hermitian_base(n)
        if entry is not None:
            m[entry] += size * 1e-8
        want = size <= 1.0
        assert hermitian_at_once(m) == want
        assert densop_accepts(m) == want

    def test_all_zero_matrix_is_accepted(self):
        m = np.zeros((200, 200), dtype=complex)
        assert hermitian_at_once(m) and densop_accepts(m)

    @pytest.mark.parametrize("n", [2, HERMITIAN_TILE, 200, 2 * HERMITIAN_TILE + 1])
    def test_tiles_give_the_whole_matrix_maxima(self, n):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m[n - 1, 0] = 10.0  # largest modulus below the diagonal tiles
        assert _hermitian_gap(m) == hermitian_gap_at_once(m)
