"""Randomized invariants: 100 instances per property with fixed seeds.

Pure-function invariants run under hypothesis (derandomized so the suite is
reproducible); the protocol completeness check, which builds full Fock
networks, uses a seeded numpy loop to keep the budget predictable.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from kerrlink.design import TargetCoefficients, reference_network, solve_roots
from kerrlink.entangle import entropy_of_coefficients
from kerrlink.fock import FockVector, TruncationSpec
from kerrlink.protocol import make_protocol, run_full_protocol
from oracles import apply_beamsplitter, inner, refnet_angles

SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)


def random_state(rng, dim, modes=("a", "b")):
    """Random two-mode state supported on n1 + n2 <= n_max, where the
    truncated splitter acts unitarily (blocks of fixed total survive)."""
    amp = rng.normal(size=(dim,) * len(modes)) + 1j * rng.normal(size=(dim,) * len(modes))
    i, j = np.indices(amp.shape)
    amp[i + j > dim - 1] = 0.0
    amp /= np.linalg.norm(amp)
    return FockVector(tuple(modes), amp, TruncationSpec(dim - 1, tail_tol=0.5))


def test_beamsplitter_unitarity():
    """Norms and inner products survive any splitter angle (100 draws)."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.integers(4, 10))
        theta = float(rng.uniform(0.05, np.pi / 2))
        u = random_state(rng, dim)
        v = random_state(rng, dim)
        before = inner(u, v)
        bu = apply_beamsplitter(u, "a", "b", theta)
        bv = apply_beamsplitter(v, "a", "b", theta)
        assert abs(np.linalg.norm(bu.amplitudes) - 1.0) < 1e-10
        after = inner(bu, bv)
        assert abs(after - before) < 1e-10, f"<u|v> drifted by {abs(after - before):.2e}"


def test_protocol_completeness():
    """Click-pattern probabilities sum to one for random small protocols."""
    rng = np.random.default_rng(7)
    for trial in range(100):
        K = int(rng.integers(1, 3))
        c = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
        c[-1] += np.sign(c[-1].real or 1.0) * 0.5  # keep the design nondegenerate
        alpha = float(rng.uniform(0.2, 0.6))
        beta = float(rng.uniform(0.2, 0.6))
        gamma = float(rng.uniform(0.05, 0.15))
        chi = float(rng.uniform(0.3, 1.2))
        delta = float(rng.uniform(0.1, 0.3))
        prot = make_protocol(alpha, beta, gamma, chi, TargetCoefficients(c), delta=delta)
        total = sum(rec.probability for rec in run_full_protocol(prot))
        assert abs(total - 1.0) < 1e-8, f"trial {trial}: sum p = {total}"


@SETTINGS
@given(
    K=st.integers(1, 3),
    data=st.data(),
    lam=st.complex_numbers(min_magnitude=1e-2, max_magnitude=10.0,
                           allow_nan=False, allow_infinity=False),
    alpha=st.floats(0.5, 3.0),
    chi=st.floats(0.05, 1.5),
)
def test_entropy_gauge_invariance(K, data, lam, alpha, chi):
    """E(c) is invariant under c -> lam c for any nonzero scalar."""
    c = np.array(
        data.draw(
            st.lists(
                st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=K + 1, max_size=K + 1,
            )
        )
    )
    if np.max(np.abs(c)) < 0.1:
        c[0] += 1.0
    e0 = entropy_of_coefficients(c, alpha, alpha, chi).E
    e1 = entropy_of_coefficients(lam * c, alpha, alpha, chi).E
    assert abs(e0 - e1) < 1e-9, f"E changed under rescaling: {e0} vs {e1}"


@SETTINGS
@given(
    K=st.integers(1, 3),
    data=st.data(),
    lead=st.complex_numbers(min_magnitude=0.2, max_magnitude=3.0,
                            allow_nan=False, allow_infinity=False),
    gamma=st.floats(0.05, 0.5),
)
def test_root_round_trip(K, data, lead, gamma):
    """Coefficients -> scaled roots -> monic rebuild returns the same target."""
    tail = np.array(
        data.draw(
            st.lists(
                st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=K, max_size=K,
            )
        )
    )
    c = np.concatenate((tail, [lead]))
    roots = solve_roots(TargetCoefficients(c), gamma)
    expanded = np.array(roots.expanded()) / gamma
    recon = np.poly(expanded)[::-1]
    want = c / c[-1]
    scale = np.max(np.abs(want))
    assert np.max(np.abs(recon - want)) < 1e-6 * max(scale, 1.0), (
        f"round trip drifted: {recon} vs {want}"
    )


def test_reference_network_reconstruction():
    """Splitting the master beam reproduces every reference amplitude (100 draws)."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        K = int(rng.integers(1, 5))
        gt = rng.normal(size=K) + 1j * rng.normal(size=K)
        net = reference_network(gt)
        assert abs(np.sum(np.abs(gt) ** 2) - abs(net.master) ** 2) < 1e-10
        theta, phi = refnet_angles(net, K)
        run = net.master
        for j in range(K):
            beam = 1j * run * np.sin(theta[j]) * np.exp(1j * phi[j])
            run = run * np.cos(theta[j])
            assert abs(beam - gt[j]) < 1e-9, f"arm {j + 1} off by {abs(beam - gt[j]):.2e}"
        assert abs(run) < 1e-9
