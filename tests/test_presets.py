"""Preset bundles must reproduce the worked-example structures they name."""

import numpy as np
import pytest

from kerrlink.design import solve_roots
from kerrlink.entangle import entropy_of_coefficients
from kerrlink.presets import PRESET_NAMES, get_preset
from kerrlink.protocol import make_protocol


def test_bell_preset_sits_at_unit_distinguishability():
    p = get_preset("bell-k1")
    x = abs(p.alpha) ** 2 * p.chi**2
    assert abs(x - 1.0) < 1e-12
    assert p.K == 1
    assert abs(abs(p.target.c[1]) - 1.0) < 1e-12
    rep = entropy_of_coefficients(p.target.c, p.alpha, p.beta, p.chi)
    assert abs(rep.E - 1.0) < 0.02, f"bell preset entropy {rep.E}"


def test_low_x_qutrit_coefficient_moduli():
    p = get_preset("maxent-k2-low")
    x = abs(p.alpha) ** 2 * p.chi**2
    assert abs(x - 1e-4) < 1e-15
    mods = np.abs(p.target.c)
    assert np.allclose(mods, [1.0, 2 * (1 - x), 1.0], atol=1e-12)
    rep = entropy_of_coefficients(p.target.c, p.alpha, p.beta, p.chi)
    assert 1.2 < rep.E <= 1.5, f"low-x preset entropy {rep.E}"


def test_high_x_roots_sit_at_pi_thirds():
    # the design polynomial 1 - e^{-2i phi} y + e^{-4i phi} y^2 has roots
    # gamma e^{2i phi} (1 +- i sqrt3)/2, i.e. arguments +-pi/3 past 2 phi
    p = get_preset("maxent-k2-high")
    phi = abs(p.alpha) ** 2 * p.chi
    roots = solve_roots(p.target, p.gamma)
    rel = sorted(
        (np.angle(v / p.gamma * np.exp(-2j * phi)) for v, _ in roots.roots)
    )
    assert abs(rel[0] + np.pi / 3) < 1e-9, f"arguments {rel}"
    assert abs(rel[1] - np.pi / 3) < 1e-9
    for v, _ in roots.roots:
        assert abs(abs(v) - abs(p.gamma)) < 1e-9


def test_photon_correlated_example_coefficients():
    p = get_preset("photon-correlated:2,2")
    c = p.target.c
    # proportional to (e^{i chi}, -1 - e^{i chi}, 1)
    scale = c[2]
    assert abs(c[0] / scale - np.exp(1j * p.chi)) < 1e-12
    assert abs(c[1] / scale - (-1 - np.exp(1j * p.chi))) < 1e-12


@pytest.mark.parametrize("s, K", [(2, 2), (1, 3), (2, 4), (0, 1)])
def test_photon_correlated_scheme_roots_are_exact(s, K):
    # the target carries its roots e^{i chi s'}: the scheme scales them by
    # gamma, bit for bit, with no polynomial solved in between
    p = get_preset(f"photon-correlated:{s},{K}")
    scheme = make_protocol(p.alpha, p.beta, p.gamma, p.chi, p.target, delta=p.delta).scheme
    others = np.array([np.exp(1j * p.chi * sp) for sp in range(K + 1) if sp != s])
    assert [l for _, l in scheme.roots.roots] == [1] * K
    assert set(scheme.roots.expanded().tolist()) == set((p.gamma * others).tolist())


def test_name_parsing_and_errors():
    p = get_preset("photon-correlated:1,2")
    assert p.K == 2 and "1" in p.name
    with pytest.raises(ValueError):
        get_preset("photon-correlated")
    with pytest.raises(ValueError):
        get_preset("photon-correlated:one,two")
    with pytest.raises(ValueError):
        get_preset("no-such-preset")
    for name in ("bell-k1:anything", "maxent-k2-low:7,7", "maxent-k2-high:"):
        with pytest.raises(ValueError, match="takes no parameters"):
            get_preset(name)
    for name in PRESET_NAMES[:3]:
        assert get_preset(name).name == name
