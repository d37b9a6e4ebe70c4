import itertools

import numpy as np
import pytest

from rtcheck import deltamodel
from rtcheck.defect import delta_defect
from rtcheck.deltamodel import (
    DeltaModel,
    boundary_condition_residual,
    plane_wave_bc_residual,
    psi,
    psi_prime,
    schrodinger_residual,
)
from rtcheck.fock import (
    TWO_PI,
    evaluate_coefficient,
    n_particle_expression,
    one_particle_amplitude,
    resolve_momenta,
)
from rtcheck.smatrix import sample_momenta

ETA = 1.0
MODEL = DeltaModel(ETA)
FREE = DeltaModel(0.0)
KS = sample_momenta(30, seed=21)


class TestAmplitudes:
    def test_reference_values(self):
        assert abs(MODEL.T(1.0) - (1 - 1j) / 2) < 1e-15
        assert abs(MODEL.R(1.0) - (-1 - 1j) / 2) < 1e-15

    @pytest.mark.parametrize("eta", [0.5, 1.0, 3.0])
    def test_unitarity_of_amplitudes(self, eta):
        m = DeltaModel(eta)
        for k in KS:
            assert abs(abs(m.T(k)) ** 2 + abs(m.R(k)) ** 2 - 1.0) <= 1e-12

    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            DeltaModel(-1.0)

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError):
            MODEL.T(0.0)


class TestEigenfunctions:
    def test_reference_value(self):
        got = psi(MODEL, -1.0, "+", 1.0)
        expected = np.exp(-1j) + MODEL.R(1.0) * np.exp(1j)
        assert abs(got - expected) < 1e-15

    def test_plus_branch_vanishes_for_positive_k(self):
        for x in (-1.2, 0.7, 3.3):
            assert psi(MODEL, 1.0, "+", x) == 0.0

    def test_free_transmitted_side_is_plane_wave(self):
        for x in (0.5, 2.0):
            assert abs(psi(FREE, 2.0, "-", x) - np.exp(2j * x)) < 1e-15

    def test_continuity_at_origin(self):
        for k, br in ((-1.0, "+"), (2.0, "-"), (-0.35, "+")):
            h = 1e-9
            assert abs(psi(MODEL, k, br, h) - psi(MODEL, k, br, -h)) < 1e-7

    def test_derivative_is_analytic_limit(self):
        k, br, x = -1.4, "+", 0.8
        h = 1e-6
        fd = (psi(MODEL, k, br, x + h) - psi(MODEL, k, br, x - h)) / (2 * h)
        assert abs(fd - psi_prime(MODEL, k, br, x)) < 1e-8

    def test_derivative_at_origin_rejected(self):
        with pytest.raises(ValueError):
            psi_prime(MODEL, -1.0, "+", 0.0)

    @pytest.mark.parametrize("k,branch", [(1.0, "+"), (-0.6, "-")])
    def test_vanishing_branch(self, k, branch):
        # psi_k^+ lives on k < 0 and psi_k^- on k > 0
        for x in (-2.0, -1e-9, 0.0, 1e-9, 0.7):
            assert psi(MODEL, k, branch, x) == 0.0
        assert psi_prime(MODEL, k, branch, 0.7) == 0.0
        assert boundary_condition_residual(MODEL, k, branch) == 0.0
        with pytest.raises(ValueError, match="one-sided"):
            psi_prime(MODEL, k, branch, 0.0)

    @pytest.mark.parametrize("fn", [
        lambda k, br: psi(MODEL, k, br, 0.5),
        lambda k, br: psi_prime(MODEL, k, br, 0.5),
        lambda k, br: boundary_condition_residual(MODEL, k, br),
    ])
    def test_unknown_branch_and_zero_momentum_rejected(self, fn):
        for k in (1.0, -1.0):
            with pytest.raises(ValueError, match="branch must be"):
                fn(k, "x")
        with pytest.raises(ValueError, match="k != 0"):
            fn(0.0, "+")


class TestBoundaryCondition:
    @pytest.mark.parametrize(
        "k,branch", [(-1.0, "+"), (-2.7, "+"), (1.3, "-"), (0.4, "-")]
    )
    def test_eigenfunctions_satisfy_matching(self, k, branch):
        assert boundary_condition_residual(MODEL, k, branch) <= 1e-12

    def test_free_plane_wave(self):
        assert boundary_condition_residual(FREE, 2.0, "-") == 0.0

    def test_plane_wave_negative_control(self):
        # e^{ikx} has a continuous derivative: residual is exactly 2 eta
        assert plane_wave_bc_residual(MODEL, 1.0) == 2.0 * ETA


def loop_schrodinger_residual(model, k, branch, h, extent=5.0):
    """One grid point at a time: the reference for the sliced residual."""
    xs = np.arange(2 * h, extent, h)
    grid = np.concatenate([-xs[::-1], xs])
    vals = [psi(model, k, branch, x) for x in grid]
    worst = 0.0
    for i in range(1, len(grid) - 1):
        if i in (len(xs) - 1, len(xs)):
            continue  # the stencil would straddle the excluded origin
        second = (vals[i + 1] - 2 * vals[i] + vals[i - 1]) / (h * h)
        worst = max(worst, abs(-0.5 * second - 0.5 * k * k * vals[i]))
    return worst


class TestSchrodingerResidual:
    def test_reference_grid(self):
        assert schrodinger_residual(MODEL, -2.0, "+", h=1e-3, extent=5.0) <= 1e-4

    def test_free_case(self):
        assert schrodinger_residual(FREE, 2.0, "-", h=1e-3, extent=5.0) <= 1e-4

    def test_second_order_convergence(self):
        r1 = schrodinger_residual(MODEL, -2.0, "+", h=1e-3, extent=5.0)
        r2 = schrodinger_residual(MODEL, -2.0, "+", h=5e-4, extent=5.0)
        assert 3.0 < r1 / r2 < 5.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            schrodinger_residual(MODEL, -2.0, "+", h=0.0)

    @pytest.mark.parametrize("h", [1e-3, 5e-4])
    @pytest.mark.parametrize("eta,k,branch", [(1.0, -2.0, "+"), (0.5, 1.3, "-"),
                                              (3.0, -0.4, "+"), (1.0, 2.0, "+")])
    def test_half_line_slices_match_the_point_loop(self, eta, k, branch, h):
        model = DeltaModel(eta)
        want = loop_schrodinger_residual(model, k, branch, h)
        got = schrodinger_residual(model, k, branch, h=h)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


class TestOverlap:
    """The one-particle transition amplitude of the delta model is fock's
    projected-amplitude kernel on its pair: T(|p|) and R(|p|), times 2 pi."""

    def test_transmission_coefficient(self):
        diag = one_particle_amplitude(MODEL.pair, delta_2pi=True).A(2.0)[0, 0]
        assert abs(diag - TWO_PI * MODEL.T(2.0)) < 1e-13

    def test_reflection_coefficient(self):
        K = one_particle_amplitude(MODEL.pair, delta_2pi=True)
        assert abs(K.B(2.0)[0, 0] - TWO_PI * MODEL.R(2.0)) < 1e-13
        assert abs(K.B(-2.0)[0, 0] - TWO_PI * MODEL.R(2.0)) < 1e-13

    def test_free_is_pure_transmission(self):
        K = one_particle_amplitude(FREE.pair, delta_2pi=True)
        assert abs(K.A(1.1)[0, 0] - TWO_PI) < 1e-15
        assert K.B(1.1)[0, 0] == 0.0

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError):
            one_particle_amplitude(MODEL.pair).A(0.0)


class TestCrossRepresentation:
    """The analytic product and the engine agree coefficient-wise."""

    @pytest.mark.parametrize(
        "ks", [[-1.3, 2.1], [-2.2, -0.9, 1.7]]
    )
    def test_product_matches_engine(self, ks):
        n = len(ks)
        dm = MODEL.doubled()
        in_labels = [f"k{i+1}" for i in range(n)]
        out_labels = [f"p{i+1}" for i in range(n)]
        expr = n_particle_expression(n, in_labels, out_labels, dm)
        pos_out = {i: n - 1 - i for i in range(n)}
        pos_in = {i: n + i for i in range(n)}
        by_pairing = {t.pairing: t for t in expr.terms}
        for sigma in itertools.product((+1, -1), repeat=n):
            # out slot i carries p_i = sigma_i k_i: T(|k_i|) if sigma_i = +1, else R(|k_i|)
            coeff = np.prod([MODEL.T(abs(k)) if s == +1 else MODEL.R(abs(k))
                             for s, k in zip(sigma, ks)])
            pairing = tuple(
                sorted((pos_out[i], pos_in[i], sigma[i]) for i in range(n))
            )
            term = by_pairing[pairing]
            env = {in_labels[i]: ks[i] for i in range(n)}
            env = resolve_momenta(term, expr.word, env)
            tensor = evaluate_coefficient(expr, term, env, dm)
            p_sub = [sigma[i] * ks[i] for i in range(n)]
            # physical components: eps = sign(p), xi = -sign(k); xi = + is index 0
            eps = [0 if p > 0 else 1 for p in p_sub]
            xi = [0 if k < 0 else 1 for k in ks]
            idx = tuple(reversed(eps)) + tuple(xi)
            assert abs(complex(tensor[idx]) - coeff) <= 1e-11


def test_the_delta_pair_is_built_once_per_model(monkeypatch):
    """T, R and doubled() read one pair, built on first use."""
    built = []

    def counted(eta):
        built.append(eta)
        return delta_defect(eta)

    monkeypatch.setattr(deltamodel, "delta_defect", counted)
    model = DeltaModel(0.7)
    for k in KS[:10]:
        assert model.T(k) == complex(delta_defect(0.7).T(k)[0, 0])
        assert model.R(k) == complex(delta_defect(0.7).R(k)[0, 0])
    dms = [model.doubled() for _ in range(3)]
    assert built == [0.7]
    assert all(dm.half_line is model.pair for dm in dms)
    schrodinger_residual(model, -1.1, "+", h=0.05)
    assert built == [0.7]
