"""Grids, fields, sectors, and the parameter bracket."""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from poissonops.core import (
    TWO_PI,
    BoundaryField,
    HalfSpaceField,
    NormalGrid,
    Sector,
    SectorError,
    TangentialGrid,
    _xi_sq,
    bracket,
    make_grids,
)


def test_bracket_values():
    assert bracket([1.0, 2.0], 2.0) == pytest.approx(math.sqrt(10.0), rel=1e-15)
    assert bracket([1.0, 2.0]) == pytest.approx(math.sqrt(6.0), rel=1e-15)
    assert bracket(2.0) == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert bracket(0.0) == 1.0
    # the last axis holds the components; mu broadcasts against the leading axes
    np.testing.assert_allclose(bracket([[1.0, 2.0], [0.0, 0.0]], 2.0), [math.sqrt(10.0), math.sqrt(5.0)], rtol=1e-15)
    np.testing.assert_allclose(bracket([[0.0], [3.0]], [1j, 0.0]), [math.sqrt(2.0), math.sqrt(10.0)], rtol=1e-15)
    assert bracket(np.zeros((2, 1, 3)), np.ones(4)).shape == (2, 4)


def test_bracket_complex_parameter():
    # |mu|^2 enters, not mu^2: a unimodular parameter adds exactly one
    assert bracket(0.0, 1j) == pytest.approx(math.sqrt(2.0), rel=1e-15)


_COMPONENT = st.floats(-1e3, 1e3)


@settings(max_examples=200, deadline=None)
@given(
    xi=hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, max_side=4), elements=_COMPONENT),
    mu_re=_COMPONENT,
    mu_im=_COMPONENT,
)
def test_bracket_on_arrays_is_the_scalar_formula_per_frequency(xi, mu_re, mu_im):
    # one value per frequency vector on the last axis, each >= 1; a scalar mu
    # and a mu array over the leading axes give the same weights
    lead = xi.shape[:-1]
    mus = complex(mu_re, mu_im) * np.exp(1j * np.arange(math.prod(lead))).reshape(lead)
    got = bracket(xi, mus)
    assert got.shape == lead
    assert np.all(got >= 1.0)
    for idx in np.ndindex(lead):
        want = math.sqrt(1.0 + sum(x * x for x in xi[idx]) + abs(mus[idx]) ** 2)
        assert got[idx] == pytest.approx(want, rel=1e-14)
        assert got[idx] == bracket(xi[idx], mus[idx])
    scalar = complex(mu_re, mu_im)
    np.testing.assert_array_equal(bracket(xi, scalar), bracket(xi, np.full(lead, scalar)))


@pytest.mark.parametrize(
    "mu,inside",
    [
        (1.0, True),
        (1j, False),
        (complex(1.0, 0.99), True),
        (-1.0, False),
        (0.0, False),
    ],
)
def test_symmetric_sector_membership(mu, inside):
    sec = Sector.symmetric(0.25 * math.pi)
    assert sec.contains(mu) is inside


def test_sector_wraps_branch_cut():
    # (pi/2, 3pi/2) covers the negative real axis even though arg(-1)=pi-2pi*k
    sec = Sector(0.5 * math.pi, 1.5 * math.pi)
    assert sec.contains(-1.0)
    assert sec.contains(complex(-1.0, -0.1))
    assert not sec.contains(1.0)


@settings(max_examples=300, deadline=None)
@example(alpha=-10.0, width=0.5, theta=-9.75, radius=1.0)
@example(alpha=9.5, width=0.5, theta=9.75, radius=1.0)
@example(alpha=7.0, width=5.0, theta=7.5, radius=1.0)
@given(
    alpha=st.floats(-4.0 * math.pi, 4.0 * math.pi),
    width=st.floats(1e-9, TWO_PI),
    theta=st.floats(-4.0 * math.pi, 4.0 * math.pi),
    radius=st.floats(1e-3, 1e3),
)
def test_sector_membership_on_any_turn(alpha, width, theta, radius):
    # arg mu = theta lies in (alpha, alpha + width) modulo 2 pi, on whatever
    # turn alpha is; draws within 1e-9 of an edge are skipped
    sec = Sector(alpha, alpha + width)
    rel = theta - alpha - TWO_PI * math.floor((theta - alpha) / TWO_PI)  # in [0, 2 pi)
    opening = sec.beta - sec.alpha
    assume(min(rel, abs(rel - opening), TWO_PI - rel) > 1e-9)
    mu = cmath.rect(radius, theta)
    inside = rel < opening
    assert sec.contains(mu) is inside
    if inside:
        assert sec.require(mu) == mu
    else:
        with pytest.raises(SectorError):
            sec.require(mu)


def test_empty_sector_contains_nothing():
    sec = Sector.empty()
    for mu in (1.0, -1.0, 1j, complex(2.0, -3.0)):
        assert not sec.contains(mu)


def test_sector_require():
    sec = Sector.symmetric(0.25 * math.pi)
    got = sec.require(1.0)
    assert type(got) is complex and got == 1.0
    for mu in (None, 0.0, -1.0, 1j):
        with pytest.raises(SectorError):
            sec.require(mu)
    assert Sector.empty().require(None) is None
    with pytest.raises(SectorError):
        Sector.empty().require(1.0)


def test_sector_validation():
    with pytest.raises(ValueError):
        Sector(1.0, 1.0)
    with pytest.raises(ValueError):
        Sector(0.0, 7.0)


def test_sector_error_is_value_error():
    assert issubclass(SectorError, ValueError)


def test_tangential_grid_frequencies():
    grid = TangentialGrid(1, 8, 2.0 * math.pi)
    assert sorted(grid.freqs_1d.tolist()) == [-4, -3, -2, -1, 0, 1, 2, 3]
    # FFT ordering: nonnegative block first
    assert grid.freqs_1d[0] == 0.0
    assert grid.nyquist == pytest.approx(4.0)
    assert grid.cell == pytest.approx(2.0 * math.pi / 8)


def test_tangential_grid_box_scaling():
    grid = TangentialGrid(1, 8, math.pi)
    assert sorted(grid.freqs_1d.tolist()) == [-8, -6, -4, -2, 0, 2, 4, 6]


def test_tangential_grid_multi_dim():
    grid = TangentialGrid(2, 4, 2.0 * math.pi)
    assert grid.shape == (4, 4)
    assert grid.freq_vectors.shape == (4, 4, 2)
    assert grid.freq_norm_sq.shape == (4, 4)
    k = grid.freqs_1d
    expect = k[:, None] ** 2 + k[None, :] ** 2
    np.testing.assert_allclose(grid.freq_norm_sq, expect)


@pytest.mark.parametrize(
    "dim, N, L", [(1, 16, TWO_PI), (1, 256, 3.0), (2, 16, TWO_PI), (2, 16, 3.0), (3, 8, TWO_PI), (3, 8, 3.0)]
)
def test_radial_representatives_give_every_mode_its_own_bits(dim, N, L):
    # on L = 3 grids permuted frequencies round to different |xi|^2, so keys
    # rebuilt from radii would merge modes the computed values keep apart
    grid = TangentialGrid(dim, N, L)
    reps, inverse = grid.radial
    keys = _xi_sq(reps)
    assert reps.shape == (keys.size, dim) and inverse.shape == grid.shape
    assert np.array_equal(keys[inverse], grid.freq_norm_sq)
    assert np.all(np.diff(keys) > 0)
    if dim == 1:
        assert keys.size == N // 2 + 1
    again = grid.radial
    assert again[0] is reps and again[1] is inverse


@pytest.mark.parametrize("dim, N, L", [(1, 16, TWO_PI), (2, 16, 3.0), (3, 8, TWO_PI)])
def test_class_sum_adds_the_modes_of_each_radial_class(dim, N, L):
    grid = TangentialGrid(dim, N, L)
    inverse = grid.radial[1].ravel()
    a = np.random.default_rng(dim).standard_normal((2, 3, inverse.size))
    want = np.stack([a[..., inverse == r].sum(axis=-1) for r in range(len(grid.radial[0]))], axis=-1)
    np.testing.assert_allclose(grid.class_sum(a), want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("bad_n", [0, 3, 6, 12])
def test_tangential_grid_rejects_non_power_of_two(bad_n):
    with pytest.raises(ValueError):
        TangentialGrid(1, bad_n, 2.0 * math.pi)


def test_normal_grid_nodes_and_weights():
    grid = NormalGrid(3, 3.0, 2.0)
    np.testing.assert_allclose(grid.nodes, [0.0, 1.0, 3.0], atol=1e-14)
    # trapezoid weights integrate constants exactly
    assert grid.weights.sum() == pytest.approx(3.0, rel=1e-14)
    assert np.sum(np.ones(3) * grid.weights) == pytest.approx(3.0, rel=1e-14)


def test_normal_grid_grading_monotone():
    grid = NormalGrid(64, 16.0, 1.05)
    gaps = np.diff(grid.nodes)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == pytest.approx(16.0, rel=1e-12)
    assert np.all(gaps > 0)
    ratios = gaps[1:] / gaps[:-1]
    np.testing.assert_allclose(ratios, 1.05, rtol=1e-10)


def test_normal_grid_integrates_linear_exactly():
    grid = NormalGrid(32, 4.0, 1.1)
    # trapezoid rule is exact on affine integrands
    assert np.sum((2.0 * grid.nodes + 1.0) * grid.weights) == pytest.approx(20.0, rel=1e-12)


def test_normal_grid_validation():
    with pytest.raises(ValueError):
        NormalGrid(1, 16.0, 1.05)
    with pytest.raises(ValueError):
        NormalGrid(16, 16.0, 1.0)
    with pytest.raises(ValueError):
        NormalGrid(16, 0.0, 1.05)


def test_make_grids_defaults():
    tg, ng = make_grids()
    assert (tg.dim, tg.N, tg.L) == (1, 256, 2.0 * math.pi)
    assert (ng.M, ng.X_max, ng.r) == (256, 16.0, 1.05)


def test_fields_shape_checks():
    tg, ng = make_grids(N=8, M=16)
    with pytest.raises(ValueError):
        BoundaryField(tg, np.zeros(7))
    with pytest.raises(ValueError):
        HalfSpaceField(tg, ng, np.zeros((8, 15)))


def test_field_zero_and_trace():
    tg, ng = make_grids(N=8, M=16)
    u = HalfSpaceField.zero(tg, ng)
    assert u.samples.shape == (8, 16)
    samples = np.outer(np.arange(8.0), np.ones(16)) + 1.0
    v = HalfSpaceField(tg, ng, samples).trace()
    assert isinstance(v, BoundaryField)
    np.testing.assert_allclose(v.samples, np.arange(8.0) + 1.0)
