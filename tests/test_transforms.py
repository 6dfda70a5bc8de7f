"""FFT round trips, multipliers through the FFT pair, Poisson application, dyadic partition."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poissonops.core import BoundaryField, HalfSpaceField, SectorError, make_grids
from poissonops.norms import lp_norm
from poissonops.symbols import heat_kernel, kernel_catalog, kpp_kernel
from poissonops.transforms import (
    LPPartition,
    _itfft,
    _profile,
    _radial_profile,
    _tfft,
    apply_poisson,
    forward_fft,
    lp_blocks,
)
from symbol_reference import freeze_mu, inverse_fft


def _rng_field(grid, seed=5):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return BoundaryField(grid, samples)


# power-of-two tangential sizes up to 32 per axis
FFT_SIZES = dict(log2_N=st.integers(1, 5), seed=st.integers(0, 2**16))


@pytest.mark.parametrize(
    "dim, halfspace",
    [pytest.param(dim, False, id=f"{dim}") for dim in (1, 2, 3)]
    + [pytest.param(dim, True, id=f"halfspace-{dim}") for dim in (1, 2, 3)],
)
@settings(max_examples=20, deadline=None)
@given(**FFT_SIZES)
def test_fft_round_trip(dim, halfspace, log2_N, seed):
    grid, _ = make_grids(dim=dim, N=2**log2_N)
    g = _rng_field(grid, seed)
    back = inverse_fft(forward_fft(g), grid)
    np.testing.assert_allclose(back.samples, g.samples, atol=1e-12)
    if halfspace:
        # on a half-space array the tangential pair transforms the first
        # ``dim`` axes only: each normal slice maps as forward_fft unscaled
        rng = np.random.default_rng(seed)
        shape = grid.shape + (3,)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spec = _tfft(a, dim)
        for j in range(shape[-1]):
            want = forward_fft(BoundaryField(grid, a[..., j])) / math.sqrt(grid.cell)
            np.testing.assert_allclose(spec[..., j], want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_itfft(spec, dim), a, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), M=st.one_of(st.none(), st.integers(2, 6)), L=st.floats(0.5, 20.0), **FFT_SIZES)
@example(dim=1, M=None, L=math.pi, log2_N=6, seed=5)
def test_fft_plancherel(dim, M, L, log2_N, seed):
    # a boundary field (M is None) or a half-space field, transformed slice by slice
    grid, ngrid = make_grids(dim=dim, N=2**log2_N, L=L, M=M or 2)
    rng = np.random.default_rng(seed)
    shape = grid.shape + (() if M is None else (M,))
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if M is None:
        f = BoundaryField(grid, samples)
        power = np.sum(np.abs(forward_fft(f)) ** 2)
    else:
        f = HalfSpaceField(grid, ngrid, samples)
        slices = [np.sum(np.abs(forward_fft(BoundaryField(grid, samples[..., j]))) ** 2) for j in range(M)]
        power = np.dot(slices, ngrid.weights)
    # energies at 1e-13, so the norms agree within 5e-14
    assert power == pytest.approx(lp_norm(f, 2.0) ** 2, rel=1e-13)


def test_fft_single_mode_line():
    grid, _ = make_grids(N=16)
    x = grid.points_1d
    g = BoundaryField(grid, np.exp(1j * 3.0 * x))
    spec = forward_fft(g)
    k = grid.freqs_1d
    # all mass on the k=3 line, with the Plancherel-physical amplitude
    mass = np.abs(spec) ** 2
    assert mass[k == 3.0].sum() == pytest.approx(mass.sum(), rel=1e-12)
    assert mass.sum() == pytest.approx(2.0 * math.pi, rel=1e-12)


def _multiply(symbol, samples, grid):
    """Apply the tangential multiplier ``symbol`` (one value per mode) through the FFT pair."""
    return _itfft(symbol * _tfft(samples, grid.dim), grid.dim)


def test_multiplier_identity_and_linearity():
    # the symbol 1 returns g, and the pair is linear over complex coefficients
    grid, _ = make_grids(N=16)
    f, g = _rng_field(grid, 1), _rng_field(grid, 2)
    one = np.ones(grid.shape)
    np.testing.assert_allclose(_multiply(one, g.samples, grid), g.samples, atol=1e-12)
    decay = np.exp(-grid.freq_norm_sq)
    lhs = _multiply(decay, 2.0 * f.samples - 1j * g.samples, grid)
    rhs = 2.0 * _multiply(decay, f.samples, grid) - 1j * _multiply(decay, g.samples, grid)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_multiplier_contraction_for_unimodular_bound():
    # |<xi>^-1| <= 1 per mode, so by Plancherel it does not raise the L^2 norm
    grid, _ = make_grids(N=32)
    g = _rng_field(grid)
    out = _multiply((1.0 + grid.freq_norm_sq) ** -0.5, g.samples, grid)
    assert np.sum(np.abs(out) ** 2) <= np.sum(np.abs(g.samples) ** 2) + 1e-12


@pytest.mark.parametrize("dim, axis", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_shift_symbol_rolls_each_axis(dim, axis):
    # per axis the sign convention is the one-dimensional one: exp(i h k_axis) shifts by one cell along it
    grid, _ = make_grids(dim=dim, N=8)
    g = _rng_field(grid)
    shift = np.exp(1j * (grid.L / grid.N) * grid.freq_vectors[..., axis])
    np.testing.assert_allclose(_multiply(shift, g.samples, grid), np.roll(g.samples, -1, axis=axis), atol=1e-12)


def test_apply_poisson_sector_check():
    # the spectral parameter is checked against the kernel's sector before any transform
    grid, ngrid = make_grids(N=16, M=8)
    for mu in (None, -3.0, 2j):
        with pytest.raises(SectorError):
            apply_poisson(heat_kernel, mu, _rng_field(grid), ngrid)


def test_multiplier_shift_symbol_rolls_samples():
    # the pair's sign convention: through it the symbol exp(i h k) is the shift g(x) -> g(x + h)
    grid, _ = make_grids(N=16)
    g = _rng_field(grid)
    shift = np.exp(1j * grid.cell * grid.freq_vectors[..., 0])
    np.testing.assert_allclose(_multiply(shift, g.samples, grid), np.roll(g.samples, -1), atol=1e-12)


def test_multiplier_group_law():
    # damping by 0.2 and then by 0.3 in |xi|^2 is damping by 0.5
    grid, _ = make_grids(N=32)
    g = _rng_field(grid)

    def damp(c, samples):
        return _multiply(np.exp(-c * grid.freq_norm_sq), samples, grid)

    np.testing.assert_allclose(damp(0.3, damp(0.2, g.samples)), damp(0.5, g.samples), atol=1e-12)


def test_apply_poisson_heat_constant_data():
    grid, ngrid = make_grids(N=16, M=64)
    g = BoundaryField(grid, np.ones(grid.shape, dtype=complex))
    u = apply_poisson(heat_kernel, 1.0, g, ngrid)
    # constant data excites only xi'=0: u(x) = exp(-sqrt(2) x)
    want = np.exp(-math.sqrt(2.0) * ngrid.nodes)
    np.testing.assert_allclose(u.samples, np.broadcast_to(want, u.samples.shape), atol=1e-12)


def test_apply_poisson_single_mode():
    grid, ngrid = make_grids(N=16, M=32)
    x = grid.points_1d
    g = BoundaryField(grid, np.exp(1j * 2.0 * x))
    u = apply_poisson(heat_kernel, 1.0, g, ngrid)
    tau = math.sqrt(1.0 + 4.0 + 1.0)
    want = np.exp(1j * 2.0 * x)[:, None] * np.exp(-tau * ngrid.nodes)[None, :]
    np.testing.assert_allclose(u.samples, want, atol=1e-12)


def test_apply_poisson_trace_recovers_data():
    grid, ngrid = make_grids(N=16, M=32)
    g = _rng_field(grid)
    u = apply_poisson(heat_kernel, 1.0, g, ngrid)
    np.testing.assert_allclose(u.trace().samples, g.samples, atol=1e-12)


def test_apply_poisson_zero_kernel():
    grid, ngrid = make_grids(N=8, M=16)
    u = apply_poisson(kernel_catalog("zero"), None, _rng_field(grid), ngrid)
    assert np.all(u.samples == 0)


def test_apply_poisson_linearity():
    grid, ngrid = make_grids(N=16, M=32)
    g1, g2 = _rng_field(grid, 1), _rng_field(grid, 2)
    combined = BoundaryField(grid, 2.0 * g1.samples - 1j * g2.samples)
    lhs = apply_poisson(heat_kernel, 1.0, combined, ngrid)
    rhs = (
        2.0 * apply_poisson(heat_kernel, 1.0, g1, ngrid).samples
        - 1j * apply_poisson(heat_kernel, 1.0, g2, ngrid).samples
    )
    np.testing.assert_allclose(lhs.samples, rhs, atol=1e-12)


_PROFILE_KERNELS = {
    "heat": (heat_kernel, 1.0),
    "heat-complex": (heat_kernel, 3.0 + 1.0j),
    "kpp": (kpp_kernel(2.5), 0.7),
    "kpp-complex": (kpp_kernel(2.5), 0.4 - 0.3j),
    "heat-frozen": (freeze_mu(heat_kernel, 2.0 + 0.5j), None),
    "constant-one": (kernel_catalog("constant-one"), None),
}


@pytest.mark.parametrize("name", sorted(_PROFILE_KERNELS))
@pytest.mark.parametrize("dim, N, M, L", [(1, 64, 24, 2.0 * math.pi), (2, 16, 12, 3.0), (3, 8, 8, 3.0)])
def test_profile_matches_the_per_mode_evaluation(name, dim, N, M, L):
    # evaluated once per distinct |xi|^2 and gathered: every mode keeps its bits,
    # also where permuted frequencies round to different |xi|^2 (L = 3)
    # a decay kernel at a real mu is the real exponential of its rate, per mode
    k, mu = _PROFILE_KERNELS[name]
    grid, ngrid = make_grids(dim=dim, N=N, M=M, L=L)
    if name in ("heat", "kpp"):
        want = np.exp(-k.rate(grid.freq_vectors[..., None, :], mu).real * ngrid.nodes)
    else:
        want = np.asarray(k.func(grid.freq_vectors[..., None, :], mu, ngrid.nodes), dtype=complex)
    got = _profile(k, mu, grid, ngrid)
    assert got.shape == grid.shape + (M,) and got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(_PROFILE_KERNELS))
@pytest.mark.parametrize("dim, N, M, L", [(1, 64, 24, 2.0 * math.pi), (2, 16, 12, 3.0)])
def test_a_decay_profile_is_one_real_exponential_on_the_real_axis(name, dim, N, M, L):
    # at a real mu a decay kernel's profile is float64, within an ulp of the real part of func,
    # whose imaginary part is exactly 0; a complex mu or a kernel without a rate keeps func's bits
    k, mu = _PROFILE_KERNELS[name]
    grid, ngrid = make_grids(dim=dim, N=N, M=M, L=L)
    want = np.asarray(k.func(grid.radial[0][:, None, :], mu, ngrid.nodes), dtype=complex)
    got = _radial_profile(k, mu, grid, ngrid)
    if name in ("heat", "kpp"):
        assert got.dtype == np.float64 and np.all(want.imag == 0.0)
        assert np.all(np.abs(got - want.real) <= np.spacing(np.abs(want.real)))
    else:
        assert got.dtype == np.complex128 and np.array_equal(got, want)


def test_partition_profile_plateaus():
    r = np.array([0.5, 1.0, 2.0, 4.0])
    prof = LPPartition.profile(r)
    np.testing.assert_allclose(prof, [1.0, 1.0, 0.0, 0.0], atol=1e-15)
    mid = LPPartition.profile(np.array([math.sqrt(2.0)]))
    assert mid[0] == pytest.approx(0.5, abs=1e-12)


def test_partition_telescopes_to_one():
    grid, _ = make_grids(N=64)
    part = LPPartition.for_grid(grid)
    r = np.abs(grid.freqs_1d)
    total = np.zeros_like(r)
    for j in range(part.J + 1):
        total = total + part.block_weight(j, r)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_lp_blocks_reconstruct_field():
    grid, _ = make_grids(N=64)
    g = _rng_field(grid)
    blocks = lp_blocks(g)
    recon = np.sum([b.samples for b in blocks], axis=0)
    np.testing.assert_allclose(recon, g.samples, atol=1e-12)


def test_lp_blocks_mode_selectivity():
    grid, _ = make_grids(N=64)
    x = grid.points_1d
    const = BoundaryField(grid, np.ones(grid.shape, dtype=complex))
    blocks = lp_blocks(const)
    # zero frequency lives entirely in the base block
    assert np.max(np.abs(blocks[0].samples - 1.0)) < 1e-12
    for b in blocks[1:]:
        assert np.max(np.abs(b.samples)) < 1e-12

    mode4 = BoundaryField(grid, np.exp(1j * 4.0 * x))
    blocks = lp_blocks(mode4)
    energies = [float(np.sum(np.abs(b.samples) ** 2)) for b in blocks]
    # |k| = 4 = 2^2 sits at a dyadic edge: exactly one active block
    assert energies[2] == pytest.approx(sum(energies), rel=1e-12)


def test_lp_blocks_disjoint_inputs_add():
    grid, _ = make_grids(N=64)
    g = _rng_field(grid)
    part = LPPartition.for_grid(grid)
    blocks1 = lp_blocks(g, part)
    blocks2 = lp_blocks(g)
    assert len(blocks1) == len(blocks2) == part.J + 1
    for b1, b2 in zip(blocks1, blocks2):
        np.testing.assert_allclose(b1.samples, b2.samples, atol=1e-14)
