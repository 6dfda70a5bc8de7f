"""Symbol kernels, their normal profiles, seminorm scans and the envelope maximum."""
from __future__ import annotations

import functools
import gc
import itertools
import math
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poissonops.core import NormalGrid, Sector, SectorError, _xi_sq, bracket
from poissonops.symbols import (
    _HALF_SECTOR,
    _KERNELS,
    _STEN_RADIUS,
    _STIRLING2,
    ProbeSpec,
    SymbolKernel,
    _central_difference,
    _spectral_lattice,
    constant_one,
    heat_kernel,
    kernel_catalog,
    kpp_kernel,
    lemma_max_eval,
    seminorm_table,
    zero_kernel,
)
from symbol_reference import freeze_mu

SQRT2 = math.sqrt(2.0)


def test_heat_kernel_point_values():
    assert heat_kernel.func(0.0, 1.0, 1.0) == pytest.approx(math.exp(-SQRT2), rel=1e-14)
    assert heat_kernel.func(math.sqrt(3.0), 1.0, 1.0) == pytest.approx(math.exp(-math.sqrt(5.0)), rel=1e-14)
    assert heat_kernel.func(5.0, 2.0, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_kpp_kernel_point_value():
    k = kpp_kernel(1.0)
    assert k.func(1.0, math.sqrt(3.0), 1.0) == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_rescaled_heat_kernel_values():
    # ktilde(xi, mu, t) = k(xi, mu, t / <xi, mu>); ktilde(0, 1, t) = exp(-sqrt(2) * t / sqrt(2)) = exp(-t)
    assert heat_kernel.func(0.0, 1.0, 1.0 / bracket(0.0, 1.0)) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_rescaling_on_stacked_frequencies_is_pointwise():
    # each frequency row is rescaled by its own <xi, mu>, not by one weight of
    # the whole stack; for real mu the heat kernel gives exp(-t) on every row
    xi = np.array([[1.0], [2.0]])
    got = heat_kernel.func(xi, 1.0, 1.0 / bracket(xi, 1.0))
    want = [heat_kernel.func(row, 1.0, 1.0 / bracket(row, 1.0)) for row in xi]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(got, math.exp(-1.0), rtol=1e-15)


def test_heat_kernel_sector_checks():
    with pytest.raises(SectorError):
        heat_kernel.sector.require(None)
    with pytest.raises(SectorError):
        heat_kernel.sector.require(-3.0)


@pytest.mark.parametrize("kernel", [heat_kernel, kpp_kernel(1.0)])
def test_conjugate_symmetry(kernel):
    mu = 2.0 * complex(math.cos(math.pi / 8), math.sin(math.pi / 8))
    xn = np.array([0.0, 0.3, 1.7])
    left = kernel.func(-1.3, np.conj(mu), xn)
    right = np.conj(kernel.func(1.3, mu, xn))
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-15)


def test_seminorm_heat_base_value():
    # order zero: sup of |ktilde| over the lattice, attained at t=0
    assert seminorm_table(heat_kernel, 0)[0] == pytest.approx(1.0, abs=1e-9)


def test_seminorm_monotone_in_budget():
    vals = [seminorm_table(heat_kernel, n)[n] for n in range(3)]
    assert vals[0] <= vals[1] <= vals[2]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_seminorm_heat_refinement_stable(n):
    base = seminorm_table(heat_kernel, n)[n]
    fine = seminorm_table(heat_kernel, n, ProbeSpec().refined())[n]
    assert fine < 1.10 * base


def test_seminorm_constant_one_diverges():
    base = seminorm_table(constant_one, 1)[1]
    fine = seminorm_table(constant_one, 1, ProbeSpec().refined())[1]
    # sup of t * |ktilde| tracks the t-range, so refinement scales it by 4
    assert fine == pytest.approx(4.0 * base, rel=1e-12)
    assert fine / base > 1.5


def test_seminorm_zero_kernel():
    assert seminorm_table(zero_kernel, 2) == [0.0, 0.0, 0.0]


def test_seminorm_table_refuses_a_non_finite_lattice_value():
    # a NaN in the lattice must not be folded away into a clean-looking table
    def func(xi, mu, xn, order=0):
        return np.where(_xi_sq(xi) > 30.0, np.nan, heat_kernel.func(xi, mu, xn, order))

    broken = replace(heat_kernel, name="heat-nan", func=func, rate=None)
    with pytest.raises(ValueError, match=r"'heat-nan'.* order 0"):
        seminorm_table(broken, 2)


def test_seminorm_budget_validation():
    with pytest.raises(ValueError):
        seminorm_table(heat_kernel, 5)
    with pytest.raises(ValueError):
        seminorm_table(heat_kernel, -1)


def test_weak_seminorm_frozen_heat_uniform_in_mu():
    # weak-class scan of the frozen heat kernel: bounded, no growth in |mu|
    vals = [
        seminorm_table(freeze_mu(heat_kernel, mu, kind="weak"), 2)[2] for mu in (1.0, 10.0, 100.0, 1000.0)
    ]
    assert all(v <= 5.0 for v in vals)
    assert vals[-1] <= 1.1 * max(vals[0], vals[1])


@pytest.mark.parametrize(
    "kernel, N",
    [
        (heat_kernel, 4),
        (replace(heat_kernel, kind="weak"), 4),
        (kpp_kernel(1.0), 2),
        (freeze_mu(heat_kernel, 2 + 1j), 4),
        (constant_one, 4),
        (zero_kernel, 4),
    ],
    ids=["heat", "heat-weak", "kpp", "heat-frozen", "constant-one", "zero"],
)
def test_seminorm_table_is_the_seminorm_per_order(kernel, N):
    # one sweep per probe gives every order's seminorm exactly: a smaller budget's last entry
    table = seminorm_table(kernel, N)
    assert table == [seminorm_table(kernel, n)[n] for n in range(N + 1)]
    assert all(lo <= hi for lo, hi in zip(table, table[1:]))


def _counted(k: SymbolKernel) -> tuple[SymbolKernel, list]:
    """``k`` with its evaluator wrapped to record one entry per call."""
    calls = []

    def func(*args):
        calls.append(args)
        return k.func(*args)

    return replace(k, func=func), calls


def test_seminorm_table_kernel_calls_do_not_grow_with_the_spectral_samples():
    # the whole (mu, xi, t) lattice is one kernel call per stencil offset
    counts = []
    for probe in (ProbeSpec(), ProbeSpec(rays=(0.0,))):
        k, calls = _counted(heat_kernel)
        seminorm_table(k, 4, probe)
        counts.append(len(calls))
    assert len(ProbeSpec().mu_values(_HALF_SECTOR)) == 3 * len(ProbeSpec(rays=(0.0,)).mu_values(_HALF_SECTOR))
    assert counts[0] == counts[1]


def _table_at_every_offset(k: SymbolKernel, N: int, probe: ProbeSpec | None = None, offsets: set | None = None):
    """Reference seminorm table that evaluates the kernel at every stencil offset, negative xi offsets too.

    ``offsets``, if given, collects the distinct offsets evaluated.
    """
    probe = probe or ProbeSpec()
    mu, xi, br, h = _spectral_lattice(probe, k.sector)
    t = probe.t_values()[None, :]

    @functools.cache
    def at(offset):
        if offsets is not None:
            offsets.add(offset)
        i, p, q, s = offset
        xs = (xi + i * h)[..., None]
        ms = None if mu is None else mu + (p + 1j * q) * h
        return np.asarray(k.func(xs, ms, np.maximum(t + s * h, 0.0) / bracket(xs, ms)), dtype=complex)

    per_order = [0.0] * (N + 1)
    nmu = N if mu is not None else 0
    for a, b1, b2 in itertools.product(range(N + 1), range(nmu + 1), range(nmu + 1)):
        rem = N - a - b1 - b2
        if rem < 0:
            continue
        gs = [_central_difference(at, (a, b1, b2, j), h) for j in range(rem + 1)]
        for m, l in itertools.product(range(rem + 1), range(rem + 1)):
            if m + l > rem:
                continue
            if k.kind == "strong":
                vals = np.abs(t**l * gs[m])
            else:
                g = sum(c * t**j * gs[j] for j, c in _STIRLING2[m].items())
                vals = np.abs(g) * (1.0 + t * t) ** (0.5 * l)
            vals = vals * br ** (-k.order + a + b1 + b2)
            top = float(np.max(np.where(t - _STEN_RADIUS[m] * h >= 0.0, vals, 0.0)))
            per_order[a + b1 + b2 + m + l] = max(per_order[a + b1 + b2 + m + l], top)
    return list(itertools.accumulate(per_order, max))


@pytest.mark.parametrize("probe", [ProbeSpec(), ProbeSpec(level=1, rays=(0.0, -1.2))], ids=["default", "pinned"])
@pytest.mark.parametrize("kind", ["strong", "weak"])
@pytest.mark.parametrize("name", ["heat", "kpp", "heat-frozen", "constant-one", "zero"])
def test_seminorm_table_matches_every_offset_evaluated(name, kind, probe):
    # offsets -i are the samples at +i read at -xi, bit for bit
    k = replace(_FOLD_KERNELS[name](0.5), kind=kind)
    assert seminorm_table(k, 4, probe) == _table_at_every_offset(k, 4, probe)


def test_seminorm_table_evaluates_each_mirrored_offset_once():
    # a heat N = 4 table reads 137 stencil offsets, 97 of them with i >= 0
    seen: set = set()
    _table_at_every_offset(heat_kernel, 4, offsets=seen)
    k, calls = _counted(heat_kernel)
    seminorm_table(k, 4)
    assert (len(seen), len({(abs(i), *rest) for i, *rest in seen}), len(calls)) == (137, 97, 97)


def test_seminorm_table_refuses_asymmetric_xi_values(monkeypatch):
    monkeypatch.setattr(ProbeSpec, "xi_values", lambda self: np.array([0.0, 0.25, 1.0, -0.25]))
    with pytest.raises(RuntimeError, match="not symmetric"):
        seminorm_table(heat_kernel, 2)


def _traced_table(k: SymbolKernel, N: int, probe: ProbeSpec | None = None) -> tuple[int, int]:
    """Bytes held after ``seminorm_table`` returns and at its peak, beyond those held before, with the cyclic GC off."""
    seminorm_table(k, N, probe)  # lazy state, once per process
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        seminorm_table(k, N, probe)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    return after - before, peak - before


def test_seminorm_table_frees_its_samples_without_the_cyclic_gc():
    # each sample goes by reference counting at its last read; a cached closure
    # that called itself would be a cycle that outlives the table.  What stays
    # is the interpreter's free lists of small tuples and floats
    after, peak = _traced_table(heat_kernel, 4)
    # 0.81 MiB; holding every sample to the end took 2.1
    assert peak < 2**20
    assert after < 2**18


@pytest.mark.parametrize("level, ceiling", [(1, 4 * 2**20), (2, 24 * 2**20)])
def test_seminorm_table_peak_at_finer_levels(level, ceiling):
    # heat N = 4 peaks at 3.5 MiB at level 1 and 19.6 MiB at level 2; holding
    # all 97 samples to the end took 9.7 and 55.4
    assert _traced_table(heat_kernel, 4, ProbeSpec(level))[1] < ceiling


def test_seminorm_table_holds_at_most_28_samples_at_once():
    # a sample is let go at its last read, and the groups of even xi-order,
    # the only readers of the i = 0 samples, come first: 28 of the 97 live at
    # most (46 with the groups in xi-order, 97 with every sample kept)
    live, most = [0], [0]

    def func(*args):
        value = np.asarray(heat_kernel.func(*args), dtype=complex)  # seminorm_table's own asarray keeps it
        live[0] += 1
        most[0] = max(most[0], live[0])
        weakref.finalize(value, lambda: live.__setitem__(0, live[0] - 1))
        return value

    seminorm_table(replace(heat_kernel, func=func), 4, ProbeSpec(1))
    assert most[0] <= 28
    assert live[0] == 0


# every catalog kernel, built from the diffusivity d, and a frozen one
_FOLD_KERNELS = {**_KERNELS, "heat-frozen": lambda d: freeze_mu(heat_kernel, 2 + 1j)}


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(_FOLD_KERNELS)),
    d=st.floats(0.2, 5.0),
    N=st.integers(0, 2),
    fracs=st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=3),
)
def test_seminorm_table_is_the_max_over_its_rays(name, d, N, fracs):
    # stacking the spectral samples on one axis folds them by max, exactly
    k = _FOLD_KERNELS[name](d)
    rays = [f * _HALF_SECTOR.beta for f in fracs]
    singles = [seminorm_table(k, N, ProbeSpec(rays=(r,))) for r in rays]
    assert seminorm_table(k, N, ProbeSpec(rays=tuple(rays))) == [max(col) for col in zip(*singles)]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_FOLD_KERNELS)),
    d=st.floats(0.2, 5.0),
    xi=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=3),
    mu_abs=st.floats(0.01, 100.0),
    mu_frac=st.floats(-0.99, 0.99),
)
@example(name="kpp", d=2.5, xi=[3.0, -0.1, 7.25], mu_abs=2.0, mu_frac=0.5)
def test_kernels_read_xi_only_through_its_square(name, d, xi, mu_abs, mu_frac):
    # the radial contract: every sign flip and axis permutation of xi with the
    # same computed |xi|^2 gets the same values, bit for bit
    k = _FOLD_KERNELS[name](d)
    mu = None if k.sector.is_empty else mu_abs * np.exp(1j * mu_frac * k.sector.beta)
    xi = np.array(xi)
    xn = np.array([0.0, 0.05, 0.5, 3.0])
    variants = [
        np.array(signs) * xi[list(perm)]
        for perm in itertools.permutations(range(xi.size))
        for signs in itertools.product((1.0, -1.0), repeat=xi.size)
    ]
    same = [v for v in variants if _xi_sq(v) == _xi_sq(xi)]
    hooks = [lambda x, n: k.func(x, mu, xn, n)]
    if k.rate is not None:
        hooks.append(lambda x, n: k.rate(x, mu))
    for hook in hooks:
        for order in range(4):
            want = hook(xi, order)
            assert all(np.array_equal(hook(v, order), want) for v in same)


def test_probe_rays_outside_the_sector_raise():
    # heat's sector is |arg mu| < 0.45 pi; a pinned ray must not leave it
    with pytest.raises(SectorError):
        seminorm_table(heat_kernel, 1, ProbeSpec(rays=(3.0,)))


def _heat_normal_profile(lp, probe, ngrid, p):
    """``<xi, mu>^(1/p - l') || d^l' k / dx_n^l' ||_{L^p(R_+)}`` of the heat kernel over the probe lattice.

    The ``L^p`` norm is the trapezoid sum on ``ngrid`` (the pointwise maximum at ``p = inf``).
    """
    mu, xi, br, _ = _spectral_lattice(probe, heat_kernel.sector)
    vals = np.abs(heat_kernel.func(xi[..., None], mu, ngrid.nodes, lp))
    if math.isinf(p):
        return br[..., 0] ** -lp * vals.max(axis=-1)
    return br[..., 0] ** (1.0 / p - lp) * ngrid.integrate(vals**p) ** (1.0 / p)


# on a real ray the decay rate tau is the bracket weight <xi, mu>, and each normal
# derivative gives one more factor tau: || tau^l' exp(-tau x) ||_p = tau^(l' - 1/p) p^(-1/p)
@pytest.mark.parametrize("lp", [0, 1, 2])
def test_heat_normal_profile_p2_real_rays(lp):
    got = _heat_normal_profile(lp, ProbeSpec(rays=(0.0,)), NormalGrid(256), 2.0)
    np.testing.assert_allclose(got, 2.0**-0.5, rtol=5e-3)


@pytest.mark.parametrize("lp", [0, 1, 2])
def test_heat_normal_profile_p1_real_rays(lp):
    got = _heat_normal_profile(lp, ProbeSpec(rays=(0.0,)), NormalGrid(256), 1.0)
    np.testing.assert_allclose(got, 1.0, rtol=1e-2)


@pytest.mark.parametrize("lp", [0, 1, 2])
def test_heat_normal_profile_sup_norm(lp):
    # off the real ray |tau|^2 = |1 + |xi|^2 + mu^2| < <xi, mu>^2, so the supremum, taken at x = 0, stays below 1
    got = _heat_normal_profile(lp, ProbeSpec(), NormalGrid(256), math.inf)
    assert got.max() == pytest.approx(1.0, rel=1e-12)
    assert np.all(got <= 1.0 + 1e-12)


def test_heat_normal_profile_refinement_stable():
    probe = ProbeSpec(rays=(0.0,))
    base = _heat_normal_profile(0, probe, NormalGrid(256), 2.0).max()
    fine = _heat_normal_profile(0, probe.refined(), NormalGrid(512), 2.0).max()
    assert abs(fine - base) < 0.10 * base


@pytest.mark.parametrize(
    "a,rho,t,want",
    [
        (1.0, 2.0, 0.5, 1.0),
        (1.0, 2.0, 2.0, 0.2),
        (1.0, 2.0, 1.0, 0.5),
    ],
)
def test_lemma_max_closed_form(a, rho, t, want):
    assert lemma_max_eval(a, rho, t) == pytest.approx(want, rel=1e-12)


def test_lemma_max_continuous_at_branch():
    t0 = 1.0  # (rho/a - 1)^(-1/2) for a=1, rho=2
    lo = lemma_max_eval(1.0, 2.0, t0 * (1.0 - 1e-9))
    hi = lemma_max_eval(1.0, 2.0, t0 * (1.0 + 1e-9))
    assert lo == pytest.approx(hi, rel=1e-7)


@pytest.mark.parametrize("a,rho,t", [(2.0, 2.0, 1.0), (0.0, 2.0, 1.0), (1.0, 0.5, 1.0), (1.0, 2.0, 0.0)])
def test_lemma_max_validation(a, rho, t):
    with pytest.raises(ValueError):
        lemma_max_eval(a, rho, t)


@pytest.mark.parametrize("a,rho,t", [(0.7, 1.5, 0.03), (1.4, 2.0, 5.0), (2.7, 3.0, 0.001)])
def test_lemma_max_matches_brute_force(a, rho, t):
    s = np.geomspace(1.0, 1e4, 200_000)
    brute = float(np.max(s**a * (1.0 + (t * s) ** 2) ** (-0.5 * rho)))
    assert lemma_max_eval(a, rho, t) == pytest.approx(brute, rel=1e-6)


def test_kernel_catalog_names():
    assert kernel_catalog("heat") is heat_kernel
    assert kernel_catalog("zero") is zero_kernel
    assert kernel_catalog("constant-one") is constant_one
    k = kernel_catalog("kpp", d=2.0)
    rate = math.sqrt(3.0 / 2.0 + 1.0)
    assert k.func(1.0, math.sqrt(3.0), 1.0) == pytest.approx(math.exp(-rate), rel=1e-12)
    with pytest.raises(KeyError):
        kernel_catalog("nosuch")


def test_freeze_mu_round_trip():
    frozen = freeze_mu(heat_kernel, 1.0)
    assert frozen.sector.is_empty
    assert frozen.func(0.0, None, 1.0) == pytest.approx(math.exp(-SQRT2), rel=1e-14)
    with pytest.raises(SectorError):
        frozen.sector.require(1.0)
    with pytest.raises(SectorError):
        freeze_mu(heat_kernel, -1.0)
    with pytest.raises(ValueError):
        freeze_mu(zero_kernel, None)
    assert freeze_mu(heat_kernel, 1.0, kind="weak").kind == "weak"


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["heat", "kpp", "heat-frozen", "kpp-frozen", "constant-one", "zero"]),
    d=st.floats(0.05, 20.0),
    xi=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=3),
    mu_abs=st.floats(0.01, 1e3),
    mu_frac=st.floats(-0.999, 0.999),
    t=st.floats(0.0, 8.0),
)
def test_func_orders_are_the_normal_derivatives(name, d, xi, mu_abs, mu_frac, t):
    # func(..., n) against a central difference of func(..., n - 1) in x_n,
    # and against (-rate)^n func(..., 0) for a decay kernel
    base = {"heat": heat_kernel, "kpp": kpp_kernel(d), "constant-one": constant_one, "zero": zero_kernel}
    k = base[name.removesuffix("-frozen")]
    mu = _HALF_SECTOR.require(mu_abs * np.exp(1j * mu_frac * _HALF_SECTOR.beta))
    if name.endswith("-frozen"):
        k = freeze_mu(k, mu)
    if k.sector.is_empty:
        mu = None
    xi = np.array(xi)
    # every decay rate here is at most `scale` in modulus; x_n = t / scale
    # samples the decay scale, as the seminorm lattice does
    scale = math.sqrt(1.0 + xi @ xi + mu_abs**2 * max(1.0, 1.0 / d))
    h = 1e-5 / scale
    xn = t / scale + h
    # difference error: h^2 |d^(n+2) k| / 6 plus rounding, both below 1e-9 scale^n |k(xn - h)|
    size = abs(k.func(xi, mu, xn - h))
    for order in (1, 2, 3):
        exact = k.func(xi, mu, xn, order)
        diff = (k.func(xi, mu, xn + h, order - 1) - k.func(xi, mu, xn - h, order - 1)) / (2.0 * h)
        assert abs(diff - exact) <= 1e-8 * scale**order * size
    if k.rate is not None:
        r = k.rate(xi, mu)
        for order in range(4):
            want = (-r) ** order * k.func(xi, mu, xn, 0)
            assert k.func(xi, mu, xn, order) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_symbol_kernel_fields():
    # the normal derivatives are func's order argument, not a field of their own
    names = ["name", "order", "kind", "sector", "func", "rate"]
    assert [f.name for f in fields(SymbolKernel)] == names


def test_probe_spec_refined_scaling():
    probe = ProbeSpec()
    fine = probe.refined()
    assert fine.xi_max == 4.0 * probe.xi_max
    assert fine.mu_max == 4.0 * probe.mu_max
    assert fine.t_max == 4.0 * probe.t_max
    assert fine.density == 2 * probe.density


def test_probe_spec_is_a_level_and_rays():
    assert [f.name for f in fields(ProbeSpec)] == ["level", "rays"]
    fine = ProbeSpec(rays=(0.0,)).refined().refined()
    assert fine == ProbeSpec(level=2, rays=(0.0,))
    assert (fine.xi_max, fine.mu_max, fine.t_max, fine.density) == (128.0, 128.0, 128.0, 4)


def test_probe_spec_refuses_a_negative_level():
    with pytest.raises(ValueError, match="nonnegative"):
        ProbeSpec(level=-1)


def test_probe_spec_refuses_empty_rays():
    # no spectral sample would make every seminorm a silent zero
    with pytest.raises(ValueError, match="at least one spectral ray"):
        ProbeSpec(rays=())


def test_probe_spec_rays_pin_arguments():
    probe = ProbeSpec(rays=(0.0,))
    mus = probe.mu_values(Sector.symmetric(0.45 * math.pi))
    assert all(m.imag == 0.0 and m.real > 0.0 for m in mus)
