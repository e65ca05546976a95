import dataclasses
import io
import itertools
import math

import numpy as np
import pytest

from brwlab import forward as fw
from brwlab import lattice as lat
from brwlab.rngstreams import substream


def enumerate_two_step(d=2):
    """Brute-force oracle: walk all (2d+1)^2 two-step paths."""
    offs = lat.neighborhood(d)
    counts = {}
    for a, b in itertools.product(range(2 * d + 1), repeat=2):
        site = tuple(offs[a] + offs[b])
        counts[site] = counts.get(site, 0) + 1
    return {s: c / (2 * d + 1) ** 2 for s, c in counts.items()}


def escape_bound(n, d, radius):
    """Chernoff's bound on P(some coordinate leaves [-R, R] within n steps),
    at the grid minimum over t: the scalar form of `lat.clamp_schedule`."""
    if n == 0 or radius > n:
        return 0.0
    t = np.linspace(1e-3, 25.0, 800)
    log_m = np.log((2 * d - 1 + 2 * np.cosh(t)) / (2 * d + 1))
    return min(1.0, 2 * d * math.exp(float(np.min(-t * radius + n * log_m))))


def clamp_radius(n, d, eps):
    """The smallest radius in [1, n] whose escape bound is at most eps, by bisection."""
    if n <= 1:
        return 1
    lo, hi = 1, n
    if escape_bound(n, d, hi) > eps:
        return n
    while lo < hi:
        mid = (lo + hi) // 2
        if escape_bound(n, d, mid) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return lo


def convolve(f, g):
    """Dense direct convolution (no FFT) of the unfolded boxes, folded back
    onto the stored cells; tail bounds compose additively."""
    from scipy.signal import convolve as direct_convolve

    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    full = direct_convolve(f.unfolded(), g.unfolded(), mode="full", method="direct")
    R = f.radius + g.radius
    step = f.step + g.step if f.step is not None and g.step is not None else None
    out = lat.Field.tabulate(lambda x: full[tuple((x + R).T)], f.dim, R, step)
    return dataclasses.replace(out, tail_bound=f.tail_bound + g.tail_bound)


def full_box_step(vals, d, clamp=None):
    """Plain reference for one step of P on a full centered box {-R..R}^d:
    the same pair order as `stencil_step` (x+e plus x-e, axis by axis), and
    for d = 3 the pair-sums added in decreasing-|x_a| order.  Returns
    (vals', lost)."""
    R = (vals.shape[0] - 1) // 2
    src = np.zeros((2 * R + 5,) * d)
    src[tuple(slice(2, 2 * R + 3) for _ in range(d))] = vals
    size = 2 * R + 3
    base = tuple(slice(1, 1 + size) for _ in range(d))
    pairs = []
    for axis in range(d):
        hi = list(base)
        hi[axis] = slice(2, 2 + size)
        lo = list(base)
        lo[axis] = slice(0, size)
        pairs.append(src[tuple(hi)] + src[tuple(lo)])
    if d == 1:
        acc = pairs[0]
    elif d == 2:
        acc = pairs[0] + pairs[1]
    else:
        coords = np.abs(np.indices((size,) * d) - (R + 1))
        order = np.argsort(-coords, axis=0, kind="stable")
        s = np.take_along_axis(np.stack(pairs), order, axis=0)
        acc = (s[0] + s[1]) + s[2]
    out = (acc + src[base]) / (2 * d + 1)
    lost = 0.0
    if clamp is not None and R + 1 > clamp:
        lo, hi = R + 1 - clamp, R + 2 + clamp
        crop = out[tuple(slice(lo, hi) for _ in range(d))].copy()
        lost = float(out.sum() - crop.sum())
        out = crop
    return out, lost


@pytest.mark.parametrize("d,steps", [(1, 12), (2, 10), (3, 6)])
@pytest.mark.parametrize("clamp", [None, 3])
def test_orthant_stencil_matches_full_box_reference(d, steps, clamp):
    # the binary hitting map u <- Pu - (Pu)^2/2 from the delta
    orth, full = np.ones(1), np.ones((1,) * d)
    for _ in range(steps):
        orth, lost = lat.stencil_step(orth, d, clamp=clamp)
        full, ref_lost = full_box_step(full, d, clamp=clamp)
        assert np.array_equal(lat.Field(orth, d).unfolded(), full)
        assert lost == pytest.approx(ref_lost, abs=1e-15)
        orth, full = (x - 0.5 * x * x for x in (orth, full))
    if clamp is not None:
        assert lost > 0.0  # the last steps did crop


def frozen_stencil_step(vals, d, clamp=None):
    """Frozen reference for d <= 2: the blocked kernel that keeps one pair
    row per axis (d + 1 rows per block) and adds p_1 + p_2 once every pair
    is gathered."""
    size = lat._radius_of(len(vals), d) + 1
    nb, m = lat._layout(d, size).neighbors, lat._cell_count(d, size)
    src = np.zeros(lat._cell_count(d, size + 1))
    src[:len(vals)] = vals
    acc = np.empty(m)
    rows = np.empty((d + 1, min(lat._BLOCK, m)))
    for lo in range(0, m, lat._BLOCK):
        hi = min(lo + lat._BLOCK, m)
        pairs, g, out = rows[:d, :hi - lo], rows[d, :hi - lo], acc[lo:hi]
        for a in range(d):
            src.take(nb[2 * a, lo:hi], out=pairs[a], mode="clip")
            src.take(nb[2 * a + 1, lo:hi], out=g, mode="clip")
            pairs[a] += g
        if d == 2:
            np.add(pairs[0], pairs[1], out=out)
        else:
            np.copyto(out, pairs[0])
        out += src[lo:hi]
        out /= 2 * d + 1
    if clamp is not None and size > clamp:
        acc = acc[:lat._cell_count(d, clamp)]
    return acc


@pytest.mark.parametrize("block", [7, 1 << 16])
@pytest.mark.parametrize("d,radius", [(1, 300), (2, 40)])
@pytest.mark.parametrize("clamp", [None, 20])
def test_low_dimensional_steps_keep_the_frozen_kernel_bits(monkeypatch, block, d, radius, clamp):
    # accumulating into the output block moves no bit where d <= 2
    monkeypatch.setattr(lat, "_BLOCK", block)
    rng = np.random.default_rng(5)
    for r in (0, 1, radius):
        vals = rng.random(lat._cell_count(d, r))
        got, _ = lat.stencil_step(vals, d, clamp)
        assert np.array_equal(got, frozen_stencil_step(vals, d, clamp))


def _same_fields(a, b):
    return len(a) == len(b) and all(
        np.array_equal(f.values, g.values) and f.tail_bound == g.tail_bound
        and f.step == g.step for f, g in zip(a, b))


def _kpp(pu, _):
    return pu - 0.5 * np.square(pu)


@pytest.mark.parametrize("d,update,clamp", [(2, _kpp, 4), (2, None, 5), (3, None, 3)])
def test_sweep_restarts_from_any_stored_field(d, update, clamp):
    n = 12
    bank = list(lat.sweep(n, d, update, clamp))
    assert [f.step for f in bank] == list(range(n + 1)) and bank[-1].tail_bound > 0
    for k in (0, 1, 5, n):
        assert _same_fields(list(lat.sweep(n, d, update, clamp, start=bank[k])), bank[k:])


@pytest.mark.parametrize("d,steps", [(1, 12), (2, 10), (3, 6)])
@pytest.mark.parametrize("clamp", [None, 3])
def test_blocked_stencil_matches_full_box_reference(monkeypatch, d, steps, clamp):
    # blocks of 7 cells: every later step spans several blocks and ends on a short one
    monkeypatch.setattr(lat, "_BLOCK", 7)
    test_orthant_stencil_matches_full_box_reference(d, steps, clamp)


@pytest.mark.parametrize("d,update,clamp", [(2, _kpp, 4), (2, None, 5), (3, None, 3),
                                            (1, _kpp, 10)])
def test_blocked_sweep_restarts_from_any_stored_field(monkeypatch, d, update, clamp):
    monkeypatch.setattr(lat, "_BLOCK", 7)
    test_sweep_restarts_from_any_stored_field(d, update, clamp)


@pytest.mark.parametrize("n,clamp,top", [(40, None, 40), (40, 9, 10), (3, 9, 3)])
def test_sweep_grows_the_table_in_doubling_radii_to_its_last_step(monkeypatch, n, clamp, top):
    covers, cover = [], lat._Layout.cover
    monkeypatch.setattr(lat._Layout, "cover",
                        lambda lay, radius: covers.append(radius) or cover(lay, radius))
    lat._layouts.clear()
    ref = list(lat.sweep(n, 3, _kpp, clamp))
    assert lat._layouts[0].radius == top  # the largest radius a step needed
    assert covers == sorted(covers) and len(covers) <= 1 + math.ceil(math.log2(top + 1))
    lat._layouts.clear()
    assert _same_fields(list(lat.sweep(n, 3, _kpp, clamp)), ref)
    # a sweep that stops early builds no table for its horizon
    lat._layouts.clear()
    assert [f.step for f in itertools.islice(lat.sweep(10**6, 3), 4)] == [0, 1, 2, 3]
    assert lat._layouts[0].radius <= 7


@pytest.mark.parametrize("n", [9, 12, 13])
@pytest.mark.parametrize("update,clamp,start", [
    (_kpp, 4, None),
    (_kpp, None, lat.Field(np.array([1.0, 1.0, 0.0]), 2, step=0)),  # the ball of radius 1
    (_kpp, lat.clamp_schedule(13, 2, 1e-3), None),  # cuts from step 8 on
])
def test_reversed_sweep_is_the_reversed_forward_sweep(n, update, clamp, start):
    args = (n, 2, update, clamp, start)
    ref = list(lat.sweep(*args))[::-1]
    stream = lat.ReversedSweep(*args)
    assert _same_fields(list(stream), ref)                      # fills the checkpoints
    assert _same_fields(list(stream), ref)                      # reads them
    assert len(stream.marks) == n // math.isqrt(n) + 1


def _orbit_label(site):
    """A value that tells orbits apart: the sorted |x| read as base-100 digits."""
    return 1.0 + sum(c * 100.0**k for k, c in enumerate(sorted(abs(int(v)) for v in site)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", range(7))
def test_sorted_cell_layout(d, radius):
    f = lat.Field.tabulate(lambda x: [_orbit_label(site) for site in x], d, radius)
    m = math.comb(radius + d, d)
    assert len(f.values) == m and f.radius == radius and f.dim == d
    # the closed-form index round-trips, and the cells are the sorted orthant
    sites = f.sites()
    assert np.array_equal(lat._cell_index(sites), np.arange(m))
    assert all(list(x) == sorted(x, reverse=True) for x in sites.tolist())
    # every site of the box, and of a rim outside it, reads its orbit's value
    full = f.unfolded()
    assert full.shape == (2 * radius + 1,) * d
    rim = radius + 2
    for site in itertools.product(range(-rim, rim + 1), repeat=d):
        inside = max(map(abs, site)) <= radius
        expect = _orbit_label(site) if inside else 0.0
        assert f.values_at(site) == expect
        if inside:
            assert full[tuple(c + radius for c in site)] == expect
    assert f.total() == pytest.approx(full.sum(), rel=1e-15)
    # the +e_a increments cover the orthant's differences
    quad = full[(slice(radius, None),) * d]
    diffs = np.concatenate([np.diff(quad, axis=a).ravel() for a in range(d)])
    assert np.array_equal(np.unique(f.axis_increments()), np.unique(diffs))


@pytest.mark.parametrize("d,count", [(2, 2), (2, 7), (3, 5), (1, 0)])
def test_field_rejects_a_length_that_is_no_box(d, count):
    with pytest.raises(ValueError, match=r"C\(R \+ \d, \d\) values"):
        lat.Field(np.ones(count), d)
    with pytest.raises(ValueError, match="flat array"):
        lat.Field(np.ones((3, 3)), 2)
    with pytest.raises(ValueError, match="dimension 1..3"):
        lat.Field(np.ones(1), 4)
    # a failed lookup is not cached: the same length fails again
    with pytest.raises(ValueError, match=r"C\(R \+ \d, \d\) values"):
        lat.Field(np.ones(count), d)


def test_sweep_finds_each_radius_once_not_on_every_step():
    # a 64-step sweep clamped at 8 asks the radius of each field twice (as
    # the step's input and as the next field), but its fields have only 9
    # lengths; a second sweep finds every one of them cached
    lat._radius_of.cache_clear()
    list(lat.sweep(64, 2, clamp=8))
    info = lat._radius_of.cache_info()
    assert info.hits + info.misses >= 2 * 64 and info.misses <= 9
    list(lat.sweep(64, 2, clamp=8))
    assert lat._radius_of.cache_info().misses == info.misses


def test_sweep_rejects_a_horizon_below_its_start():
    with pytest.raises(ValueError, match="below the start step"):
        lat.sweep(-1, 2)
    five = lat.transition_field(5, 2)
    with pytest.raises(ValueError, match="below the start step 5"):
        lat.sweep(4, 2, start=five)
    with pytest.raises(ValueError, match="dimension"):
        lat.sweep(6, 3, start=five)
    with pytest.raises(ValueError):
        lat.transition_field(-1, 2)


@pytest.mark.parametrize("clamp", [0, -2])
def test_stencil_step_rejects_a_clamp_below_one(clamp):
    with pytest.raises(ValueError, match="clamp"):
        lat.stencil_step(np.ones(3), 2, clamp=clamp)
    with pytest.raises(ValueError, match="clamp"):
        lat.transition_field(3, 2, clamp=clamp)


def test_one_step_kernel_is_uniform_on_neighborhood():
    orth, lost = lat.stencil_step(lat.Field.delta(2).values, 2)
    vals = lat.Field(orth, 2).unfolded()
    assert vals.shape == (3, 3) and lost == 0.0
    offs = [tuple(o) for o in lat.neighborhood(2)]
    for idx in np.ndindex(*vals.shape):
        site = tuple(i - 1 for i in idx)
        expect = 0.2 if site in offs else 0.0
        assert vals[idx] == expect


@pytest.mark.parametrize("d", [1, 2, 3])
def test_neighborhood_is_one_read_only_array_per_dimension(d):
    offs = lat.neighborhood(d)
    assert lat.neighborhood(d) is offs and not offs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        offs[0, 0] = 1
    eye = np.eye(d, dtype=np.int64)
    assert offs.dtype == np.int64
    assert np.array_equal(offs, np.concatenate((np.zeros((1, d), np.int64),
                                                np.stack((eye, -eye), axis=1).reshape(-1, d))))
    # callers that need their own array make one
    own = offs.astype(np.int16)
    own[0, 0] = 1
    assert offs[0, 0] == 0
    deltas = fw._move_deltas(d)
    assert np.array_equal(fw.decode_sites(fw.encode_sites(np.zeros((1, d)), d)[0] + deltas, d),
                          offs)


def test_kernel_preserves_constants_in_the_interior():
    out, _ = lat.stencil_step(np.full(10, 0.37), 2)  # the box of radius 3
    vals = lat.Field(out, 2).unfolded()
    R = (vals.shape[0] - 1) // 2
    interior = vals[R - 2: R + 3, R - 2: R + 3]
    assert np.allclose(interior, 0.37, atol=0, rtol=0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_two_step_field_matches_path_enumeration(d):
    oracle = enumerate_two_step(d)
    f = lat.transition_field(2, d)
    full = f.unfolded()
    for idx in np.ndindex(*full.shape):
        site = tuple(i - f.radius for i in idx)
        assert full[idx] == pytest.approx(oracle.get(site, 0.0), abs=1e-15)


def test_two_step_frozen_values():
    f = lat.transition_field(2, 2)
    assert f.value_at((0, 0)) == pytest.approx(1 / 5, abs=1e-15)
    assert f.value_at((1, 1)) == pytest.approx(2 / 25, abs=1e-15)


def test_values_at_batches_sites_and_reads_zero_outside():
    f = lat.transition_field(2, 2)
    sites = np.array([[[0, 0], [1, 1], [3, 0]], [[-2, 0], [0, -5], [1, -1]]])
    vals = f.values_at(sites)
    assert vals.shape == (2, 3)
    assert list(f.in_box(sites).ravel()) == [True, True, False, True, False, True]
    full = f.unfolded()
    for site, v in zip(sites.reshape(-1, 2), vals.ravel()):
        assert v == (f.value_at(site) if f.in_box(site) else 0.0)
        if f.in_box(site):
            assert v == full[tuple(site + f.radius)]
    with pytest.raises(IndexError):
        f.value_at((3, 0))


def test_zero_steps_is_a_point_mass():
    f = lat.transition_field(0, 2)
    assert f.radius == 0 and f.value_at((0, 0)) == 1.0


def test_transition_normalization_and_tail():
    f = lat.transition_field(40, 2, clamp=8)
    assert f.tail_bound > 0
    assert abs(f.total() + f.tail_bound - 1.0) <= 1e-12
    assert f.tail_bound <= escape_bound(40, 2, 8) + 1e-15
    full = lat.transition_field(12, 3)
    assert abs(full.total() - 1.0) <= 1e-12


def test_clamped_values_lower_bound_the_exact_ones():
    exact = lat.transition_field(24, 2)
    cl = lat.transition_field(24, 2, clamp=10)
    off = exact.radius - cl.radius
    window = exact.unfolded()[off:-off, off:-off]
    assert np.all(cl.unfolded() <= window + 1e-18)
    assert np.abs(cl.unfolded() - window).max() <= cl.tail_bound


def test_symmetry_under_flips_and_permutations():
    f = lat.transition_field(9, 2)
    v = f.unfolded()
    assert np.array_equal(v, np.flip(v, axis=0))
    assert np.array_equal(v, np.flip(v, axis=1))
    assert np.array_equal(v, v.T)
    v3 = lat.transition_field(7, 3, clamp=4).unfolded()
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(v3, v3.transpose(perm))


@pytest.mark.parametrize("m,n", [(1, 1), (8, 8), (5, 19), (32, 32)])
def test_semigroup_against_direct_convolution(m, n):
    pm = lat.transition_field(m, 2)
    pn = lat.transition_field(n, 2)
    conv = convolve(pm, pn)
    direct = lat.transition_field(m + n, 2)
    assert conv.radius == direct.radius
    assert np.abs(conv.values - direct.values).max() <= 1e-10


def test_convolution_identity_and_mismatch():
    f = lat.transition_field(5, 2)
    out = convolve(lat.Field.delta(2), f)
    assert np.abs(out.values - f.values).max() == 0.0
    with pytest.raises(ValueError):
        convolve(f, lat.Field.delta(3))


def test_shifted_product_sums_to_double_step_return():
    # sum_x P_n(x-a) P_n(x-b) = P_{2n}(b-a)
    n, a, b = 24, (0, 0), (2, -1)
    pn = lat.transition_field(n, 2)
    p2n = lat.transition_field(2 * n, 2)
    R = pn.radius
    grid = np.zeros((2 * R + 5,) * 2)
    grid[2 + a[0]: 2 + a[0] + 2 * R + 1, 2 + a[1]: 2 + a[1] + 2 * R + 1] = pn.unfolded()
    shifted = np.zeros_like(grid)
    shifted[2 + b[0]: 2 + b[0] + 2 * R + 1, 2 + b[1]: 2 + b[1] + 2 * R + 1] = pn.unfolded()
    total = float((grid * shifted).sum())
    assert total == pytest.approx(p2n.value_at((b[0] - a[0], b[1] - a[1])), abs=1e-10)


def test_orthant_monotonicity_small():
    for n in (4, 9, 16):
        f = lat.transition_field(n, 2)
        R = f.radius
        quad = f.unfolded()[R:, R:]
        assert np.diff(quad, axis=0).max() <= 1e-12
        assert np.diff(quad, axis=1).max() <= 1e-12


def test_return_probability_asymptote_d2():
    # n * P_n(0) -> 5/(4*pi); tolerance 1% is ours (no error term available)
    from brwlab.spine import even_return_probs
    RETURN_COEF_2D = 5.0 / (4.0 * math.pi)
    p0 = even_return_probs(1024, 2, lat.clamp_schedule(1024, 2, 1e-14))  # P_{2i}(0)
    val = 2048 * p0[1024]
    assert abs(val - RETURN_COEF_2D) <= 0.01 * RETURN_COEF_2D
    assert abs(1024 * p0[512] - RETURN_COEF_2D) >= abs(val - RETURN_COEF_2D) * 0.2


def full_torus_return_probs(max_j, d):
    """Reference for `verify._spectral_return_probs`: the same torus average
    summed over every frequency tuple, not once per symmetric class."""
    L = 512 if d == 2 else 256
    k = np.arange(L // 2 + 1)
    w = np.where((k == 0) | (2 * k == L), 1.0, 2.0)
    c = np.cos(2.0 * np.pi * k / L)
    phi2 = ((1.0 + 2.0 * sum(np.ix_(*[c] * d))) / (2 * d + 1)) ** 2
    wt = math.prod(np.ix_(*[w] * d)) / L**d
    return np.array([float((phi2**j * wt).sum()) for j in range(max_j + 1)])


def _old_spectral_return_probs(max_j, d):
    """`verify._spectral_return_probs` as it was before its frequency tuples
    were built one first frequency at a time: every tuple from
    `itertools.combinations_with_replacement` in one array."""
    L = 512 if d == 2 else 256
    k = np.arange(L // 2 + 1)
    w = np.where((k == 0) | (2 * k == L), 1.0, 2.0)
    c = np.cos(2.0 * np.pi * k / L)
    idx = np.fromiter(itertools.chain.from_iterable(itertools.combinations_with_replacement(
        range(L // 2 + 1), d)), dtype=np.int16).reshape(-1, d)
    ties = np.ones(len(idx))
    for i in range(1, d):
        ties *= (idx[:, :i + 1] == idx[:, i:i + 1]).sum(axis=1)
    wt = math.factorial(d) / ties * math.prod(w[col] for col in idx.T) / L**d
    phi = (1.0 + 2.0 * sum(c[col] for col in idx.T)) / (2 * d + 1)
    phi2 = phi * phi
    order = np.argsort(-phi2)
    phi2, wt = phi2[order], wt[order]
    out = np.empty(max_j + 1)
    out[0] = 1.0
    pw = np.ones_like(phi2)
    live = len(pw)
    for j in range(1, max_j + 1):
        pw[:live] *= phi2[:live]
        live = int(np.searchsorted(-pw[:live], -1e-20))
        out[j] = float((pw[:live] * wt[:live]).sum())
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_spectral_oracle_matches_its_all_tuples_form_bit_for_bit(d):
    from brwlab.verify import _sorted_tuple_slices, _spectral_return_probs
    assert np.array_equal(_spectral_return_probs(512, d)[0], _old_spectral_return_probs(512, d))
    tuples = np.concatenate(list(_sorted_tuple_slices(6, d)))
    assert tuples.tolist() == [list(t) for t in itertools.combinations_with_replacement(
        range(6), d)]


@pytest.mark.parametrize("d", [2, 3])
def test_spectral_oracle_matches_full_torus_sum_and_stencil(d):
    from brwlab.spine import even_return_probs
    from brwlab.verify import _spectral_return_probs
    spectral, spread = _spectral_return_probs(64, d)
    ref = full_torus_return_probs(64, d)
    assert np.abs(spectral / ref - 1.0).max() <= 1e-13  # summation order only
    assert np.abs(spectral - even_return_probs(64, d)).max() <= 1e-14
    # A_j = sum_y |y|^2 P_j(y)^2, summed over the stencil's fields
    stencil = [lat.Field(np.square(p.values) * np.square(p.sites()).sum(axis=1), d).total()
               for p in lat.sweep(64, d)]
    assert spread[0] == stencil[0] == 0.0
    assert np.abs(spread[1:] / stencil[1:] - 1.0).max() <= 1e-14


def test_walk_sampling_start_and_empty():
    rng = substream(1, "selftest")
    path = lat.sample_srw_batch(0, 2, 5, rng)
    assert path.shape == (5, 1, 2) and not path.any()
    paths = lat.sample_srw_batch(6, 2, 5, rng)
    assert not paths[:, 0].any()
    assert np.abs(np.diff(paths, axis=1)).sum(axis=2).max() <= 1


def test_walk_sampling_blocks_keep_one_int16_stream(monkeypatch):
    # positions are the cumulative sums of one index draw, whatever the blocks
    want = np.cumsum(lat.neighborhood(2)[substream(4, "selftest").integers(0, 5, size=(50, 7))],
                     axis=1)
    monkeypatch.setattr(lat, "_DRAW_CELLS", 64)  # 9 rows per block
    paths = lat.sample_srw_batch(7, 2, 50, substream(4, "selftest"))
    assert paths.dtype == np.int16 and np.array_equal(paths[:, 1:], want)


def test_walk_sampling_rejects_n_beyond_int16_before_any_draw():
    rng = substream(5, "selftest")
    with pytest.raises(ValueError, match="n = 32768"):
        lat.sample_srw_batch(2**15, 2, 1, rng)
    assert rng.random() == substream(5, "selftest").random()
    assert np.abs(lat.sample_srw_batch(2**15 - 1, 1, 2, rng)).max() < 2**15


def test_walk_increment_frequencies():
    rng = substream(2, "selftest")
    paths = lat.sample_srw_batch(4, 2, 250_000, rng)
    inc = (paths[:, 1:, :] - paths[:, :-1, :]).reshape(-1, 2)
    offs = lat.neighborhood(2)
    total = inc.shape[0]
    for o in offs:
        freq = np.all(inc == o, axis=1).mean()
        se = math.sqrt(0.2 * 0.8 / total)
        assert abs(freq - 0.2) <= 3 * se


def test_walk_functional_matches_double_step_return():
    # E P_i(S_i) = P_{2i}(0)
    rng = substream(3, "selftest")
    i = 8
    pi = lat.transition_field(i, 2)
    p2i0 = lat.transition_field(2 * i, 2).value_at((0, 0))
    pos = lat.sample_srw_batch(i, 2, 40_000, rng)[:, i, :]
    vals = pi.values_at(pos)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - p2i0) <= 3 * se


def test_csv_export_round_trip():
    f = lat.transition_field(1, 2)
    buf = io.StringIO()
    lat.field_to_csv(f, 1, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# dim=2 n=1 radius=1 tail_bound=0.0"
    assert len(lines) == 1 + 9
    # lexicographic order; center row is "0,0,0.2"
    assert lines[1].startswith("-1,-1,")
    assert lines[5] == "0,0,0.2"
    parsed = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert sum(parsed) == pytest.approx(1.0, abs=1e-15)


def test_clamp_policy_helpers():
    r = lat.clamp_schedule(256, 2, 1e-12)[-1]
    assert escape_bound(256, 2, r) <= 1e-12
    assert escape_bound(256, 2, r - 1) > 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("eps", [1e-10, 5e-10, 1e-11, 3e-11, 1e-12, 1e-14])
def test_clamp_schedule_is_the_bisection_at_every_step(d, eps):
    # every eps the package or its history uses, to k = 1024
    got = lat.clamp_schedule(1024, d, eps)
    assert got.tolist() == [clamp_radius(k, d, eps) for k in range(1025)]


def test_scheduled_sweep_keeps_radius_r_k_and_grows_the_table_to_max_r_plus_one():
    n, d = 150, 3
    radii = lat.clamp_schedule(n, d, 1e-12)
    assert radii.max() < n  # the schedule cuts
    lat._layouts.clear()
    fields = list(lat.sweep(n, d, _kpp, radii))
    assert lat._layouts[0].radius == radii.max() + 1
    assert [f.radius for f in fields[1:]] == radii[1:].tolist()
    # the tail is the killed mass, summed in step order
    f, tail = lat.Field.delta(d), 0.0
    for k in range(1, n + 1):
        vals, lost = lat.stencil_step(f.values, d, int(radii[k]))
        f, tail = lat.Field(_kpp(vals, f), d, tail + lost, k), tail + lost
        assert np.array_equal(fields[k].values, f.values) and fields[k].tail_bound == tail
    lat._layouts.clear()


def test_sweep_rejects_a_schedule_that_ends_early():
    with pytest.raises(ValueError, match="ends before step 12"):
        lat.sweep(12, 2, clamp=lat.clamp_schedule(11, 2))


def test_ball_site_counts():
    assert len(lat.sites_in_ball(2, 2)) == 13
    assert len(lat.sites_in_ball(2, 1)) == 5
    assert len(lat.sites_in_ball(3, 1)) == 7
