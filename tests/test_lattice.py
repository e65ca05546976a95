import ast
import io
import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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


def full_box_step(vals, d, pad=0.0, clamp=None):
    """Plain reference for one step of P on a full centered box {-R..R}^d:
    the same pair order as `stencil_step` (x+e plus x-e, axis by axis) and
    the same sorted pair-sum for d = 3.  Returns (vals', lost)."""
    R = (vals.shape[0] - 1) // 2
    src = np.full((2 * R + 5,) * d, pad, dtype=np.float64)
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
        s = np.sort(np.stack(pairs), axis=0)
        acc = (s[0] + s[1]) + s[2]
    out = (acc + src[base]) / (2 * d + 1)
    lost = 0.0
    if clamp is not None and R + 1 > clamp:
        lo, hi = R + 1 - clamp, R + 2 + clamp
        crop = out[tuple(slice(lo, hi) for _ in range(d))].copy()
        if pad == 0.0:
            lost = float(out.sum() - crop.sum())
        else:
            lost = float((pad - out).sum() - (pad - crop).sum())
        out = crop
    return out, lost


@pytest.mark.parametrize("d,steps", [(1, 12), (2, 10), (3, 6)])
@pytest.mark.parametrize("pad", [0.0, 1.0])
@pytest.mark.parametrize("clamp", [None, 3])
def test_orthant_stencil_matches_full_box_reference(d, steps, pad, clamp):
    # pad 0 runs the binary hitting map u <- Pu - (Pu)^2/2 from the delta,
    # pad 1 the extinction map h <- (1 + (Ph)^2)/2 from 1 - delta
    start = np.ones(1) if pad == 0.0 else np.zeros(1)
    orth, full = start, start.reshape((1,) * d)
    for _ in range(steps):
        orth, lost = lat.stencil_step(orth, d, pad=pad, clamp=clamp)
        full, ref_lost = full_box_step(full, d, pad=pad, clamp=clamp)
        assert np.array_equal(lat.Field(orth, d).unfolded(), full)
        assert lost == pytest.approx(ref_lost, abs=1e-15)
        orth, full = ((x - 0.5 * x * x) if pad == 0.0 else 0.5 * (1.0 + x * x)
                      for x in (orth, full))
    if clamp is not None:
        assert lost > 0.0  # the last steps did crop


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


def _stencil_callers():
    """(module file, top-level definition) -> number of `stencil_step(` calls,
    over the package outside lattice.py."""
    found = Counter()
    for path in sorted(Path(lat.__file__).parent.glob("*.py")):
        if path.name == "lattice.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "stencil_step" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    found[(path.name, getattr(top, "name", "<module>"))] += 1
    return found


def test_every_field_recursion_runs_on_the_one_sweep():
    # P f is computed by `lattice.sweep`; only the second-moment source term
    # (f advanced beside P_k) and the super-solution margin (a bump that is
    # not a sweep field) call the stencil directly
    allowed = Counter({("exactfields.py", "second_moment_sweep"): 1,
                       ("exactfields.py", "supersolution_margin"): 1})
    assert not _stencil_callers() - allowed


def test_one_step_kernel_is_uniform_on_neighborhood():
    orth, lost = lat.stencil_step(lat.Field.delta(2).values, 2)
    vals = lat.Field(orth, 2).unfolded()
    assert vals.shape == (3, 3) and lost == 0.0
    offs = [tuple(o) for o in lat.neighborhood(2)]
    for idx in np.ndindex(*vals.shape):
        site = tuple(i - 1 for i in idx)
        expect = 0.2 if site in offs else 0.0
        assert vals[idx] == expect


def test_kernel_preserves_constants_in_the_interior():
    out, _ = lat.stencil_step(np.full(10, 0.37), 2)  # the box of radius 3
    vals = lat.Field(out, 2).unfolded()
    R = (vals.shape[0] - 1) // 2
    interior = vals[R - 2: R + 3, R - 2: R + 3]
    assert np.allclose(interior, 0.37, atol=0, rtol=0)
    # pad=1 extends the constant field past the box: the whole output is flat
    ones, _ = lat.stencil_step(np.ones(3), 2, pad=1.0)
    assert np.array_equal(lat.Field(ones, 2).unfolded(), np.ones((5, 5)))


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
    assert f.tail_bound <= lat.escape_bound(40, 2, 8) + 1e-15
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
    conv = lat.convolve(pm, pn)
    direct = lat.transition_field(m + n, 2)
    assert conv.radius == direct.radius
    assert np.abs(conv.values - direct.values).max() <= 1e-10


def test_convolution_identity_and_mismatch():
    f = lat.transition_field(5, 2)
    out = lat.convolve(lat.Field.delta(2), f)
    assert np.abs(out.values - f.values).max() == 0.0
    with pytest.raises(ValueError):
        lat.convolve(f, lat.Field.delta(3))


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
    from brwlab.spine import return_probs, RETURN_COEF_2D
    p0 = return_probs(2048, 2)
    val = 2048 * p0[2048]
    assert abs(val - RETURN_COEF_2D) <= 0.01 * RETURN_COEF_2D
    assert abs(1024 * p0[1024] - RETURN_COEF_2D) >= abs(val - RETURN_COEF_2D) * 0.2


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


@pytest.mark.parametrize("d", [2, 3])
def test_spectral_oracle_matches_full_torus_sum_and_stencil(d):
    from brwlab.spine import return_probs
    from brwlab.verify import _spectral_return_probs
    spectral = _spectral_return_probs(64, d)
    ref = full_torus_return_probs(64, d)
    assert np.abs(spectral / ref - 1.0).max() <= 1e-13  # summation order only
    assert np.abs(spectral - return_probs(128, d)[::2]).max() <= 1e-14


def test_walk_sampling_start_and_empty():
    rng = substream(1, "selftest")
    path = lat.sample_srw_batch(0, 2, 5, rng)
    assert path.shape == (5, 1, 2) and not path.any()
    paths = lat.sample_srw_batch(6, 2, 5, rng)
    assert not paths[:, 0].any()
    assert np.abs(np.diff(paths, axis=1)).sum(axis=2).max() <= 1


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
    r = lat.clamp_radius(256, 2, 1e-12)
    assert lat.escape_bound(256, 2, r) <= 1e-12
    assert lat.escape_bound(256, 2, r - 1) > 1e-12


def test_ball_site_counts():
    assert len(lat.sites_in_ball(2, 2)) == 13
    assert len(lat.sites_in_ball(2, 1)) == 5
    assert len(lat.sites_in_ball(3, 1)) == 7
