import ast
import itertools
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

import brwlab
from brwlab import conditioned as cr
from brwlab import exactfields as xf
from brwlab import forward as fw
from brwlab import lattice as lat
from brwlab.offspring import binary, geometric, parse_offspring
from brwlab.rngstreams import substream
from brwlab.stats import chi_square

B = binary()


def exact_overlap_mean_one_step(d=2):
    """Enumeration oracle for E D_1 with both walks from the origin:
    each walk is empty (p=1/2) or two children at iid uniform neighbors."""
    offs = [tuple(o) for o in lat.neighborhood(d)]
    k = len(offs)
    outcomes = [({}, 0.5)]
    for a, b in itertools.product(offs, repeat=2):
        occ = {}
        occ[a] = occ.get(a, 0) + 1
        occ[b] = occ.get(b, 0) + 1
        outcomes.append((occ, 0.5 / k**2))
    total = 0.0
    for (ou, pu), (ov, pv) in itertools.product(outcomes, repeat=2):
        both = set(ou) & set(ov)
        d_n = sum(ou[s] + ov[s] for s in both)
        total += pu * pv * d_n
    return total


def test_encode_decode_round_trip():
    rng = substream(0, "selftest")
    for d in (1, 2, 3):
        coords = rng.integers(-5000, 5001, size=(200, d))
        keys = fw.encode_sites(coords, d)
        assert np.array_equal(fw.decode_sites(keys, d), coords)


def test_move_deltas_are_read_only_neighbor_steps():
    for d in (1, 2, 3):
        deltas = fw._MOVE_DELTAS[d]
        assert not deltas.flags.writeable
        origin = fw.encode_sites(np.zeros((1, d)), d)[0]
        assert np.array_equal(fw.decode_sites(origin + deltas, d), lat.neighborhood(d))


def _tagged(sites, reps, d):
    """Keys for `reps` replicates of the same hand-made occupancy `sites`
    (one entry per particle)."""
    rep_ids = np.repeat(np.arange(reps, dtype=np.int64), len(sites)) << fw._rep_shift(d)
    return rep_ids + np.tile(fw.encode_sites(np.asarray(sites), d), reps)


def test_step_on_empty_is_empty():
    keys = fw.evolve_particles(np.zeros(0, dtype=np.int64), 1, B, 2, substream(1, "selftest"))
    assert keys.size == 0
    bs = fw.run_batch(B, 3, 2, 0, substream(1, "selftest"))
    assert bs.Z.size == 0


def test_step_from_single_particle_law():
    rng = substream(2, "selftest")
    offs = {tuple(o) for o in lat.neighborhood(2)}
    reps = 4000
    keys = fw.evolve_particles(_tagged([(0, 0)], reps, 2), 1, B, 2, rng)
    site_mask = (np.int64(1) << fw._rep_shift(2)) - 1
    assert {tuple(s) for s in fw.decode_sites(keys & site_mask, 2)} <= offs
    bs = fw.BatchStats(keys, reps, 2)
    assert set(np.unique(bs.Z)) <= {0, 2}
    extinct = int((bs.Z == 0).sum())
    assert abs(extinct / reps - 0.5) <= 3 * math.sqrt(0.25 / reps)


def test_step_preserves_mean_population():
    rng = substream(3, "selftest")
    sites = [(0, 0)] * 3 + [(1, 0)] * 2
    reps = 20000
    zs = fw.BatchStats(fw.evolve_particles(_tagged(sites, reps, 2), 1, B, 2, rng), reps, 2).Z
    se = zs.std(ddof=1) / math.sqrt(len(zs))
    assert abs(zs.mean() - len(sites)) <= 3 * se


def test_step_general_offspring_mean():
    rng = substream(4, "selftest")
    g = geometric(2)
    reps = 20000
    zs = fw.BatchStats(fw.evolve_particles(_tagged([(0, 0, 0)] * 4, reps, 3), 1, g, 3, rng),
                       reps, 3).Z
    se = zs.std(ddof=1) / math.sqrt(len(zs))
    assert abs(zs.mean() - 4) <= 3 * se


def test_stats_from_handmade_occupancy():
    s = fw.BatchStats(_tagged([(0, 0)] * 2, 1, 2), 1, 2).genstats(0, 5)
    assert (s.Z, s.V, s.Omega) == (2, 2, 1)
    assert s.M[1] == 1 and sum(s.M) == 1
    big = fw.BatchStats(_tagged([(0, 0)] * 70 + [(1, 0)] * 3, 1, 2), 1, 2).genstats(0, 5)
    assert big.overflow_sites == 1 and big.overflow_mass == 70
    assert big.Z == 73 and big.V == 70


def test_batch_stats_match_per_replicate_counts():
    # replicates 0, 2 and 5 are empty; replicate 3 has an overflow site
    d, reps = 2, 6
    sites = {1: [(0, 0), (0, 0), (1, 0)], 3: [(2, 2)] * 67 + [(0, 1)] * 3 + [(5, 0)],
             4: [(-1, 0)]}
    keys = np.concatenate([_tagged(v, 1, d) + (np.int64(r) << fw._rep_shift(d))
                           for r, v in sites.items()])
    bs = fw.BatchStats(np.random.default_rng(0).permutation(keys), reps, d)
    for r in range(reps):
        _, cnt = np.unique(keys[keys >> fw._rep_shift(d) == r], return_counts=True)
        assert bs.Z[r] == cnt.sum() and bs.Omega[r] == len(cnt)
        assert bs.V[r] == cnt.max(initial=0)
        assert bs.overflow_mass[r] == cnt[cnt > fw.J_MAX].sum()
        assert bs.overflow_sites[r] == (cnt > fw.J_MAX).sum()
        hist = np.bincount(np.minimum(cnt, fw.J_MAX + 1), minlength=fw.J_MAX + 2)
        assert np.array_equal(bs.M[r], hist[1:fw.J_MAX + 1])


def test_batch_stats_traced_peak_is_bounded():
    # a conditioned d = 3 bank: the measured peak, typical site included, is
    # about 4.0 keys.nbytes, and the bound sits 25% above it
    reps, n = 500, 256
    keys = fw.evolve_particles(fw._origin_keys(np.arange(reps), 3), n, B, 3,
                               substream(5, "conditioned-sim"), xf.survival_sequence(B, n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fw.BatchStats(keys, reps, 3, substream(6, "conditioned-sim"))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5.0 * keys.nbytes, peak / keys.nbytes


def test_run_batch_invariants_and_martingale():
    rng = substream(5, "selftest")
    bs = fw.run_batch(B, 24, 2, 100_000, rng)
    j = np.arange(1, fw.J_MAX + 1)
    assert np.array_equal((bs.M * j).sum(axis=1) + bs.overflow_mass, bs.Z)
    assert np.all(bs.Omega <= bs.Z)
    alive = bs.Z > 0
    assert np.all(bs.V[alive] * bs.Omega[alive] >= bs.Z[alive])
    se = bs.Z.std(ddof=1) / math.sqrt(len(bs.Z))
    assert abs(bs.Z.mean() - 1.0) <= 3 * se


def test_markov_bound_and_fundamental_identity_mc():
    rng = substream(6, "selftest")
    n, site, reps = 8, (1, 0), 60_000
    counts = fw.site_count_batch(B, n, 2, site, reps, rng)
    exact = lat.transition_field(n, 2).value_at(site)
    u_exact = xf.hitting_field(B, n, 2).value_at(site)
    se_mean = counts.std(ddof=1) / math.sqrt(reps)
    hit = (counts > 0).astype(np.float64)
    se_hit = hit.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - exact) <= 3 * se_mean
    assert abs(hit.mean() - u_exact) <= 3 * se_hit
    assert hit.mean() <= counts.mean()


def test_attached_walks_unstarted_and_age_zero():
    rng = substream(60, "selftest")
    query = np.array([[2, -1], [0, 3], [5, 5]])
    walk, rel = fw.attached_walks(np.array([-1, 0, -1]), query, 10, B, 2, rng)
    # unstarted walks yield nothing; an age-0 walk is its start particle
    assert walk.tolist() == [1] and rel.tolist() == [[0, -3]]
    walk, rel = fw.attached_walks(np.full(4, -1), np.zeros((4, 2)), 10, B, 2, rng)
    assert len(walk) == 0 and rel.shape == (0, 2)


def test_attached_walks_counts_match_transition_field():
    # E U_a(x) = P_a(x): age-3 walks staggered with age-1 walks in one array,
    # read at (1, 0) and summed over the ball of radius 1.5 around it
    rng = substream(61, "selftest")
    reps, ell, site = 40_000, 1.5, np.array([1, 0])
    ages = np.tile([3, 1], reps)
    walk, rel = fw.attached_walks(ages, np.tile(site, (2 * reps, 1)), ell, B, 2, rng)
    at_site = np.bincount(walk[np.all(rel == 0, axis=1)], minlength=2 * reps)
    in_ball = np.bincount(walk, minlength=2 * reps)
    ball = site + lat.sites_in_ball(2, ell)
    for age, col in ((3, 0), (1, 1)):
        p = lat.transition_field(age, 2)
        for counts, exact in ((at_site, p.value_at(site)), (in_ball, p.values_at(ball).sum())):
            x = counts[col::2]
            assert abs(x.mean() - exact) <= 4 * x.std(ddof=1) / math.sqrt(reps), (age, exact)


# both attached-walk engines, called directly whatever route the rule picks
ENGINES = {
    "staggered": lambda ages, query, ell, rng: fw._staggered_walks(ages, query, ell, B, 2, rng),
    "tree": lambda ages, query, ell, rng: fw._tree_walks(ages, query, ell, 2, rng),
}


@pytest.mark.parametrize("age", [2, 3, 4])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_attached_walk_engines_match_pmf_oracle(engine, age):
    rng = substream(62, "selftest", rep=age + 10 * (engine == "tree"))
    reps, sites = 20_000, np.array([(1, 0), (0, 0), (2, 1)])
    walk, rel = ENGINES[engine](np.full(3 * reps, age), np.tile(sites, (reps, 1)), 0, rng)
    assert np.all(rel == 0)
    counts = np.bincount(walk, minlength=3 * reps).reshape(reps, 3)
    oracle = xf.pmf_oracle(B, age, 2)
    for j, x in enumerate(sites):
        pmf = oracle.pmf_at(x)
        if pmf[0] == 1.0:  # (2, 1) lies beyond two steps
            assert counts[:, j].max() == 0
            continue
        obs = np.bincount(counts[:, j], minlength=len(pmf))
        assert len(obs) == len(pmf), (age, x)
        assert chi_square(obs, pmf)["p_value"] > 1e-3, (engine, age, tuple(x))


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_attached_walk_engines_ball_mean_is_transition_mass(engine):
    # E U_a(B(q, ell)) = P_a(B(q, ell)), with ages 6 and 2 in one call
    rng = substream(63, "selftest", rep=int(engine == "tree"))
    reps, ell, site = 30_000, 2.5, np.array([1, -1])
    walk, rel = ENGINES[engine](np.tile([6, 2], reps), np.tile(site, (2 * reps, 1)), ell, rng)
    assert np.all((rel ** 2).sum(axis=1) <= ell ** 2)
    counts = np.bincount(walk, minlength=2 * reps)
    ball = site + lat.sites_in_ball(2, ell)
    for age, col in ((6, 0), (2, 1)):
        x, exact = counts[col::2], lat.transition_field(age, 2).values_at(ball).sum()
        assert abs(x.mean() - exact) <= 4 * x.std(ddof=1) / math.sqrt(reps), (engine, age)


def test_clamped_tree_ball_count_matches_transition_mass():
    # top = 256: the fields are clamped well inside the reach of the walks
    top, ell, site, reps = 256, 7, np.array([9, -4]), 20_000
    assert fw._tree_clamp(top, 2, ell) < top
    walk, _ = fw._tree_walks(np.full(reps, top), np.tile(site, (reps, 1)), ell, 2,
                             substream(64, "selftest"))
    x = np.bincount(walk, minlength=reps)
    exact = lat.transition_field(top, 2).values_at(site + lat.sites_in_ball(2, ell)).sum()
    assert abs(x.mean() - exact) <= 4 * x.std(ddof=1) / math.sqrt(reps) + 1e-14


def test_tree_fields_cold_and_warm_cache_agree_bit_for_bit():
    # top = 12 keeps the checkpoints at 0, 3, 6, 9, 12; ell = 1 shares the
    # clamp of ell = 1.5 but not its ball
    ages = np.tile([12, 7, 3, 0], 500)
    query = np.tile([[1, 0], [2, -1], [0, 3], [1, 1]], (500, 1))

    def draw(ell, seed):
        return fw._tree_walks(ages, query, ell, 2, substream(seed, "selftest"))

    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    lat._marks.clear()
    cold = draw(1.5, 65)
    assert same(cold, draw(1.5, 65))           # warm: the same key
    lat._marks.clear()
    cold_small = draw(1, 66)
    assert cold_small[0].size and len(lat._marks) == 1
    assert same(cold, draw(1.5, 65))           # after another ball
    assert same(cold_small, draw(1, 66))
    # the conditioned sampler grows its tree on its own stream: one entry
    lat._marks.clear()
    sampler = cr.ConditionedSampler(64, (1, 0))
    first = sampler.sample(1000, substream(69, "selftest"))
    keys = list(lat._marks)
    assert keys == [sampler.u.key]
    assert same(first, sampler.sample(1000, substream(69, "selftest")))
    assert list(lat._marks) == keys


def test_attached_walks_route_follows_cost_rule(monkeypatch):
    calls = []
    for name in ("_tree_walks", "_staggered_walks"):
        monkeypatch.setattr(fw, name, lambda *a, name=name: calls.append(name))
    rng = substream(67, "selftest")

    def route(n, reps, dist=B):
        calls.clear()
        fw.attached_walks(np.tile(np.arange(n), reps), np.zeros((n * reps, 2)), 0, dist, 2, rng)
        return calls[0]

    assert route(512, 5) == "_staggered_walks"   # CLI spine --n 512 --reps 5
    assert route(512, 30) == "_staggered_walks"
    assert route(512, 100) == "_tree_walks"      # README spine --n 512 --reps 100
    assert route(512, 512) == "_tree_walks"      # one replicate chunk of C09
    assert route(3, 256) == "_tree_walks"
    assert route(512, 512, geometric(2)) == "_staggered_walks"
    assert route(1, 1000) == "_staggered_walks"  # age 0 only: nothing to step


def test_attached_walks_checks_range_before_choosing_a_route(monkeypatch):
    # spine_typical_batch keeps its spines as int16 on the strength of this check
    def never(*args):
        raise AssertionError("route chosen before the range check")

    for name in ("_tree_walks", "_staggered_walks", "_tree_clamp"):
        monkeypatch.setattr(fw, name, never)
    ages = np.concatenate(([2**14], np.full(10**5, 100)))
    with pytest.raises(ValueError, match="packing range"):
        fw.attached_walks(ages, np.zeros((len(ages), 2)), 0, B, 2, substream(68, "selftest"))


def test_key_packing_lives_in_forward():
    # no other module packs, evolves or unpacks particle keys
    packing = {"evolve_particles", "encode_sites", "decode_sites", "_rep_shift"}
    for path in pathlib.Path(brwlab.__file__).parent.glob("*.py"):
        if path.name == "forward.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            assert name not in packing, f"{path.name}:{getattr(node, 'lineno', '?')} uses {name}"


def test_run_conditioned_one_step_always_pair():
    rng = substream(7, "selftest")
    bs = fw.run_conditioned_batch(B, 1, 2, 50, rng, xf.survival_sequence(B, 1))
    assert np.all(bs.Z == 2)


def test_run_conditioned_attempt_count_geometric(tmp_path):
    # CLI rows report the free runs rejection would have needed: Geometric(s_n)
    from brwlab.cli import main
    n, out = 6, tmp_path / "cond.jsonl"
    main(["simulate", "--n", str(n), "--conditioned", "--reps", "3000", "--seed", "8",
          "--out", str(out)])
    attempts = np.array([json.loads(line)["attempts"] for line in out.read_text().splitlines()])
    s_n = xf.survival_prob(B, n)
    assert attempts.min() >= 1
    se = attempts.std(ddof=1) / math.sqrt(len(attempts))
    assert abs(attempts.mean() - 1.0 / s_n) <= 3 * se


def test_conditioned_batch_matches_survival_conditioning():
    rng = substream(9, "selftest")
    n = 32
    s = xf.survival_sequence(B, n)
    s_n = s[n]
    bs = fw.run_conditioned_batch(B, n, 2, 4000, rng, s)
    assert np.all(bs.Z > 0)
    # conditional mean Z equals 1/s_n exactly
    se = bs.Z.std(ddof=1) / math.sqrt(len(bs.Z))
    assert abs(bs.Z.mean() - 1.0 / s_n) <= 3 * se


def test_typical_site_draw_weighted_by_occupancy():
    from brwlab.stats import chi_square
    rng = substream(10, "selftest")
    occ = {(0, 0): 5, (2, 1): 1, (-1, 0): 2}
    sites = sorted(occ)
    reps = 8000
    particles = [s for s in sites for _ in range(occ[s])]
    bs = fw.BatchStats(_tagged(particles, reps, 2), reps, 2, rng)
    draws = [tuple(s) for s in bs.S.tolist()]
    assert all(t == occ[s] for t, s in zip(bs.T.tolist(), draws))
    counts = np.array([draws.count(s) for s in sites], dtype=np.float64)
    probs = np.array([occ[s] for s in sites], dtype=np.float64) / len(particles)
    chi = chi_square(counts, probs)
    assert chi["p_value"] > 1e-3


def test_population_batch_survival_matches_recursion():
    rng = substream(11, "selftest")
    n, reps = 64, 400_000
    z = fw.population_batch(B, n, reps, rng)
    s_exact = xf.survival_prob(B, n)
    pi_hat = (z > 0).mean()
    se = math.sqrt(pi_hat * (1 - pi_hat) / reps)
    assert abs(pi_hat - s_exact) <= 3 * se
    se_z = z.std(ddof=1) / math.sqrt(reps)
    assert abs(z.mean() - 1.0) <= 3 * se_z


def test_overlap_one_step_matches_enumeration():
    oracle = exact_overlap_mean_one_step()
    assert oracle == pytest.approx(9 / 25, abs=1e-12)
    rng = substream(12, "selftest")
    d1 = fw.overlap_batch(B, 1, 2, (0, 0), (0, 0), 150_000, rng)
    se = d1.std(ddof=1) / math.sqrt(len(d1))
    assert abs(d1.mean() - oracle) <= 3 * se


def test_overlap_zero_when_either_side_extinct():
    # force extinction of both walks by drawing until a zero sample appears
    rng = substream(13, "selftest")
    vals = fw.overlap_batch(B, 4, 2, (3, 0), (-3, 0), 2000, rng)
    assert vals.min() == 0
    assert np.all(vals >= 0)


def test_overlap_mean_bounded_by_double_step():
    rng = substream(14, "selftest")
    n, dx = 8, (2, 0)
    vals = fw.overlap_batch(B, n, 2, (0, 0), dx, 100_000, rng)
    bound = 2.0 * lat.transition_field(2 * n, 2).value_at(dx)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert vals.mean() <= bound + 3 * se


def test_genstats_json_schema():
    rng = substream(15, "selftest")
    bs = fw.run_conditioned_batch(B, 3, 2, 1, rng, xf.survival_sequence(B, 3), want_typical=True)
    s = bs.genstats(0, 3, conditioned=True, attempts=4, rep=7, seed=123)
    d = s.to_json_dict()
    assert set(d) == {"rep", "n", "d", "seed", "conditioned", "attempts", "Z", "V",
                      "Omega", "M", "overflow", "T", "S"}
    assert d["conditioned"] is True and len(d["M"]) == fw.J_MAX
    assert set(d["overflow"]) == {"sites", "mass"}
    assert d["attempts"] == 4 and d["T"] >= 1 and len(d["S"]) == 2


def test_key_packing_range_checked():
    rng = substream(16, "selftest")
    with pytest.raises(ValueError):
        fw.run_conditioned_batch(B, 4, 3, 2**17, rng, xf.survival_sequence(B, 4))
    with pytest.raises(ValueError):
        fw.overlap_batch(B, 4, 2, (2**14 - 2, 0), (0, 0), 10, rng)
    # attached walks: particle reach and walk tags, checked before any step
    with pytest.raises(ValueError):
        fw.attached_walks(np.array([2**14]), np.zeros((1, 2)), 0, B, 2, rng)
    with pytest.raises(ValueError):
        fw.attached_walks(np.full(2**17, -1), np.zeros((2**17, 3)), 0, B, 3, rng)


COND_LAWS = ("binary", "geometric:2", "table:0=0.4,1=0.3,2=0.2,3=0.1")


def exact_population_law(dist, n, degree=256):
    """P(Z_n = k), k = 0..degree, by iterating the pgf on truncated
    coefficient arrays: f_0(z) = z, f_{j+1} = Phi(f_j)."""
    f = np.zeros(degree + 1)
    f[1] = 1.0
    q = dict(zip(dist.support.tolist(), dist.probs))
    for _ in range(n):
        acc = np.zeros(degree + 1)
        power = np.zeros(degree + 1)
        power[0] = 1.0
        for l in range(int(dist.support.max()) + 1):
            acc += q.get(l, 0.0) * power
            power = np.convolve(power, f)[:degree + 1]
        f = acc
    return f


@pytest.mark.parametrize("spec", COND_LAWS)
def test_conditioned_z_law_matches_pgf_iteration(spec):
    dist = parse_offspring(spec)
    n, want = 6, 20_000
    s = xf.survival_sequence(dist, n)
    law = exact_population_law(dist, n)
    assert 1.0 - law[0] == pytest.approx(s[n], rel=1e-12)
    cond = law[1:] / s[n]
    pop = fw.population_conditioned_batch(dist, n, want, substream(20, "selftest"), s)
    spatial = fw.run_conditioned_batch(dist, n, 2, want, substream(21, "selftest"), s).Z
    for z in (pop, spatial):
        assert z.min() >= 1
        obs = np.bincount(np.minimum(z, len(cond) + 1), minlength=len(cond) + 2)[1:-1]
        assert chi_square(obs, cond)["p_value"] > 1e-3


@pytest.mark.parametrize("spec", ["binary", "geometric:2"])
def test_conditioned_runs_match_rejection_reference(spec):
    # reference: free runs kept only when they survive (rejection sampling)
    dist = parse_offspring(spec)
    n, d = 8, 2
    s = xf.survival_sequence(dist, n)
    free = fw.run_batch(dist, n, d, 120_000, substream(22, "selftest"))
    alive = free.Z > 0
    tree = fw.run_conditioned_batch(dist, n, d, 20_000, substream(23, "selftest"), s)
    for ref, got in ((free.V[alive], tree.V), (free.Omega[alive], tree.Omega)):
        se = math.hypot(ref.std(ddof=1) / math.sqrt(len(ref)),
                        got.std(ddof=1) / math.sqrt(len(got)))
        assert abs(ref.mean() - got.mean()) <= 4 * se
