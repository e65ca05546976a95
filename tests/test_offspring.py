import copy
import math

import numpy as np
import pytest

from brwlab import offspring as off
from brwlab.rngstreams import substream
from brwlab.stats import chi_square


@pytest.fixture(scope="module")
def families():
    return {
        "binary": off.binary(),
        "geometric": off.geometric(2),
        "zeta": off.zeta(2.0),
    }


def test_binary_pgf_values(families):
    b = families["binary"]
    assert b.pgf(0.0) == 0.5
    assert b.pgf(1.0) == 1.0
    assert b.pgf_prime(1.0) == 1.0
    assert b.sigma2 == 1.0


def test_construction_rejects_noncritical_tables():
    with pytest.raises(ValueError):
        off.table({0: 0.5, 3: 0.5})
    with pytest.raises(ValueError):
        off.table({0: 0.4, 2: 0.5})


def test_pgf_domain_errors(families):
    g = families["geometric"]
    with pytest.raises(off.PgfDomainError):
        g.pgf(2.5)
    with pytest.raises(off.PgfDomainError):
        families["zeta"].pgf(1.2)
    with pytest.raises(off.PgfDomainError):
        g.pgf(-0.1)


@pytest.mark.parametrize("name", ["binary", "geometric", "zeta"])
def test_pgf_convex_increasing_and_dominates_identity(families, name):
    dist = families[name]
    z = np.linspace(0.0, 1.0, 101)
    vals = np.array([dist.pgf(float(t)) for t in z])
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all(np.diff(vals, 2) >= -1e-12)
    assert np.all(vals >= z - 1e-12)
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)


def _whole_table(dist, term, z):
    """The pgf series summed over every chunk of the table, none skipped."""
    zz = np.asarray(z, dtype=np.float64)
    acc = np.zeros_like(zz)
    for i in range(0, len(dist.support), off._CHUNK):
        ls = dist.support[i:i + off._CHUNK].astype(np.float64)
        acc = acc + term(ls, dist.probs[i:i + off._CHUNK], zz[..., None]).sum(axis=-1)
    return acc


def test_series_skips_are_bit_identical_to_the_whole_table(families):
    # zeta:2 has 2.5M support points; the pgf stops where z^l underflows and
    # the shifted pgf adds -sum Q_l where expm1 saturates at -1
    dist = families["zeta"]
    for z in (0.0, 0.5, 0.99, 0.9999, 1.0, np.array([0.0, 0.5])):
        assert np.array_equal(dist.pgf(z), _whole_table(
            dist, lambda ls, qs, zz: qs * np.power(zz, ls), z))
        assert np.array_equal(dist.pgf_prime(z), _whole_table(
            dist, lambda ls, qs, zz: np.where(ls >= 1, qs * ls, 0.0)
            * np.power(zz, np.maximum(ls - 1, 0)), z))
    with np.errstate(divide="ignore", invalid="ignore"):
        for y in (-1.0, -0.3, -0.02, -1e-4, 0.0, np.array([-1.0, -0.3])):
            assert np.array_equal(dist.pgf_at_one_plus(y), _whole_table(
                dist, lambda ls, qs, zz: np.where(ls >= 1, qs * np.expm1(ls * np.log1p(zz)),
                                                  0.0), y))


@pytest.mark.parametrize("name", ["binary", "geometric", "zeta"])
def test_shifted_pgf_matches_direct_evaluation(families, name):
    dist = families[name]
    for y in (-0.3, -0.05, 0.0):
        direct = dist.pgf(1.0 + y) - 1.0
        assert dist.pgf_at_one_plus(y) == pytest.approx(direct, abs=1e-12)


def test_offspring_sum_edge_cases(families):
    rng = substream(10, "selftest")
    b = families["binary"]
    assert b.sample_offspring_sum(0, rng) == 0
    draws = np.array([b.sample_offspring_sum(1, rng) for _ in range(4000)])
    assert set(np.unique(draws)) <= {0, 2}
    freq = (draws == 0).mean()
    assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / 4000)


def test_fair_bit_sums_are_binomial_half(families, monkeypatch):
    b = families["binary"]
    rng = substream(14, "selftest")
    for k in (1, 5, 63, 64, 65, 130, 200):
        draws = b.sample_offspring_sum(np.full(400_000, k, dtype=np.int64), rng)
        assert np.all(draws % 2 == 0) and 0 <= draws.min() and draws.max() <= 2 * k, k
        pmf = np.array([math.comb(k, j) for j in range(k + 1)]) / 2.0**k
        chi = chi_square(np.bincount(draws // 2, minlength=k + 1), pmf)
        assert chi["p_value"] > 1e-3, (k, chi)
    # zeros and several blocks: every count lies in [0, k]
    k = rng.integers(0, 40, size=3 * off._FAIR_BLOCK + 777)
    k[: 1000] = 0
    draws = b.sample_offspring_sum(k, rng)
    assert draws.shape == k.shape and np.all(0 <= draws) and np.all(draws <= 2 * k)
    assert abs(draws.sum() / k.sum() - 1.0) <= 3 * math.sqrt(1.0 / k.sum())
    out = b.sample_offspring_sum(0, rng)
    assert out == 0 and type(out) is int
    same = [b.sample_offspring_sum(k, substream(15, "selftest")) for _ in range(2)]
    assert np.array_equal(*same)
    # each count is the set bits of its entry's own run of its block's words
    monkeypatch.setattr(off, "_FAIR_BLOCK", 5)
    k = rng.integers(0, 150, size=23)
    k[3] = 0
    twin = copy.deepcopy(rng)
    draws = b.sample_offspring_sum(k, rng)
    for lo in range(0, len(k), 5):
        kb = k[lo:lo + 5]
        words = twin.integers(0, 2**64 - 1, size=(int(kb.sum()) >> 6) + 1,
                              dtype=np.uint64, endpoint=True)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        runs = [bits[e - j:e].sum() for e, j in zip(np.cumsum(kb), kb)]
        assert np.array_equal(draws[lo:lo + 5], 2 * np.array(runs)), lo
    # blocks draw disjoint words: with two one-bit entries per block, the
    # entry sequence has no lag-1 or lag-2 correlation
    monkeypatch.setattr(off, "_FAIR_BLOCK", 2)
    bits = b.sample_offspring_sum(np.ones(20_000, dtype=np.int64), rng) // 2
    for lag in (1, 2):
        r = np.corrcoef(bits[:-lag], bits[lag:])[0, 1]
        assert abs(r) <= 5 / math.sqrt(len(bits)), (lag, r)


def test_offspring_sum_mean_is_parent_count(families):
    rng = substream(11, "selftest")
    for name, dist in families.items():
        draws = dist.sample_offspring_sum(np.full(1_000_000, 5, dtype=np.int64), rng)
        se = draws.std(ddof=1) / 1000.0
        assert abs(draws.mean() - 5.0) <= 3 * se, name


@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("name", ["binary", "geometric"])
def test_offspring_sum_variance_scaling(families, name, k):
    rng = substream(12, "selftest")
    dist = families[name]
    draws = dist.sample_offspring_sum(np.full(1_000_000, k, dtype=np.int64), rng)
    assert abs(draws.var(ddof=1) / k - dist.sigma2) <= 0.05 * dist.sigma2


def test_zeta_sampler_exactness():
    # the variance estimator of a law with infinite third moment fluctuates
    # with the single largest draw, so exactness is checked on frequencies
    # (chi-square against the table) and the mean; variance gets a wide band
    from brwlab.stats import chi_square
    rng = substream(12, "selftest")
    z = off.zeta(2.0)
    draws = z.sample_offspring_sum(np.ones(1_000_000, dtype=np.int64), rng)
    top = 40
    obs = np.bincount(np.minimum(draws, top + 1), minlength=top + 2)
    probs = np.zeros(top + 2)
    for l, q in zip(z.support, z.probs):
        if l <= top:
            probs[l] = q
        else:
            probs[top + 1] += q
    chi = chi_square(obs, probs)
    assert chi["p_value"] > 1e-3
    se = draws.std(ddof=1) / 1000.0
    assert abs(draws.mean() - 1.0) <= 3 * se
    for k in (1, 10):
        sums = z.sample_offspring_sum(np.full(1_000_000, k, dtype=np.int64), rng)
        assert abs(sums.var(ddof=1) / k - z.sigma2) <= 0.5 * z.sigma2


def test_zeta_moment_profile():
    z = off.zeta(2.0)
    half = len(z.support) // 2
    def partial_moment(k, upto):
        s = z.support[:upto].astype(np.float64)
        return float((z.probs[:upto] * s**k).sum())
    # the alpha-th moment has converged on the cached table, the next has not
    assert abs(partial_moment(2, len(z.support)) / partial_moment(2, half) - 1) < 0.01
    assert partial_moment(3, len(z.support)) / partial_moment(3, half) > 1.3
    assert z.tail_class == "polynomial"


def test_geometric_closed_forms_match_table():
    g = off.geometric(2)
    for z in (0.0, 0.4, 1.0):
        series = float((g.probs * np.power(z, g.support)).sum())
        assert g.pgf(z) == pytest.approx(series, abs=1e-12)
    # inside the domain but beyond the table's reliable range: closed form only
    assert g.pgf(1.6) == pytest.approx(0.5 + 0.25 * 1.6 / 0.2, abs=1e-12)
    assert g.sigma2 == pytest.approx(2.0)
    # the table length comes in closed form, also where the float running
    # sum of the weights never reaches 1 - 1e-15
    g50 = off.geometric(50)
    assert len(g50.support) < 2000
    assert abs(g50.probs.sum() - 1.0) <= 1e-12


def test_parse_offspring_specs():
    assert off.parse_offspring("binary").is_binary
    assert off.parse_offspring("geometric:2").name == "geometric:2"
    assert off.parse_offspring("zeta:2.5").name == "zeta:2.5"
    t = off.parse_offspring("table:0=0.5,2=0.5")
    assert t.sigma2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        off.parse_offspring("poisson")


NON_FINITE_SPECS = ["table:0=nan,2=0.5", "table:0=0.5,2=inf", "geometric:inf",
                    "geometric:nan", "zeta:inf", "zeta:nan"]


@pytest.mark.parametrize("spec", NON_FINITE_SPECS)
def test_parse_offspring_rejects_non_finite_specs(spec):
    # NaN compares false with everything, so it used to pass every check
    with pytest.raises(ValueError, match="finite"):
        off.parse_offspring(spec)


def test_population_step_matches_convolution_law():
    rng = substream(13, "selftest")
    g = off.geometric(2)
    z = g.sample_offspring_sum(np.full(200_000, 3, dtype=np.int64), rng)
    # mean 3, variance 3*sigma2
    assert abs(z.mean() - 3.0) <= 3 * z.std(ddof=1) / math.sqrt(len(z))
    assert abs(z.var(ddof=1) / 3 - g.sigma2) <= 0.05 * g.sigma2


KEPT_LAWS = ("binary", "geometric:2", "table:0=0.4,1=0.3,2=0.2,3=0.1")


def thinned_pmf(dist, s):
    """Brute-force P(K = k), k = 1..max l, for the number K of surviving
    children when each child survives independently with probability s."""
    top = int(dist.support.max())
    pmf = np.zeros(top + 1)
    for l, q in zip(dist.support.tolist(), dist.probs):
        for k in range(1, l + 1):
            pmf[k] += q * math.comb(l, k) * s**k * (1 - s) ** (l - k)
    return pmf[1:]


@pytest.mark.parametrize("spec", KEPT_LAWS)
@pytest.mark.parametrize("m", [1, 2, 10])
def test_kept_children_law_matches_thinned_pmf(spec, m):
    from brwlab.exactfields import survival_sequence
    from brwlab.stats import chi_square
    dist = off.parse_offspring(spec)
    s = survival_sequence(dist, m)
    pmf = thinned_pmf(dist, s[m - 1])
    # P(K >= 1) is the survival recursion's s_m = 1 - Phi(1 - s_{m-1})
    assert pmf.sum() == pytest.approx(s[m], rel=1e-12)
    pmf /= s[m]
    top = len(pmf)
    draws = dist.sample_kept(40_000, s[m - 1], substream(60 + m, "selftest", top))
    assert draws.min() >= 1 and draws.max() <= top
    obs = np.bincount(draws, minlength=top + 1)[1:]
    if np.count_nonzero(pmf) == 1:  # binary with one generation left: always K = 2
        assert np.array_equal(obs > 0, pmf > 0)
    else:
        assert chi_square(obs, pmf)["p_value"] > 1e-3
    sums = dist.sample_kept_sum(np.array([0, 3, 1]), s[m - 1], substream(m, "selftest"))
    assert sums[0] == 0 and sums[1] >= 3 and sums[2] >= 1
