import copy
import math
import tracemalloc

import numpy as np
import pytest

from brwlab import forward as fw
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
    assert b.pgf_at_one_plus(-1.0) == -0.5  # Phi(0) = 1/2
    assert b.pgf_at_one_plus(0.0) == 0.0    # Phi(1) = 1
    assert b.pgf_prime(1.0) == 1.0
    assert b.sigma2 == 1.0
    # Phi'(z) = z exactly on the series path, for arrays and for floats
    z = np.concatenate(([0.0, 5e-324, 2.2e-308], np.geomspace(1e-300, 1e200, 4001)))
    assert np.array_equal(b.pgf_prime(z), z)
    assert all(type(b.pgf_prime(x)) is float and b.pgf_prime(x) == x for x in z.tolist())


def test_construction_rejects_noncritical_tables():
    with pytest.raises(ValueError):
        off.table({0: 0.5, 3: 0.5})
    with pytest.raises(ValueError):
        off.table({0: 0.4, 2: 0.5})


def test_pgf_domain_errors(families):
    g = families["geometric"]
    with pytest.raises(off.PgfDomainError):
        g.pgf_at_one_plus(1.5)
    with pytest.raises(off.PgfDomainError):
        families["zeta"].pgf_at_one_plus(0.2)
    with pytest.raises(off.PgfDomainError):
        g.pgf_at_one_plus(-1.1)


@pytest.mark.parametrize("name", ["binary", "geometric", "zeta"])
def test_pgf_convex_increasing_and_dominates_identity(families, name):
    # on y = z - 1: Phi(1 + y) - 1 increases, is convex and lies above y
    dist = families[name]
    y = np.linspace(-1.0, 0.0, 101)
    vals = np.array([dist.pgf_at_one_plus(float(t)) for t in y])
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all(np.diff(vals, 2) >= -1e-12)
    assert np.all(vals >= y - 1e-12)
    assert vals[-1] == pytest.approx(0.0, abs=1e-9)


def _full_table(dist):
    """Support and weights of the whole law: the head table followed by the
    tail's weights c*l^-power, written out."""
    if dist.tail is None:
        return dist.support.astype(np.float64), dist.probs
    t = dist.tail
    ls = np.arange(t.lo, t.hi + 1, dtype=np.float64)
    return (np.concatenate((dist.support.astype(np.float64), ls)),
            np.concatenate((dist.probs, t.c * ls ** (-t.power))))


def _old_zeta_table(alpha):
    """The zeta law as one table, normalized over the whole table."""
    power = alpha + 1.5
    lmax = int(math.ceil((10.0 / off._TRUNC) ** (1.0 / (power - 1.0)))) + 10
    ls = np.arange(2, lmax + 1, dtype=np.int64)
    w = ls.astype(np.float64) ** (-power)
    q = 0.5 / float((ls * w).sum()) * w
    return np.concatenate(([0, 1], ls)), np.concatenate(([0.5 - float(q.sum()), 0.5], q))


@pytest.fixture(scope="module")
def old_zeta():
    return {alpha: _old_zeta_table(alpha) for alpha in (2.0, 3.0)}


def _whole_table(dist, term, z):
    """The pgf series summed over every chunk of the whole law, none skipped."""
    support, probs = _full_table(dist)
    zz = np.asarray(z, dtype=np.float64)
    acc = np.zeros_like(zz)
    for i in range(0, len(support), off._CHUNK):
        ls = support[i:i + off._CHUNK]
        acc = acc + term(ls, probs[i:i + off._CHUNK], zz[..., None]).sum(axis=-1)
    return acc


def test_series_skips_are_bit_identical_to_the_whole_table(families):
    # zeta:2 has 2.5M support points; Phi' stops where z^(l-1) underflows and
    # the shifted pgf adds -sum Q_l where expm1 saturates at -1
    dist = families["zeta"]
    assert dist.support_size == len(_full_table(dist)[0]) == 2_511_898
    for z in (0.0, 0.5, 0.99, 0.9999, 1.0, np.array([0.0, 0.5])):
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
    support, probs = _full_table(dist)
    for y in (-0.3, -0.05, 0.0):
        direct = float((probs * np.power(1.0 + y, support)).sum()) - 1.0
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


def word_path_counts(karr, rng):
    """`_fair_bit_counts` read by prefix popcounts in every block, the
    one- and two-bit blocks included: the reference for their bit reading."""
    out = np.empty_like(karr)
    for lo in range(0, len(karr), off._FAIR_BLOCK):
        ends = np.cumsum(karr[lo:lo + off._FAIR_BLOCK])
        words = rng.integers(0, 2**64 - 1, size=(int(ends[-1]) >> 6) + 1,
                             dtype=np.uint64, endpoint=True)
        below = np.zeros(len(words) + 1, dtype=np.int64)
        np.cumsum(np.bitwise_count(words), out=below[1:])
        word = ends >> 6
        upto = below[word] + np.bitwise_count(words[word] & off._LOW_BITS[ends & 63])
        out[lo:lo + len(upto)] = np.diff(upto, prepend=0)
    return out


@pytest.fixture
def bit_blocks(monkeypatch):
    """(c, entries) of every block that `_fair_bit_counts` reads bit by bit."""
    seen, real = [], off._constant_fair_bits
    monkeypatch.setattr(off, "_constant_fair_bits",
                        lambda c, m, rng: seen.append((c, m)) or real(c, m, rng))
    return seen


_F = off._FAIR_BLOCK
_MIXED = substream(16, "selftest").integers(1, 3, size=_F // 2)  # ones and twos
FAIR_CASES = {  # entries -> the (c, entries) blocks read bit by bit
    "ones": (np.ones(3 * _F + 17, dtype=np.int64), [(1, _F)] * 3 + [(1, 17)]),
    "twos": (np.full(2 * _F - 5, 2, dtype=np.int64), [(2, _F), (2, _F - 5)]),
    "ones-then-mixed": (np.concatenate((np.ones(_F, dtype=np.int64), _MIXED)), [(1, _F)]),
    "mixed-then-twos": (np.concatenate((_MIXED, np.full(_F // 2 + 3, 2))), [(2, 3)]),
    "zeros": (np.zeros(1000, dtype=np.int64), []),
    "single-one": (np.ones(1, dtype=np.int64), [(1, 1)]),
    "single-two": (np.full(1, 2, dtype=np.int64), [(2, 1)]),
    "threes": (np.full(_F + 3, 3, dtype=np.int64), []),
}


@pytest.mark.parametrize("case", sorted(FAIR_CASES))
def test_one_and_two_bit_blocks_match_the_word_path(bit_blocks, case):
    # the same counts, and the generator left where the word path leaves it
    k, blocks = FAIR_CASES[case]
    rng, twin = substream(17, "selftest"), substream(17, "selftest")
    got = off._fair_bit_counts(k, rng)
    assert np.array_equal(got, word_path_counts(k, twin))
    assert rng.integers(0, 2**63) == twin.integers(0, 2**63)
    assert bit_blocks == blocks


def test_population_batch_reads_both_generations_bit_by_bit(bit_blocks):
    # one particle per replicate: all ones, then all twos after compaction
    reps = 5000
    z = fw.population_batch(off.binary(), 2, reps, substream(18, "selftest"))
    assert [c for c, _ in bit_blocks] == [1, 2] and bit_blocks[0][1] == reps
    assert 0 < bit_blocks[1][1] < reps and z.max() > 0


def test_negative_parent_count_raises(families):
    rng = substream(19, "selftest")
    for k in (-1, np.array([3, 0, -2, 5]), np.array([-1])):
        with pytest.raises(ValueError, match="parent count must be >= 0"):
            families["binary"].sample_offspring_sum(k, rng)
        with pytest.raises(ValueError, match="parent count must be >= 0"):
            families["geometric"].sample_offspring_sum(k, rng)
    empty = families["binary"].sample_offspring_sum(np.empty(0, dtype=np.int64), rng)
    assert empty.shape == (0,)


def binomial_pmf(r, q):
    return np.array([math.comb(r, j) * q**j * (1 - q) ** (r - j) for j in range(r + 1)])


class ShortChunks:
    """A generator whose geometric draws come in chunks of at most `cap`, so
    that `_success_positions` needs many chunks; with `ones` every gap is 1."""

    def __init__(self, rng, cap, ones=False):
        self.rng, self.cap, self.ones = rng, cap, ones

    def geometric(self, p, size):
        size = min(size, self.cap)
        return np.ones(size, dtype=np.int64) if self.ones else self.rng.geometric(p, size=size)


def test_success_positions_across_chunks_keep_the_last_trial():
    # every gap 1: every trial succeeds, the last one included, and the
    # chunks (8 to 13 draws at p = 1e-3) join without a gap or a repeat
    for trials in (0, 1, 12, 13, 1000):
        pos = off._success_positions(trials, 1e-3, ShortChunks(None, 10**9, ones=True))
        assert np.array_equal(pos, np.arange(1, trials + 1)), trials
    # genuine gaps in chunks of at most 3: each position succeeds with
    # probability p, independently of the others
    rng, trials, p, calls = substream(16, "selftest"), 7, 0.3, 20_000
    hits = np.zeros((calls, trials + 1), dtype=np.int64)
    for i in range(calls):
        pos = off._success_positions(trials, p, ShortChunks(rng, 3))
        assert np.all(np.diff(pos) > 0) and (pos.size == 0 or 1 <= pos[0] <= pos[-1] <= trials)
        hits[i, pos] = 1
    freq = hits[:, 1:].mean(axis=0)
    assert np.all(np.abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / calls)), freq
    chi = chi_square(np.bincount(hits.sum(axis=1), minlength=trials + 1), binomial_pmf(trials, p))
    assert chi["p_value"] > 1e-3, chi


def test_bernoulli_counts_give_each_entry_its_own_trials():
    # with every gap 1 each placed trial lands on its own entry: all of
    # them for q < 1/2 (x = r), or all the failures for q > 1/2 (x = 0)
    r = np.array([1, 0, 2, 0, 0, 5, 1], dtype=np.int64)
    ones = ShortChunks(None, 10**9, ones=True)
    assert np.array_equal(off._bernoulli_counts(r, 0.1, ones), r)
    assert np.array_equal(off._bernoulli_counts(r, 0.9, ones), np.zeros_like(r))


@pytest.mark.parametrize("q, pattern, branch", [
    (1e-3, (0, 1, 3, 7, 20), "gaps"),
    (0.05, (0, 1, 3, 7, 20), "gaps"),
    (0.3, (0, 1, 2), "gaps"),
    (0.3, (0, 1, 3, 7, 20), "binomial"),
    (0.7, (0, 1, 2), "complement"),
    (0.97, (0, 1, 3, 7, 20), "complement"),
    (1.0, (0, 1, 3, 7, 20), "all"),
])
def test_bernoulli_counts_are_binomial(q, pattern, branch):
    r = np.tile(np.array(pattern, dtype=np.int64), 20_000)
    dense = r.sum() * min(q, 1 - q) > off._DENSE * len(r)
    assert dense == (branch == "binomial")
    x = off._bernoulli_counts(r, q, substream(17, "selftest"))
    assert x.shape == r.shape and np.all((0 <= x) & (x <= r))
    if q == 1.0:
        assert np.array_equal(x, r)
        return
    for k in pattern[1:]:
        chi = chi_square(np.bincount(x[r == k], minlength=k + 1), binomial_pmf(k, q))
        assert chi["p_value"] > 1e-3, (k, chi)
    empty = off._bernoulli_counts(np.zeros(0, dtype=np.int64), q, substream(17, "selftest"))
    assert empty.shape == (0,)


@pytest.mark.parametrize("s", [0.002, 0.1, 0.9, 0.999])
def test_binary_kept_children_are_one_plus_a_coin(families, s):
    # q = s/(2-s) is 0.001, 0.053, 0.82 and 0.998: the last two place failures
    m, q = 200_000, s / (2 - s)
    k = families["binary"].sample_kept(m, s, substream(18, "selftest"))
    assert k.shape == (m,) and set(np.unique(k)) <= {1, 2}
    second = k == 2
    assert abs(second.mean() - q) <= 4 * math.sqrt(q * (1 - q) / m), second.mean()
    # the coins are independent of their neighbours
    both = (second[1:] & second[:-1]).mean()
    assert abs(both - q * q) <= 4 * math.sqrt(q * q * (1 - q * q) / m), both


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


def test_zeta_sampler_exactness(old_zeta):
    # the variance estimator of a law with infinite third moment fluctuates
    # with the single largest draw, so exactness is checked on frequencies
    # (chi-square against the table) and the mean; variance gets a wide band
    rng = substream(12, "selftest")
    z = off.zeta(2.0)
    draws = z.sample_offspring_sum(np.ones(1_000_000, dtype=np.int64), rng)
    top = 40
    obs = np.bincount(np.minimum(draws, top + 1), minlength=top + 2)
    support, probs = old_zeta[2.0]
    cells = np.bincount(np.minimum(support, top + 1), weights=probs, minlength=top + 2)
    chi = chi_square(obs, cells)
    assert chi["p_value"] > 1e-3
    se = draws.std(ddof=1) / 1000.0
    assert abs(draws.mean() - 1.0) <= 3 * se
    for k in (1, 10):
        sums = z.sample_offspring_sum(np.full(1_000_000, k, dtype=np.int64), rng)
        assert abs(sums.var(ddof=1) / k - z.sigma2) <= 0.5 * z.sigma2


def test_zeta_moment_profile():
    z = off.zeta(2.0)
    support, probs = _full_table(z)
    half = len(support) // 2
    def partial_moment(k, upto):
        return float((probs[:upto] * support[:upto] ** k).sum())
    # the alpha-th moment has converged on the truncated law, the next has not
    assert abs(partial_moment(2, len(support)) / partial_moment(2, half) - 1) < 0.01
    assert partial_moment(3, len(support)) / partial_moment(3, half) > 1.3
    assert z.tail_class == "polynomial"


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0])
def test_zeta_sums_match_the_whole_table(alpha):
    # the tail's mass, mean and second moment come from Euler-Maclaurin sums
    z = off.zeta(alpha)
    support, probs = _old_zeta_table(alpha)
    assert z.support_size == len(support)
    assert np.array_equal(z.support, support[:off._CHUNK])
    ls = support.astype(np.float64)
    whole = [math.fsum(probs * ls**k) for k in (0, 1, 2)]
    total = float(z.probs.sum()) + z.tail.moment(0)
    mean = float((z.support * z.probs).sum()) + z.tail.moment(1)
    assert total == pytest.approx(whole[0], rel=1e-13)
    assert mean == pytest.approx(whole[1], rel=1e-13)
    assert z.sigma2 == pytest.approx(whole[2] - 1.0, rel=1e-13)
    assert z.tail.moment(0) == pytest.approx(math.fsum(probs[off._CHUNK:]), rel=1e-13)


def _cells(support, probs, top=40, bins=12):
    """Cell of each support point: one per l <= top, then log-spaced bins
    out to the largest l; and the law's mass in each cell."""
    edges = np.unique(np.geomspace(top + 1, support[-1] + 1, bins + 1).astype(np.int64))
    edges = np.concatenate((np.arange(top + 1), edges))
    cell_of = lambda l: np.searchsorted(edges, l, side="right") - 1
    return cell_of, np.bincount(cell_of(support), weights=probs, minlength=len(edges) - 1)


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_zeta_draws_follow_the_whole_table(alpha, old_zeta):
    # sample_each draws the law itself; sample_kept at s = 1 keeps every
    # child, so K = l given l >= 1; at s = 1/2 it is the thinned law, whose
    # terms past l = 300 carry under 2^-250
    z = off.zeta(alpha)
    support, probs = old_zeta[alpha]
    cell_of, cells = _cells(support, probs)
    rng = substream(16, "selftest", int(alpha))
    draws = z.sample_each(400_000, rng)
    assert chi_square(np.bincount(cell_of(draws), minlength=len(cells)), cells)["p_value"] > 1e-3
    kept = z.sample_kept(400_000, 1.0, rng)
    pos = probs[1:] / probs[1:].sum()
    assert chi_square(np.bincount(cell_of(kept), minlength=len(cells)),
                      np.bincount(cell_of(support[1:]), weights=pos, minlength=len(cells)))["p_value"] > 1e-3
    s = 0.5
    thinned = np.zeros(40)  # P(K = k), k = 1..40
    for l, q in zip(support[1:300].tolist(), probs[1:300]):
        for k in range(1, min(l, 40) + 1):
            thinned[k - 1] += q * math.comb(l, k) * s**l
    thinned /= math.fsum(probs * -np.expm1(support * math.log1p(-s)))
    kept = z.sample_kept(400_000, s, rng)
    assert kept.min() >= 1
    assert chi_square(np.bincount(np.minimum(kept, 41) - 1, minlength=41),
                      np.append(thinned, 1.0 - thinned.sum()))["p_value"] > 1e-3


def _tail_draws_match(tail, s, rng, m=400_000, bins=24):
    """Chi-square p-value of m tail draws with weights l^-s against the exact
    tail pmf on log-spaced bins (one cell per l below 32)."""
    ls = np.arange(tail.lo, tail.hi + 1)
    w = ls.astype(np.float64) ** -s
    edges = np.unique(np.concatenate((np.arange(tail.lo, 32),
                                      np.geomspace(max(tail.lo, 32), tail.hi + 1, bins + 1)
                                      .astype(np.int64))))
    draws = tail.draw(m, s, rng)
    assert draws.min() >= tail.lo and draws.max() <= tail.hi
    obs = np.bincount(np.searchsorted(edges, draws, side="right") - 1, minlength=len(edges) - 1)
    pmf = np.add.reduceat(w, edges[:-1] - tail.lo) / w.sum()
    return chi_square(obs, pmf)["p_value"]


@pytest.mark.parametrize("bias", [0, 1])
def test_tail_sampler_matches_the_tail_pmf(bias):
    # zeta:2's tail holds 5.5e-10 of the law (3.7e-6 size-biased), so the
    # full-law tests almost never reach it: draw from it directly, with the
    # plain (s = power) and the size-biased (s = power - 1) exponent
    tail = off.zeta(2.0).tail
    assert tail.lo == off._CHUNK
    rng = substream(17, "selftest", bias)
    assert _tail_draws_match(tail, tail.power - bias, rng) > 1e-3
    # from lo = 4096 the envelope's floor(Y) law is off by under
    # s/(2 lo) = 4e-4 relative, below what 400k draws resolve; from lo = 2
    # it is off by a factor near 2, so these draws check the rejection step
    near = off.PowerTail(1.0, tail.power, 2, 100_000)
    assert _tail_draws_match(near, near.power - bias, rng) > 1e-3


def test_zeta_builds_no_whole_table():
    # one table of the 2.5M-point law traced 115 MB
    tracemalloc.start()
    try:
        off.parse_offspring("zeta:2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("spec", ["binary", "geometric:2", "geometric:50", "zeta:2",
                                  "table:0=0.4,1=0.3,2=0.2,3=0.1"])
def test_scalar_shifted_pgf_is_bit_identical_to_the_array_path(spec):
    from brwlab.exactfields import survival_sequence
    dist = off.parse_offspring(spec)
    # zeta:2's series costs about 1 ms per step at n near 1000, so it stops earlier
    n = 400 if spec == "zeta:2" else 10_000
    s = survival_sequence(dist, n)
    a = np.empty(n + 1)
    a[0] = 1.0
    for k in range(n):
        a[k + 1] = -dist.pgf_at_one_plus(np.array([-a[k]]))[0]
    assert np.array_equal(s, a)
    with pytest.raises(off.PgfDomainError):
        dist.pgf_at_one_plus(math.nan)


def test_geometric_closed_forms_match_table():
    g = off.geometric(2)
    for z in (0.0, 0.4, 1.0):
        series = float((g.probs * np.power(z, g.support)).sum())
        assert 1.0 + g.pgf_at_one_plus(z - 1.0) == pytest.approx(series, abs=1e-12)
    # inside the domain but beyond the table's reliable range: closed form only
    assert g.pgf_at_one_plus(0.6) == pytest.approx(0.5 + 0.25 * 1.6 / 0.2 - 1.0, abs=1e-12)
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
    # the families' double-precision limits still build
    assert off.geometric(4e4).sigma2 > 0 and off.zeta(298).sigma2 > 0


NON_FINITE_SPECS = ["table:0=nan,2=0.5", "table:0=0.5,2=inf", "geometric:inf",
                    "geometric:nan", "zeta:inf", "zeta:nan"]


@pytest.mark.parametrize("spec", NON_FINITE_SPECS)
def test_parse_offspring_rejects_non_finite_specs(spec):
    # NaN compares false with everything, so it used to pass every check
    with pytest.raises(ValueError, match="finite"):
        off.parse_offspring(spec)


@pytest.mark.parametrize("spec,match", [
    ("table:-1=0.5,3=0.5", "litter sizes must be >= 0"),
    ("table:0=0.5,2=0.3,2=0.5", "litter size 2 twice"),
    ("table:", "table entry '' is not"),
    ("table:0=0.5,2=0.5,", "table entry '' is not"),
    ("table:0=0.5=1,2=0.5", "table entry '0=0.5=1' is not"),
    ("geometric:1e16", r"1 < m <= 40000"),
    ("geometric:1e17", r"1 < m <= 40000"),
    ("zeta:1e9", r"2 <= alpha <= 298"),
    ("zeta:300", r"2 <= alpha <= 298"),
])
def test_pathological_specs_fail_naming_the_fault(spec, match):
    with pytest.raises(ValueError, match=match):
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
