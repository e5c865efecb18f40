import math
import random
import signal
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qminfind import qsearch
from qminfind.grover import success_probability
from qminfind.harness import CHI2_ALPHA, uniform_chisquare
from qminfind.qsearch import (
    Backend,
    Oracle,
    SearchParams,
    _round_schedule,
    _search,
    exponential_search,
)
from qminfind.seeding import derive_stream
from qminfind.table import generate_table


def _first_marked(n: int, t: int) -> Oracle:
    """The oracle over 0..n-1 marking the first t indices, as equivalence cells build it."""
    return Oracle(np.arange(n) < t)


def _marking(n: int, marked) -> Oracle:
    mask = np.zeros(n, dtype=bool)
    mask[list(marked)] = True
    return Oracle(mask)


def test_backend_parse():
    assert Backend("exact") is Backend.EXACT_STATEVECTOR
    assert Backend("analytic") is Backend.ANALYTIC_SAMPLER
    with pytest.raises(ValueError, match="quantum"):
        Backend("quantum")


def test_growth_factor_bounds():
    SearchParams(growth=1.01)
    SearchParams(growth=1.3)
    for bad in (1.0, 4.0 / 3.0, 1.5, 0.9):
        with pytest.raises(ValueError, match="growth factor"):
            SearchParams(growth=bad)


def test_oracle_validation():
    with pytest.raises(ValueError, match="size >= 1"):
        Oracle(np.zeros(0, dtype=bool))
    with pytest.raises(ValueError, match="size >= 1"):
        Oracle(np.zeros((2, 2), dtype=bool))
    mask = np.array([True, False, True, False])
    oracle = Oracle(mask)
    mask[1] = True  # the oracle keeps its own read-only copy
    assert (oracle.n, oracle.marked_count) == (4, 2)
    assert oracle.is_marked(np.arange(4)).tolist() == [True, False, True, False]
    assert not oracle.mask.flags.writeable


def test_oracle_sampling_errors():
    rng = random.Random(0)
    with pytest.raises(ValueError, match="no marked"):
        _first_marked(3, 0).sample_marked(rng)
    with pytest.raises(ValueError, match="every index"):
        _first_marked(3, 3).sample_unmarked(rng)


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="budget"):
        exponential_search(
            _first_marked(4, 1), SearchParams(), -1.0, Backend.ANALYTIC_SAMPLER, random.Random(0)
        )


@pytest.mark.parametrize("backend", list(Backend))
def test_everything_marked_ends_immediately(backend):
    # First round measures the uniform state with zero iterations and hits.
    oracle = _first_marked(9, 9)
    out = exponential_search(oracle, SearchParams(), 100.0, backend, random.Random(1))
    assert out.iterations_used == 0
    assert not out.interrupted
    assert 0 <= out.index < 9


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("budget", [1, 5, 23])
def test_nothing_marked_consumes_integer_budget_exactly(backend, budget):
    oracle = _first_marked(16, 0)
    out = exponential_search(oracle, SearchParams(), float(budget), backend, random.Random(2))
    assert out.interrupted
    assert out.iterations_used == budget


class _CountingStream:
    """Wraps a ``random.Random`` and counts the draws made through it."""

    def __init__(self, seed):
        self.inner = random.Random(seed)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        return self.inner.randrange(*args)

    def random(self):
        self.draws += 1
        return self.inner.random()


def _play_out_nothing_marked(n: int, budget: float, params: SearchParams, rng) -> int:
    """Iterations a search with nothing marked spends when its rounds are played one by one.

    The schedule of ``exponential_search`` with every round a miss: draw j
    below the growing cap, truncate it to the budget left, stop once the
    budget is spent or a round was truncated.
    """
    m_cap = math.sqrt(n)
    m = 1.0
    remaining, used = budget, 0
    while True:
        high = math.ceil(m)
        j = rng.randrange(high) if high > 1 else 0
        if j > remaining:
            return used + int(remaining)
        remaining -= j
        used += j
        if remaining <= 0:
            return used
        m = min(params.growth * m, m_cap)


@pytest.mark.parametrize("n", [2, 3, 16, 64])
@pytest.mark.parametrize("budget", [0.0, 0.5, 1.0, 7.25, 23.0, 23.9, 100.5])
def test_nothing_marked_closed_form_matches_the_rounds(n, budget):
    # Both backends settle a search with nothing marked at once with one
    # index draw; playing its rounds out one by one must spend the same
    # iterations, exactly the floor of the budget, for every stream.
    oracle = _first_marked(n, 0)
    for seed in range(5):
        played = _play_out_nothing_marked(n, budget, SearchParams(), random.Random(seed))
        assert played == math.floor(budget)
        for backend in Backend:
            rng = _CountingStream(seed)
            settled = exponential_search(oracle, SearchParams(), budget, backend, rng)
            assert settled.iterations_used == played
            assert type(settled.iterations_used) is int
            assert settled.interrupted
            assert rng.draws == 1
            assert 0 <= settled.index < n


def test_exact_search_with_nothing_marked_measures_a_uniform_index():
    # The state stays uniform, so the one measurement is uniform over all n.
    n = 16
    oracle = _first_marked(n, 0)
    rng = derive_stream(8, "unit-exact-empty")
    counts = np.zeros(n, dtype=np.int64)
    for _ in range(4000):
        out = exponential_search(oracle, SearchParams(), 9.5, Backend.EXACT_STATEVECTOR, rng)
        counts[out.index] += 1
    _, p_value, dof = uniform_chisquare(counts)
    assert dof == n - 1
    assert p_value > CHI2_ALPHA


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test still running after five seconds."""

    def expire(signum, frame):
        raise TimeoutError("the search did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("n", [2, 16])
def test_nothing_marked_with_an_infinite_budget_is_rejected(deadline, backend, n):
    with pytest.raises(ValueError, match="nothing marked"):
        exponential_search(_first_marked(n, 0), SearchParams(), math.inf, backend, random.Random(0))


@pytest.mark.parametrize(("marked", "budget"), [((5,), 1.0), ((1, 4, 6, 11), 0.0), ((), 9.5)])
def test_miss_indices_are_uniform_over_the_unmarked_set(marked, budget):
    # A tight budget makes many searches with marked indices end on a miss
    # (with one marked index, after any number of j = 0 rounds); with
    # nothing marked every search does.  Either way the index returned for
    # a miss must be uniform over the unmarked indices.
    n = 16
    oracle = _marking(n, marked)
    rng = derive_stream(7, "unit-miss", len(marked))
    misses = Counter()
    for _ in range(4000):
        out = exponential_search(oracle, SearchParams(), budget, Backend.ANALYTIC_SAMPLER, rng)
        if out.index not in marked:
            assert out.interrupted
            misses[out.index] += 1
    unmarked = [i for i in range(n) if i not in marked]
    assert set(misses) <= set(unmarked)
    assert sum(misses.values()) >= 1000
    _, p_value, dof = uniform_chisquare(np.array([misses[i] for i in unmarked]))
    assert dof == len(unmarked) - 1
    assert p_value > CHI2_ALPHA


def test_zero_budget_still_measures_once():
    oracle = _first_marked(8, 0)
    out = exponential_search(oracle, SearchParams(), 0.0, Backend.ANALYTIC_SAMPLER, random.Random(3))
    assert out.interrupted
    assert out.iterations_used == 0
    assert 0 <= out.index < 8


def test_single_index_domain_terminates():
    # sqrt(1) = 1 keeps every draw at j = 0; an unmarked domain can never
    # consume the budget, so the search must bail out rather than spin.
    out = exponential_search(
        _first_marked(1, 0), SearchParams(), math.inf, Backend.ANALYTIC_SAMPLER, random.Random(4)
    )
    assert out.interrupted
    assert out.iterations_used == 0
    out = exponential_search(
        _first_marked(1, 1), SearchParams(), math.inf, Backend.ANALYTIC_SAMPLER, random.Random(4)
    )
    assert not out.interrupted
    assert out.index == 0


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 64),
    t_frac=st.floats(0.01, 1.0),
    backend=st.sampled_from(list(Backend)),
)
def test_uninterrupted_search_returns_a_marked_index(seed, n, t_frac, backend):
    t = max(1, round(t_frac * n))
    oracle = _first_marked(n, t)
    out = exponential_search(oracle, SearchParams(), math.inf, backend, random.Random(seed))
    assert not out.interrupted
    assert out.index < t


@given(seed=st.integers(0, 10**6), n=st.integers(2, 64), budget=st.floats(0.0, 50.0))
def test_iterations_never_exceed_budget(seed, n, budget):
    rng = random.Random(seed)
    t = rng.randrange(n + 1)
    oracle = _first_marked(n, t)
    out = exponential_search(oracle, SearchParams(), budget, Backend.ANALYTIC_SAMPLER, rng)
    assert out.iterations_used <= budget


@given(seed=st.integers(0, 10**6))
def test_search_is_deterministic_per_stream(seed):
    oracle = _marking(32, (3, 17))
    a = exponential_search(oracle, SearchParams(), 40.0, Backend.ANALYTIC_SAMPLER, random.Random(seed))
    b = exponential_search(oracle, SearchParams(), 40.0, Backend.ANALYTIC_SAMPLER, random.Random(seed))
    assert a == b


@pytest.mark.parametrize("n,t", [(64, 4), (256, 16)])
def test_mean_iterations_below_sqrt_bound(n, t):
    # 4.5 * sqrt(n/t) bounds the expected iteration count; check with slack.
    oracle = _first_marked(n, t)
    rng = derive_stream(12, "unit-iterbound", n, t)
    runs = 2000
    total = 0
    total_sq = 0
    for _ in range(runs):
        used = exponential_search(
            oracle, SearchParams(), math.inf, Backend.ANALYTIC_SAMPLER, rng
        ).iterations_used
        total += used
        total_sq += used * used
    mean = total / runs
    var = (total_sq - total * total / runs) / (runs - 1)
    se = math.sqrt(max(var, 0.0) / runs)
    assert mean + 3 * se <= 4.5 * math.sqrt(n / t)


def test_backends_hit_at_matching_rates():
    # Same (n, t) and a tight budget, so hits are not certain; the two
    # backends must agree on the hit frequency within sampling noise.
    n, t, budget, runs = 16, 3, 20.0, 600
    oracle = _first_marked(n, t)
    fractions = {}
    for backend in Backend:
        hits = 0
        rng = derive_stream(5, "unit-agree", backend.value)
        for _ in range(runs):
            out = exponential_search(oracle, SearchParams(), budget, backend, rng)
            hits += out.index < t
        fractions[backend] = hits / runs
    diff = abs(fractions[Backend.EXACT_STATEVECTOR] - fractions[Backend.ANALYTIC_SAMPLER])
    sigma = math.sqrt(2 * 0.25 / runs)  # worst-case joint deviation
    assert diff <= 4 * sigma


class _ScriptedStream:
    """Stream stub: the round's draw gives ``j``, ``random`` always gives ``u``.

    The round's draw is the one ``getrandbits`` call the analytic search
    makes for j; the class samples are drawn by the oracle with
    ``randrange`` and get the lowest value of their range, so a search
    settled without rounds still draws a valid index.
    """

    def __init__(self, j: int, u: float):
        self.j = j
        self.u = u
        self.j_drawn = False
        self.uniform_draws = 0

    def getrandbits(self, k):
        assert not self.j_drawn, "a scripted search draws one round"
        assert self.j < 2**k
        self.j_drawn = True
        return self.j

    def randrange(self, start, stop=None):
        return 0 if stop is None else start

    def random(self):
        self.uniform_draws += 1
        return self.u


def _fixed_cap(high: int):
    """A round schedule whose every round has the cap ``high``, even above sqrt(n)."""
    return lambda n, growth: ((), (high, high.bit_length()))


def _scripted_round_hits(n: int, t: int, j: int, u: float) -> bool:
    """Whether one analytic round of j iterations hits when its uniform draw is u.

    The caller patches in a schedule whose cap makes j a legal draw; a
    budget of exactly j ends the search after that round whatever it
    measures.
    """
    rng = _ScriptedStream(j, u)
    oracle = _first_marked(n, t)
    out = exponential_search(oracle, SearchParams(), float(j), Backend.ANALYTIC_SAMPLER, rng)
    assert out.iterations_used == j
    assert rng.uniform_draws == (1 if t > 0 else 0)
    # With nothing marked the search is settled without a round (n >= 2),
    # and a one-index domain only ever runs j = 0, which it need not draw.
    assert rng.j_drawn == (t > 0 and n > 1)
    return out.index < t


def test_analytic_round_uses_the_closed_form_exactly(monkeypatch):
    # The round hits iff its uniform draw lies below its success probability.
    # A draw of p itself must miss and the next float below p must hit, which
    # pins the probability the round computed to p bit for bit.
    def check(n, t, j):
        p = success_probability(n, t, j)
        if t == 0:
            assert not _scripted_round_hits(n, t, j, 0.0)
            return
        assert _scripted_round_hits(n, t, j, math.nextafter(p, -math.inf))
        if t < n:
            assert not _scripted_round_hits(n, t, j, p)

    for j in range(13):
        # A cap of j + 2 makes j a legal draw.
        monkeypatch.setattr(qsearch, "_round_schedule", _fixed_cap(j + 2))
        for n in range(2, 65):
            for t in range(n + 1):
                check(n, t, j)
    # A one-index domain keeps the cap 1 and never draws.
    monkeypatch.setattr(qsearch, "_round_schedule", _fixed_cap(1))
    for t in (0, 1):
        check(1, t, 0)


@pytest.mark.parametrize("seed", range(3))
def test_round_draw_is_randrange_draw_for_draw(monkeypatch, seed):
    # With every index marked a round hits with probability exactly 1, so
    # the search spends exactly its first round's j.  A twin stream that
    # calls randrange(high) and then the hit's uniform draw must give the
    # same j and end in the same state, for every cap up to 4096 (the
    # saturated caps at n = 16, 64, 1024 and 16384 are 4, 8, 32 and 128).
    rng, twin = random.Random(seed), random.Random(seed)
    for high in range(2, 4097):
        monkeypatch.setattr(qsearch, "_round_schedule", _fixed_cap(high))
        hit, used, interrupted = _search(16, 16, math.inf, SearchParams(), rng)
        assert hit and not interrupted
        assert used == twin.randrange(high)
        twin.random()
        assert rng.getstate() == twin.getstate()
    # A cap of 1 draws no j at all, only the hit's uniform draw.
    monkeypatch.undo()
    assert _search(1, 1, math.inf, SearchParams(), rng) == (True, 0, False)
    twin.random()
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("backend", list(Backend))
def test_both_backends_run_the_rounds_of_one_schedule(monkeypatch, backend):
    # Both backends take each round's cap from ``_round_schedule`` and draw
    # j as randrange(cap) draws it.  With every index marked the first round
    # hits, so the search spends exactly that j; a twin stream then makes
    # the measurement's uniform draw and, on the analytic backend, the
    # index draw, and must end in the same state.
    n = 4
    oracle = _first_marked(n, n)
    rng, twin = random.Random(11), random.Random(11)
    for high in range(2, 300):
        monkeypatch.setattr(qsearch, "_round_schedule", _fixed_cap(high))
        out = exponential_search(oracle, SearchParams(), math.inf, backend, rng)
        assert not out.interrupted
        assert out.iterations_used == twin.randrange(high)
        twin.random()
        if backend is Backend.ANALYTIC_SAMPLER:
            assert out.index == twin.randrange(n)
        assert rng.getstate() == twin.getstate()


def _caps_round_by_round(n: int, params: SearchParams, rounds: int) -> tuple[list[int], int]:
    """The caps ceil(m) of the first ``rounds`` rounds, and how many had m < sqrt(n)."""
    m_cap = math.sqrt(n)
    m = 1.0
    caps, growing = [], 0
    for _ in range(rounds):
        caps.append(math.ceil(m))
        growing += m < m_cap
        m = min(params.growth * m, m_cap)
    return caps, growing


def test_round_schedule_matches_the_round_by_round_caps():
    for n in [*range(1, 301), 16384]:
        for growth in (1.01, 8 / 7, 1.33):
            params = SearchParams(growth=growth)
            growing, saturated = _round_schedule(n, params.growth)
            rounds = len(growing) + 5
            caps = [high for high, _ in growing] + [saturated[0]] * 5
            assert (caps, len(growing)) == _caps_round_by_round(n, params, rounds)
            for high, bits in (*growing, saturated):
                assert bits == high.bit_length()
    # The benchmark's size passes 37 growing rounds before it saturates.
    assert len(_round_schedule(16384, SearchParams().growth)[0]) == 37


def test_round_schedule_is_cached_per_size_and_growth():
    # Two SearchParams built apart with equal growth share one cache entry:
    # the key is the growth float, so no search hashes or compares params.
    _round_schedule.cache_clear()
    first, second = SearchParams(growth=1.2), SearchParams(growth=1.2)
    assert first is not second
    rng = random.Random(3)
    _search(64, 1, math.inf, first, rng)
    hits = _round_schedule.cache_info().hits
    _search(64, 1, math.inf, second, rng)
    info = _round_schedule.cache_info()
    assert (info.hits, info.currsize) == (hits + 1, 1)


@pytest.mark.parametrize("seed", range(5))
def test_exact_backend_evaluates_the_predicate_once_per_search(monkeypatch, seed):
    # Stronger than once per search: the marked set is evaluated once per
    # oracle, when the oracle is built, however many searches it serves.
    # Its one ladder reads the oracle's own mask, so no search evaluates or
    # copies the set again.  One marked index of 256: a search runs many
    # rounds of many iterations.
    built = []
    evaluated = []
    build = qsearch.GroverLadder.__init__
    is_marked = Oracle.is_marked

    def counting_build(self, mask):
        built.append((self, mask))
        build(self, mask)

    def counting_is_marked(self, indices):
        evaluated.append(self)
        return is_marked(self, indices)

    monkeypatch.setattr(qsearch.GroverLadder, "__init__", counting_build)
    monkeypatch.setattr(Oracle, "is_marked", counting_is_marked)
    oracle = _marking(256, (7,))
    rng = random.Random(seed)
    used = [
        exponential_search(oracle, SearchParams(), 500.0, Backend.EXACT_STATEVECTOR, rng).iterations_used
        for _ in range(4)
    ]
    assert min(used) > 0
    assert len(built) == 1
    ladder, mask = built[0]
    assert ladder is oracle.ladder and mask is oracle.mask
    assert not evaluated


def test_oracle_keeps_one_ladder():
    table = generate_table(16, "distinct", random.Random(1))
    oracle = Oracle(table.values < table.values[int(table.order[3])])
    ladder = oracle.ladder
    assert oracle.ladder is ladder
    assert ladder.mask is oracle.mask
    assert int(ladder.mask.sum()) == oracle.marked_count == 3


class _PickStream:
    """Stream stub whose ``randrange`` always gives ``k``."""

    def __init__(self, k: int):
        self.k = k

    def randrange(self, stop):
        assert 0 <= self.k < stop
        return self.k


def test_oracle_samples_each_class_in_index_order():
    # The k-th draw value picks the k-th marked (or unmarked) index in
    # index order, whatever order the mask came from.
    mask = np.array([False, True, True, False, False, True, False])
    oracle = Oracle(mask)
    marked, unmarked = [1, 2, 5], [0, 3, 4, 6]
    assert [oracle.sample_marked(_PickStream(k)) for k in range(3)] == marked
    assert [oracle.sample_unmarked(_PickStream(k)) for k in range(4)] == unmarked
