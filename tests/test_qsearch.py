import math
import random
import signal
from bisect import bisect_right
from collections import Counter
from functools import partial
from itertools import chain, repeat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qminfind import grover, qsearch
from qminfind.bounds import timeout_cap
from qminfind.grover import GroverLadder, success_probability
from qminfind.harness import CHI2_ALPHA, uniform_chisquare
from qminfind.qsearch import DEFAULT_GROWTH, Backend, _round_schedule, check_growth, search
from qminfind.seeding import derive_stream


def test_backend_parse():
    assert Backend("exact") is Backend.EXACT_STATEVECTOR
    assert Backend("analytic") is Backend.ANALYTIC_SAMPLER
    with pytest.raises(ValueError, match="quantum"):
        Backend("quantum")


def test_growth_factor_bounds():
    for good in (1.01, 1.3):
        check_growth(good)
        _round_schedule(64, good)
    # A schedule of a bad growth factor is never built, so a search with
    # one raises before any round; at 1.0 or below m would never reach sqrt(N).
    for bad in (1.0, 4.0 / 3.0, 1.5, 0.9, math.nan):
        message = rf"^growth factor must lie strictly in \(1, 4/3\), got {bad}$"
        with pytest.raises(ValueError, match=message):
            check_growth(bad)
        with pytest.raises(ValueError, match=message):
            _round_schedule(64, bad)
        with pytest.raises(ValueError, match=message):
            search(64, 1, 10.0, bad, random.Random(0))


def test_negative_budget_rejected():
    for backend in Backend:
        with pytest.raises(ValueError, match="budget"):
            search(4, 1, -1.0, DEFAULT_GROWTH, random.Random(0), backend)


@pytest.mark.parametrize(
    "backend", [None, "analytic", GroverLadder(4, 1)], ids=["none", "value", "ladder"]
)
def test_a_backend_that_is_no_backend_is_rejected(backend):
    # A ladder or None in the backend's place would otherwise silently run
    # one backend or the other.
    with pytest.raises(ValueError, match="unknown backend"):
        search(4, 1, 10.0, DEFAULT_GROWTH, random.Random(0), backend)


@pytest.mark.parametrize("backend", list(Backend))
def test_everything_marked_ends_immediately(backend):
    # First round measures the uniform state with zero iterations and hits.
    used, interrupted, index = search(9, 9, 100.0, DEFAULT_GROWTH, random.Random(1), backend)
    assert used == 0
    assert not interrupted
    assert 0 <= index < 9


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("budget", [1, 5, 23])
def test_nothing_marked_consumes_integer_budget_exactly(backend, budget):
    used, interrupted, _ = search(16, 0, float(budget), DEFAULT_GROWTH, random.Random(2), backend)
    assert interrupted
    assert used == budget


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


def _play_out_nothing_marked(n: int, budget: float, growth: float, rng) -> int:
    """Iterations a search with nothing marked spends when its rounds are played one by one.

    The schedule of ``search`` with every round a miss: draw j
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
        m = min(growth * m, m_cap)


@pytest.mark.parametrize("n", [2, 3, 16, 64])
@pytest.mark.parametrize("budget", [0.0, 0.5, 1.0, 7.25, 23.0, 23.9, 100.5])
def test_nothing_marked_closed_form_matches_the_rounds(n, budget):
    # Both backends settle a search with nothing marked at once with one
    # index draw; playing its rounds out one by one must spend the same
    # iterations, exactly the floor of the budget, for every stream.
    for seed in range(5):
        played = _play_out_nothing_marked(n, budget, DEFAULT_GROWTH, random.Random(seed))
        assert played == math.floor(budget)
        for backend in Backend:
            rng = _CountingStream(seed)
            used, interrupted, index = search(n, 0, budget, DEFAULT_GROWTH, rng, backend)
            assert used == played
            assert type(used) is int
            assert interrupted
            assert rng.draws == 1
            assert 0 <= index < n


def test_exact_search_with_nothing_marked_measures_a_uniform_index():
    # The state stays uniform, so the one measurement is uniform over all n.
    n = 16
    rng = derive_stream(8, "unit-exact-empty")
    counts = np.zeros(n, dtype=np.int64)
    for _ in range(4000):
        counts[search(n, 0, 9.5, DEFAULT_GROWTH, rng, Backend.EXACT_STATEVECTOR)[2]] += 1
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
        search(n, 0, math.inf, DEFAULT_GROWTH, random.Random(0), backend)


@pytest.mark.parametrize(("marked", "budget"), [(range(1), 1.0), (range(4), 0.0), (range(0), 9.5)])
def test_miss_indices_are_uniform_over_the_unmarked_set(marked, budget):
    # A tight budget makes many searches with marked indices end on a miss
    # (with one marked index, after any number of j = 0 rounds); with
    # nothing marked every search does.  Either way the position returned
    # for a miss must be uniform over the unmarked positions t..n-1, on
    # both backends.
    n, t = 16, len(marked)
    unmarked = list(range(t, n))
    for backend in Backend:
        rng = derive_stream(7, "unit-miss", backend.value, t)
        misses = Counter()
        for _ in range(4000):
            _, interrupted, index = search(n, t, budget, DEFAULT_GROWTH, rng, backend)
            if index >= t:
                assert interrupted
                misses[index] += 1
        assert set(misses) <= set(unmarked)
        assert sum(misses.values()) >= 1000
        _, p_value, dof = uniform_chisquare(np.array([misses[i] for i in unmarked]))
        assert dof == len(unmarked) - 1
        assert p_value > CHI2_ALPHA, backend


def test_zero_budget_still_measures_once():
    used, interrupted, index = search(8, 0, 0.0, DEFAULT_GROWTH, random.Random(3))
    assert interrupted
    assert used == 0
    assert 0 <= index < 8


def test_single_index_domain_terminates():
    # sqrt(1) = 1 keeps every draw at j = 0; an unmarked domain can never
    # consume the budget, so the search must bail out rather than spin.
    for backend in Backend:
        rng = random.Random(4)
        assert search(1, 0, math.inf, DEFAULT_GROWTH, rng, backend) == (0, True, 0)
        assert search(1, 1, math.inf, DEFAULT_GROWTH, rng, backend) == (0, False, 0)


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 64),
    t_frac=st.floats(0.01, 1.0),
    backend=st.sampled_from(list(Backend)),
)
def test_uninterrupted_search_returns_a_marked_index(seed, n, t_frac, backend):
    t = max(1, round(t_frac * n))
    _, interrupted, index = search(n, t, math.inf, DEFAULT_GROWTH, random.Random(seed), backend)
    assert not interrupted
    assert index < t


@given(seed=st.integers(0, 10**6), n=st.integers(2, 64), budget=st.floats(0.0, 50.0))
def test_iterations_never_exceed_budget(seed, n, budget):
    rng = random.Random(seed)
    t = rng.randrange(n + 1)
    assert search(n, t, budget, DEFAULT_GROWTH, rng)[0] <= budget


@given(seed=st.integers(0, 10**6))
def test_search_is_deterministic_per_stream(seed):
    for backend in Backend:
        a = search(32, 2, 40.0, DEFAULT_GROWTH, random.Random(seed), backend)
        b = search(32, 2, 40.0, DEFAULT_GROWTH, random.Random(seed), backend)
        assert a == b


@pytest.mark.parametrize("n,t", [(64, 4), (256, 16)])
def test_mean_iterations_below_sqrt_bound(n, t):
    # 4.5 * sqrt(n/t) bounds the expected iteration count; check with slack.
    rng = derive_stream(12, "unit-iterbound", n, t)
    runs = 2000
    total = 0
    total_sq = 0
    for _ in range(runs):
        used = search(n, t, math.inf, DEFAULT_GROWTH, rng)[0]
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
    fractions = {}
    for backend in Backend:
        hits = 0
        rng = derive_stream(5, "unit-agree", backend.value)
        for _ in range(runs):
            hits += search(n, t, budget, DEFAULT_GROWTH, rng, backend)[2] < t
        fractions[backend] = hits / runs
    diff = abs(fractions[Backend.EXACT_STATEVECTOR] - fractions[Backend.ANALYTIC_SAMPLER])
    sigma = math.sqrt(2 * 0.25 / runs)  # worst-case joint deviation
    assert diff <= 4 * sigma


class _ScriptedStream:
    """Stream stub: the round's draw gives ``j``, ``random`` always gives ``u``.

    The round's draw is the one ``getrandbits`` call the analytic search
    makes for j; its class position is drawn with ``randrange`` and gets
    the lowest value of its range, so a search settled without rounds
    still draws a valid position.
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
    used, _, index = search(n, t, float(j), DEFAULT_GROWTH, rng)
    assert used == j
    assert rng.uniform_draws == (1 if t > 0 else 0)
    # With nothing marked the search is settled without a round (n >= 2),
    # and a one-index domain only ever runs j = 0, which it need not draw.
    assert rng.j_drawn == (t > 0 and n > 1)
    # The stub draws the lowest position of the class the search ended in.
    assert index in (0, t)
    return index < t


def test_an_exact_round_hits_exactly_when_its_bisection_lands_below_t(monkeypatch):
    # An exact round decides its hit by x < cdf[t - 1], x = u * cdf[-1],
    # and only the state that ends the search is bisected.  bisect_right
    # counts the entries <= x of a nondecreasing CDF, so the two agree for
    # every x: at each entry (runs of zero-probability cells repeat one),
    # at its float neighbours, and at random points, for every ladder
    # state up to the saturated cap, n <= 64 and t = 1..n.  A one-round
    # search ends with the index ``GroverLadder.measure`` draws from u.
    rng = random.Random(38)
    exact = Backend.EXACT_STATEVECTOR
    for n in range(1, 65):
        high = _round_schedule(n, DEFAULT_GROWTH)[1][0]
        for t in range(1, n + 1):
            ladder = GroverLadder(n, t)
            for j in range(high):
                cdf = ladder.cdf(j)
                entries = np.asarray(cdf)
                randoms = [rng.random() for _ in range(8)]
                xs = np.concatenate(
                    [
                        entries,
                        np.nextafter(entries, -math.inf),
                        np.nextafter(entries, math.inf),
                        np.multiply(randoms, entries[-1]),
                        [0.0],
                    ]
                ).tolist()
                mass = cdf[t - 1]
                positions = list(map(partial(bisect_right, cdf), xs))
                assert [x < mass for x in xs] == [i < t for i in positions]
                monkeypatch.setattr(qsearch, "_round_schedule", _fixed_cap(j + 1))
                for u in randoms[:2]:
                    scripted = _ScriptedStream(j, u)
                    used, _, index = search(n, t, j, DEFAULT_GROWTH, scripted, exact)
                    assert used == j
                    assert index == ladder.measure(j, _ScriptedStream(j, u))


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
    # calls randrange(high), then the hit's uniform draw and the class
    # position's randrange(16), must give the same j and position and end
    # in the same state, for every cap up to 4096 (the saturated caps at
    # n = 16, 64, 1024 and 16384 are 4, 8, 32 and 128).
    rng, twin = random.Random(seed), random.Random(seed)
    for high in range(2, 4097):
        monkeypatch.setattr(qsearch, "_round_schedule", _fixed_cap(high))
        used, interrupted, index = search(16, 16, math.inf, DEFAULT_GROWTH, rng)
        assert not interrupted
        assert used == twin.randrange(high)
        twin.random()
        assert index == twin.randrange(16)
        assert rng.getstate() == twin.getstate()
    # A cap of 1 draws no j at all, only the hit's uniform draw and the
    # position in a one-index class.
    monkeypatch.undo()
    assert search(1, 1, math.inf, DEFAULT_GROWTH, rng) == (0, False, 0)
    twin.random()
    twin.randrange(1)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", range(3))
def test_analytic_index_is_the_class_position_draw(seed):
    # A zero budget leaves one round, of j = 0 (the first cap is 1, so no j
    # is drawn): its uniform draw, then randrange(t) on a hit or
    # randrange(t, n) on a miss, draw for draw with a twin stream.
    rng, twin = random.Random(seed), random.Random(seed)
    n = 16
    outcomes = set()
    for t in range(1, n):
        for _ in range(40):
            used, interrupted, index = search(n, t, 0.0, DEFAULT_GROWTH, rng)
            hit = twin.random() < success_probability(n, t, 0)
            assert (used, interrupted) == (0, not hit)
            assert index == (twin.randrange(t) if hit else twin.randrange(t, n))
            assert rng.getstate() == twin.getstate()
            outcomes.add(hit)
    assert outcomes == {True, False}


@pytest.mark.parametrize("backend", list(Backend))
def test_both_backends_run_the_rounds_of_one_schedule(monkeypatch, backend):
    # Both backends take each round's cap from ``_round_schedule`` and draw
    # j as randrange(cap) draws it.  With every index marked the first round
    # hits, so the search spends exactly that j; a twin stream then makes
    # the measurement's uniform draw and, on the analytic backend, the
    # position draw, and must end in the same state.
    n = 4
    rng, twin = random.Random(11), random.Random(11)
    for high in range(2, 300):
        monkeypatch.setattr(qsearch, "_round_schedule", _fixed_cap(high))
        used, interrupted, index = search(n, n, math.inf, DEFAULT_GROWTH, rng, backend)
        assert not interrupted
        assert used == twin.randrange(high)
        twin.random()
        if backend is Backend.ANALYTIC_SAMPLER:
            assert index == twin.randrange(n)
        assert rng.getstate() == twin.getstate()


def _caps_round_by_round(n: int, growth: float, rounds: int) -> tuple[list[int], int]:
    """The caps ceil(m) of the first ``rounds`` rounds, and how many had m < sqrt(n)."""
    m_cap = math.sqrt(n)
    m = 1.0
    caps, growing = [], 0
    for _ in range(rounds):
        caps.append(math.ceil(m))
        growing += m < m_cap
        m = min(growth * m, m_cap)
    return caps, growing


def test_round_schedule_matches_the_round_by_round_caps():
    for n in [*range(1, 301), 16384]:
        for growth in (1.01, 8 / 7, 1.33):
            growing, saturated = _round_schedule(n, growth)
            rounds = len(growing) + 5
            caps = [high for high, _ in growing] + [saturated[0]] * 5
            assert (caps, len(growing)) == _caps_round_by_round(n, growth, rounds)
            for high, bits in (*growing, saturated):
                assert bits == high.bit_length()
    # The benchmark's size passes 37 growing rounds before it saturates.
    assert len(_round_schedule(16384, DEFAULT_GROWTH)[0]) == 37


def test_round_schedule_is_cached_per_size_and_growth():
    # Two equal growth floats built apart share one cache entry.
    _round_schedule.cache_clear()
    first, second = float("1.2"), 6.0 / 5.0
    assert first is not second and first == second
    rng = random.Random(3)
    search(64, 1, math.inf, first, rng)
    hits = _round_schedule.cache_info().hits
    search(64, 1, math.inf, second, rng)
    info = _round_schedule.cache_info()
    assert (info.hits, info.currsize) == (hits + 1, 1)


def _schedule_caps(n: int, growth: float) -> set[int]:
    growing, saturated = _round_schedule(n, growth)
    return {high for high, _ in (*growing, saturated)}


def _counted_bytes(tables) -> int:
    """What the store should count for ``tables``: each table whole."""
    return sum(grover._TABLE_BYTES + len(probs) * grover._ENTRY_BYTES for probs in tables.values())


def test_every_stored_hit_probability_is_the_closed_form(monkeypatch):
    # Analytic rounds read sin^2((2j+1) theta) from the store's table of
    # (n, t).  Every entry the searches stored is that closed form bit for
    # bit, and a table grows only to the cap of a round, so it ends at the
    # largest cap it was grown to.
    grow = grover.extend_hits
    grown = {}

    def recording_grow(probs, n, t, high):
        grown.setdefault((n, t), []).append(high)
        grow(probs, n, t, high)

    monkeypatch.setattr(grover, "extend_hits", recording_grow)
    rng = random.Random(5)
    for n in range(2, 65):
        caps = _schedule_caps(n, DEFAULT_GROWTH)
        for t in range(1, n + 1):
            for budget in (math.inf, 3.0, 0.0):
                for _ in range(4):
                    search(n, t, budget, DEFAULT_GROWTH, rng)
        tables = grover._hit_tables(n)
        assert sorted(tables) == list(range(1, n + 1))
        for t, probs in tables.items():
            highs = grown[n, t]
            assert set(highs) <= caps and highs == sorted(set(highs))
            assert len(probs) == highs[-1]
            assert [p.hex() for p in probs] == [
                success_probability(n, t, j).hex() for j in range(len(probs))
            ]
        assert tables.held == _counted_bytes(tables)


@pytest.mark.parametrize(("n", "t"), [(4, 5), (4, -1), (0, 0), (0, 1)])
def test_a_bad_count_raises_and_stores_nothing(n, t):
    with pytest.raises(ValueError, match="must be positive|outside"):
        search(n, t, math.inf, DEFAULT_GROWTH, random.Random(1))
    assert not grover._hit_tables(n)
    assert grover._hit_tables(n).held == 0


def test_one_table_serves_every_growth_factor(monkeypatch):
    # The hit probabilities depend on (n, t, j) alone: searches at another
    # growth factor or under a patched schedule read and extend the very
    # tables stored before, by t alone.
    n = 64
    rng = random.Random(3)
    for t in range(1, n + 1):
        search(n, t, math.inf, 1.05, rng)
    tables = grover._hit_tables(n)
    stored = dict(tables)
    for growth in (DEFAULT_GROWTH, 1.3):
        for t in range(1, n + 1):
            search(n, t, math.inf, growth, rng)
    monkeypatch.setattr(qsearch, "_round_schedule", _fixed_cap(40))
    for t in range(1, n + 1):
        search(n, t, math.inf, DEFAULT_GROWTH, rng)
    assert grover._hit_tables(n) is tables
    assert sorted(tables) == sorted(stored) == list(range(1, n + 1))
    assert all(tables[t] is stored[t] for t in stored)
    assert max(map(len, tables.values())) == 40
    assert tables.held == _counted_bytes(tables)


def _measured_search(n: int, t: int, budget: float, growth: float, rng, ladder: GroverLadder):
    """The exact search written out, every round measured by ``GroverLadder.measure``.

    The schedule's caps, j as ``randrange(cap)`` draws it above a cap of
    1, truncation to the budget and the stop rule, as ``search`` runs them.
    """
    if t == 0:
        return (int(budget) if n >= 2 else 0), True, ladder.measure(0, rng)
    growing, saturated = _round_schedule(n, growth)
    remaining, used = budget, 0
    for high, _ in chain(growing, repeat(saturated)):
        j = rng.randrange(high) if high > 1 else 0
        truncated = j > remaining
        if truncated:
            j = int(remaining)
        index = ladder.measure(j, rng)
        remaining -= j
        used += j
        if index < t or truncated or remaining <= 0:
            return used, truncated or index >= t, index


class _GridStream:
    """A stream whose uniform draws are multiples of 1/16.

    The uniform state's CDF entries at n = 16 and 64 are exact multiples
    of 1/64 summing to exactly 1, so such a draw times the total lands on
    an entry, where only the side of the bisection decides the index.
    """

    def __init__(self, seed: str):
        self._rng = random.Random(seed)
        self.getrandbits = self._rng.getrandbits
        self.randrange = self._rng.randrange
        self.getstate = self._rng.getstate

    def random(self) -> float:
        return math.floor(self._rng.random() * 16) / 16


@pytest.mark.parametrize("stream", [random.Random, _GridStream])
@pytest.mark.parametrize("shelf", ["fresh", "warm", "evicting"])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 1000])
def test_exact_rounds_draw_what_measure_draws(monkeypatch, n, shelf, stream):
    # An exact search reads its ladder's CDFs in place.  It must return
    # what the rounds give when each is measured by ``GroverLadder.measure``
    # on a ladder of its own, and leave its stream where they leave theirs,
    # under random draws and draws that land on CDF entries (``_GridStream``):
    # on a fresh ladder (``grover.ladder`` replaced by the constructor, so
    # no search finds one stored), on a stored one already holding half a
    # search's states, and in a store with room for one amplitude copy and
    # one state, so a search that draws j >= 2 evicts its own ladder while
    # it still reads it.
    if shelf == "fresh":
        monkeypatch.setattr(grover, "ladder", GroverLadder)
    if shelf == "evicting":
        monkeypatch.setattr(grover, "KEPT_LADDER_BYTES", 3 * 8 * n)
    depth = math.ceil(math.sqrt(n))
    ts = sorted({0, 1, 2, n // 4, n // 2, n - 1, n} & set(range(n + 1)))
    budgets = [0.0, 0.5, 7.5, timeout_cap(n), math.inf]
    evicted = 0
    for t in ts:
        if shelf == "warm" and depth // 2:
            grover.extend(grover.ladder(n, t), depth // 2)
        for budget in budgets[: 4 + (t > 0)]:
            for seed in range(6):
                # The ladder the search will take from the store, stored
                # there by its growth to j = 1 if it was not.
                ladder = grover.ladder(n, t)
                if shelf != "fresh":
                    grover.extend(ladder, 1)
                rng, twin = stream(f"{seed}-{t}-{budget}"), stream(f"{seed}-{t}-{budget}")
                outcome = search(n, t, budget, DEFAULT_GROWTH, rng, Backend.EXACT_STATEVECTOR)
                reference = GroverLadder(n, t)
                assert outcome == _measured_search(n, t, budget, DEFAULT_GROWTH, twin, reference)
                assert rng.getstate() == twin.getstate()
                if shelf != "fresh":
                    evicted += grover._shelf(n).get(t) is not ladder
    assert (evicted > 0) == (shelf == "evicting" and n >= 16)
