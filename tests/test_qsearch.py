import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qminfind.grover import success_probability
from qminfind.qsearch import (
    Backend,
    FixedSetOracle,
    SearchParams,
    exponential_search,
)
from qminfind.seeding import derive_stream


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
    with pytest.raises(ValueError, match="initial cap"):
        SearchParams(m_init=0.5)


def test_oracle_validation():
    with pytest.raises(ValueError):
        FixedSetOracle(0, ())
    with pytest.raises(ValueError):
        FixedSetOracle(4, (4,))
    oracle = FixedSetOracle(4, (2, 0, 2))
    assert oracle.marked == (0, 2)
    assert oracle.marked_count == 2


def test_oracle_sampling_errors():
    rng = random.Random(0)
    with pytest.raises(ValueError, match="no marked"):
        FixedSetOracle(3, ()).sample_marked(rng)
    with pytest.raises(ValueError, match="every index"):
        FixedSetOracle(3, (0, 1, 2)).sample_unmarked(rng)


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="budget"):
        exponential_search(
            FixedSetOracle(4, (0,)), SearchParams(), -1.0, Backend.ANALYTIC_SAMPLER, random.Random(0)
        )


@pytest.mark.parametrize("backend", list(Backend))
def test_everything_marked_ends_immediately(backend):
    # First round measures the uniform state with zero iterations and hits.
    oracle = FixedSetOracle(9, tuple(range(9)))
    out = exponential_search(oracle, SearchParams(), 100.0, backend, random.Random(1))
    assert out.iterations_used == 0
    assert not out.interrupted
    assert 0 <= out.index < 9


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("budget", [1, 5, 23])
def test_nothing_marked_consumes_integer_budget_exactly(backend, budget):
    oracle = FixedSetOracle(16, ())
    out = exponential_search(oracle, SearchParams(), float(budget), backend, random.Random(2))
    assert out.interrupted
    assert out.iterations_used == budget


def test_zero_budget_still_measures_once():
    oracle = FixedSetOracle(8, ())
    out = exponential_search(oracle, SearchParams(), 0.0, Backend.ANALYTIC_SAMPLER, random.Random(3))
    assert out.interrupted
    assert out.iterations_used == 0
    assert 0 <= out.index < 8


def test_single_index_domain_terminates():
    # sqrt(1) = 1 keeps every draw at j = 0; an unmarked domain can never
    # consume the budget, so the search must bail out rather than spin.
    out = exponential_search(
        FixedSetOracle(1, ()), SearchParams(), math.inf, Backend.ANALYTIC_SAMPLER, random.Random(4)
    )
    assert out.interrupted
    assert out.iterations_used == 0
    out = exponential_search(
        FixedSetOracle(1, (0,)), SearchParams(), math.inf, Backend.ANALYTIC_SAMPLER, random.Random(4)
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
    oracle = FixedSetOracle(n, tuple(range(t)))
    out = exponential_search(oracle, SearchParams(), math.inf, backend, random.Random(seed))
    assert not out.interrupted
    assert out.index < t


@given(seed=st.integers(0, 10**6), n=st.integers(2, 64), budget=st.floats(0.0, 50.0))
def test_iterations_never_exceed_budget(seed, n, budget):
    rng = random.Random(seed)
    t = rng.randrange(n + 1)
    oracle = FixedSetOracle(n, tuple(range(t)))
    out = exponential_search(oracle, SearchParams(), budget, Backend.ANALYTIC_SAMPLER, rng)
    assert out.iterations_used <= budget


@given(seed=st.integers(0, 10**6))
def test_search_is_deterministic_per_stream(seed):
    oracle = FixedSetOracle(32, (3, 17))
    a = exponential_search(oracle, SearchParams(), 40.0, Backend.ANALYTIC_SAMPLER, random.Random(seed))
    b = exponential_search(oracle, SearchParams(), 40.0, Backend.ANALYTIC_SAMPLER, random.Random(seed))
    assert a == b


@pytest.mark.parametrize("n,t", [(64, 4), (256, 16)])
def test_mean_iterations_below_sqrt_bound(n, t):
    # 4.5 * sqrt(n/t) bounds the expected iteration count; check with slack.
    oracle = FixedSetOracle(n, tuple(range(t)))
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
    oracle = FixedSetOracle(n, tuple(range(t)))
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
    """Stream stub: the first ``randrange`` gives ``j``, ``random`` always gives ``u``.

    Later ``randrange`` calls (the class samples) return the lowest value.
    """

    def __init__(self, j: int, u: float):
        self.j = j
        self.u = u
        self.j_drawn = False
        self.uniform_draws = 0

    def randrange(self, start, stop=None):
        if not self.j_drawn:
            self.j_drawn = True
            return self.j
        return 0 if stop is None else start

    def random(self):
        self.uniform_draws += 1
        return self.u


def _scripted_round_hits(n: int, t: int, j: int, u: float) -> bool:
    """Whether one analytic round of j iterations hits when its uniform draw is u."""
    oracle = FixedSetOracle(n, tuple(range(t)))
    rng = _ScriptedStream(j, u)
    # m_init = sqrt(n) makes the first round draw j; a budget of exactly j
    # ends the search after that round whatever it measures.
    params = SearchParams(m_init=max(1.0, math.sqrt(n)))
    out = exponential_search(oracle, params, float(j), Backend.ANALYTIC_SAMPLER, rng)
    assert out.iterations_used == j
    assert rng.uniform_draws == (1 if t > 0 else 0)
    return out.index < t


def test_analytic_round_uses_the_closed_form_exactly():
    # The round hits iff its uniform draw lies below its success probability.
    # A draw of p itself must miss and the next float below p must hit, which
    # pins the probability the round computed to p bit for bit.
    for n in range(1, 65):
        for t in range(n + 1):
            for j in range(13) if n > 1 else (0,):
                p = success_probability(n, t, j)
                if t == 0:
                    assert not _scripted_round_hits(n, t, j, 0.0)
                    continue
                assert _scripted_round_hits(n, t, j, math.nextafter(p, -math.inf))
                if t < n:
                    assert not _scripted_round_hits(n, t, j, p)


class CountingOracle:
    """A fixed-set oracle that counts predicate evaluations."""

    def __init__(self, n, marked):
        self.inner = FixedSetOracle(n, marked)
        self.n = n
        self.calls = 0

    def is_marked(self, indices):
        self.calls += 1
        return self.inner.is_marked(indices)


@pytest.mark.parametrize("seed", range(5))
def test_exact_backend_evaluates_the_predicate_once_per_search(seed):
    # One marked index of 256: a search runs many rounds of many iterations.
    oracle = CountingOracle(256, (7,))
    out = exponential_search(oracle, SearchParams(), 500.0, Backend.EXACT_STATEVECTOR, random.Random(seed))
    assert out.iterations_used > 0
    assert oracle.calls == 1
