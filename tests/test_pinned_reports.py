"""Report bytes pinned for five configs of three experiments.

Every run draws from the stream (seed, experiment tag, run index), and a
report is a deterministic fold of those runs, so a refactor of the run
layer must leave these CSV texts byte for byte as they are.  A test failing
here means some run now draws a different stream, or folds differently.
A deliberate stream change (for example a new table or rank sampler)
updates the pinned text below and records the change in CHANGES.md.

The lemma1 config runs 40 000 runs so that its verdict, which must pass,
tests every rank at 4 standard errors or more: at 200 runs the 3 SE
per-rank test rejected 14 of 400 seeds of correct code.
"""
import pytest

from qminfind.cli import main

RUN_DUP = """\
n,seed,backend,lambda,cap,returned_index,returned_is_minimum,first_hit_time,total_spent,loop_passes
16,3,analytic,1.1428571428571428,112.4,3,True,0.0,112.0,1
16,3,analytic,1.1428571428571428,112.4,6,True,0.0,112.0,1
16,3,analytic,1.1428571428571428,112.4,1,True,4.0,112.0,2
16,3,analytic,1.1428571428571428,112.4,3,True,0.0,112.0,1
"""

RUN_BOOST_EXTEND = """\
n,seed,backend,lambda,cap,returned_index,returned_is_minimum,first_hit_time,total_spent,loop_passes
16,3,analytic,1.1428571428571428,224.8,0,True,,224.0,4
16,3,analytic,1.1428571428571428,224.8,0,True,,224.0,3
16,3,analytic,1.1428571428571428,224.8,0,True,,224.0,4
16,3,analytic,1.1428571428571428,224.8,0,True,,224.0,3
"""

RUN_EXACT = """\
n,seed,backend,lambda,cap,returned_index,returned_is_minimum,first_hit_time,total_spent,loop_passes
64,3,exact,1.1428571428571428,230.4,51,True,44.0,230.0,6
64,3,exact,1.1428571428571428,230.4,35,True,17.0,230.0,3
64,3,exact,1.1428571428571428,230.4,38,True,23.0,230.0,4
64,3,exact,1.1428571428571428,230.4,43,True,13.0,230.0,3
64,3,exact,1.1428571428571428,230.4,38,True,31.0,230.0,5
"""

COST_UNCAPPED = """\
runs,mean_first_hit_time,stderr_first_hit_time,cost_bound,cost_ok,mean_search_steps,\
stderr_search_steps,search_steps_bound,search_steps_ok,mean_loop_passes
50,11.92,1.1640324001381699,56.2,True,2.08,0.328061716443596,24.526880739814544,True,2.46
"""

LEMMA1 = """\
rank,pairs,ever_chosen,frequency,theory,stderr,margin,asserted,ok
1,40000,40000,1.0,1.0,0.0,0.01,True,True
2,40000,20012,0.5003,0.5,0.0024999995499999593,0.01,True,True
3,40000,13357,0.333925,0.3333333333333333,0.002358066445072106,0.01,True,True
4,40000,10080,0.252,0.25,0.002170806301815065,0.01,True,True
5,40000,8226,0.20565,0.2,0.0020208790012021995,0.01,True,True
6,40000,6624,0.1656,0.16666666666666666,0.0018586059291845595,0.01,True,True
7,40000,5587,0.139675,0.14285714285714285,0.0017332476335985576,0.01,True,True
8,40000,5040,0.126,0.125,0.00165924681708298,0.01,True,True
"""


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["run", "--n", "16", "--runs", "4", "--seed", "3", "--mode", "dup:3"], RUN_DUP),
        (
            ["run", "--n", "16", "--runs", "4", "--seed", "3", "--boost", "2",
             "--boost-strategy", "extend"],
            RUN_BOOST_EXTEND,
        ),
        (["run", "--n", "64", "--runs", "5", "--seed", "3", "--backend", "exact"], RUN_EXACT),
        (["cost", "--n", "16", "--runs", "50", "--seed", "2"], COST_UNCAPPED),
        (["lemma1", "--n", "8", "--runs", "40000", "--seed", "9"], LEMMA1),
    ],
    ids=["run-dup", "run-boost-extend", "run-exact", "cost-uncapped", "lemma1"],
)
def test_csv_report_bytes_are_pinned(capsys, argv, expected):
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == expected
