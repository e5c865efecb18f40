"""Report bytes pinned for five small configs of three experiments.

Every run draws from the stream (seed, experiment tag, run index), and a
report is a deterministic fold of those runs, so a refactor of the run
layer must leave these CSV texts byte for byte as they are.  A test failing
here means some run now draws a different stream, or folds differently.
A deliberate stream change (for example a new table or rank sampler)
updates the pinned text below and records the change in CHANGES.md.
"""
import pytest

from qminfind.cli import main

RUN_DUP = """\
n,seed,backend,lambda,cap,returned_index,returned_is_minimum,first_hit_time,total_spent,loop_passes
16,3,analytic,1.1428571428571428,112.4,7,True,4.0,112.0,2
16,3,analytic,1.1428571428571428,112.4,6,True,0.0,112.0,1
16,3,analytic,1.1428571428571428,112.4,7,True,0.0,112.0,1
16,3,analytic,1.1428571428571428,112.4,1,True,4.0,112.0,2
"""

RUN_BOOST_EXTEND = """\
n,seed,backend,lambda,cap,returned_index,returned_is_minimum,first_hit_time,total_spent,loop_passes
16,3,analytic,1.1428571428571428,224.8,9,True,,224.0,4
16,3,analytic,1.1428571428571428,224.8,8,True,,224.0,2
16,3,analytic,1.1428571428571428,224.8,7,True,,224.0,1
16,3,analytic,1.1428571428571428,224.8,0,True,,224.0,2
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
50,11.66,1.1254423166752108,56.2,True,2.3,0.4220939057912616,24.526880739814544,True,2.34
"""

LEMMA1 = """\
rank,pairs,ever_chosen,frequency,theory,stderr,margin,asserted,ok
1,200,200,1.0,1.0,0.0,0.01,True,True
2,200,102,0.51,0.5,0.03534826728426727,0.10604480185280182,True,True
3,200,71,0.355,0.3333333333333333,0.033836001536824645,0.10150800461047393,True,True
4,200,47,0.235,0.25,0.029981244136960027,0.08994373241088008,True,True
5,200,35,0.175,0.2,0.026867731575255845,0.08060319472576753,True,True
6,200,33,0.165,0.16666666666666666,0.026246428328441186,0.07873928498532357,True,True
7,200,35,0.175,0.14285714285714285,0.026867731575255845,0.08060319472576753,True,True
8,200,26,0.13,0.125,0.02378024390118823,0.0713407317035647,True,True
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
        (["lemma1", "--n", "8", "--runs", "200", "--seed", "9"], LEMMA1),
    ],
    ids=["run-dup", "run-boost-extend", "run-exact", "cost-uncapped", "lemma1"],
)
def test_csv_report_bytes_are_pinned(capsys, argv, expected):
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == expected
