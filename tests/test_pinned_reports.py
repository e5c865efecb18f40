"""Report bytes pinned for thirteen configs of five experiments.

Every run or draw uses its own stream (seed, experiment key, index), and
a report is a deterministic fold of those runs, so a refactor of the run
layer must leave these CSV texts byte for byte as they are.  A test failing
here means some run now draws a different stream, or folds differently.
A deliberate stream change (for example a new table or rank sampler)
updates the pinned text below and records the change in CHANGES.md.

The distinct lemma1 config runs 40 000 runs so that its verdict, which must
pass, tests every rank at 4 standard errors or more: at 200 runs the 3 SE
per-rank test rejected 14 of 400 seeds of correct code.  The other lemma1
configs either compare as an upper bound (ties) or assert ranks 1..4 only.
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
16,3,analytic,1.1428571428571428,224.8,0,True,16.0,224.0,4
16,3,analytic,1.1428571428571428,224.8,0,True,9.0,224.0,3
16,3,analytic,1.1428571428571428,224.8,0,True,15.0,224.0,4
16,3,analytic,1.1428571428571428,224.8,0,True,8.0,224.0,3
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

EQUIVALENCE = """\
check,t,j,estimate,expected,tolerance,p_value,ok
closed-form,,12,5.218048215738236e-15,0.0,1e-09,,True
fixed-j,0,0,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,0,1,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,0,2,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,0,3,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,0,4,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,0,5,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,0,6,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,0,7,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,0,8,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,1,0,0.08666666666666667,0.0625,6.334248366623973e-05,0.09350314234471085,True
fixed-j,1,1,0.49666666666666665,0.47265625,6.334248366623973e-05,0.4185058459912866,True
fixed-j,1,2,0.88,0.908447265625,6.334248366623973e-05,0.08890038069300027,True
fixed-j,1,3,0.9666666666666667,0.9613189697265625,6.334248366623973e-05,0.7644632997177476,True
fixed-j,1,4,0.6133333333333333,0.5817041397094724,6.334248366623973e-05,0.292143962039084,True
fixed-j,1,5,0.11666666666666667,0.1254916787147522,6.334248366623973e-05,0.7272848915188914,True
fixed-j,1,6,0.013333333333333334,0.020380768924951515,6.334248366623973e-05,0.5378567879332738,True
fixed-j,1,7,0.31666666666666665,0.36491288826800855,6.334248366623973e-05,0.09294291807508398,True
fixed-j,1,8,0.9033333333333333,0.8360891748598078,6.334248366623973e-05,0.0010208340583449725,True
fixed-j,2,0,0.13,0.12500000000000003,6.334248366623973e-05,0.7932427735520724,True
fixed-j,2,1,0.7566666666666667,0.7812500000000001,6.334248366623973e-05,0.29552412561118147,True
fixed-j,2,2,0.97,0.9453124999999999,6.334248366623973e-05,0.056959375473803434,True
fixed-j,2,3,0.3333333333333333,0.330078125,6.334248366623973e-05,0.9023875003332471,True
fixed-j,2,4,0.0033333333333333335,0.01220703125000009,6.334248366623973e-05,0.28155554953689715,True
fixed-j,2,5,0.5733333333333334,0.5479736328125003,6.334248366623973e-05,0.38489139993292276,True
fixed-j,2,6,1.0,0.9997863769531249,6.334248366623973e-05,1.0,True
fixed-j,2,7,0.6233333333333333,0.5769729614257806,6.334248366623973e-05,0.11450896683104517,True
fixed-j,2,8,0.03,0.019456863403320264,6.334248366623973e-05,0.20211244874853862,True
fixed-j,4,0,0.24,0.25,6.334248366623973e-05,0.7389805144668815,True
fixed-j,4,1,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,4,2,0.26,0.24999999999999956,6.334248366623973e-05,0.6892942315956309,True
fixed-j,4,3,0.23,0.2500000000000001,6.334248366623973e-05,0.46340110805665435,True
fixed-j,4,4,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,4,5,0.23666666666666666,0.24999999999999967,6.334248366623973e-05,0.640843676326119,True
fixed-j,4,6,0.25333333333333335,0.2500000000000008,6.334248366623973e-05,0.8939784507261347,True
fixed-j,4,7,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,4,8,0.23666666666666666,0.24999999999999978,6.334248366623973e-05,0.6408436763261197,True
fixed-j,8,0,0.44666666666666666,0.5000000000000001,6.334248366623973e-05,0.0733119525988469,True
fixed-j,8,1,0.48333333333333334,0.4999999999999996,6.334248366623973e-05,0.603405717872137,True
fixed-j,8,2,0.52,0.5000000000000002,6.334248366623973e-05,0.5254419954235532,True
fixed-j,8,3,0.5033333333333333,0.4999999999999993,6.334248366623973e-05,0.9539724855809664,True
fixed-j,8,4,0.5266666666666666,0.5000000000000006,6.334248366623973e-05,0.38650982711273896,True
fixed-j,8,5,0.48,0.49999999999999944,6.334248366623973e-05,0.525441995423553,True
fixed-j,8,6,0.47,0.5000000000000006,6.334248366623973e-05,0.3263539919250459,True
fixed-j,8,7,0.5066666666666667,0.4999999999999996,6.334248366623973e-05,0.8625270926954663,True
fixed-j,8,8,0.5,0.5000000000000021,6.334248366623973e-05,1.0,True
fixed-j,16,0,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,16,1,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,16,2,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,16,3,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,16,4,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,16,5,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,16,6,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,16,7,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,16,8,1.0,1.0,6.334248366623973e-05,1.0,True
uniformity-hit-exact,0,,,,0.001,1.0,True
uniformity-miss-exact,0,,,,0.001,0.8981194620718362,True
uniformity-hit-analytic,0,,,,0.001,1.0,True
uniformity-miss-analytic,0,,,,0.001,0.26407010471191206,True
outcome-distribution,0,,,,0.001,,True
uniformity-hit-exact,1,,,,0.001,1.0,True
uniformity-miss-exact,1,,,,0.001,1.0,True
uniformity-hit-analytic,1,,,,0.001,1.0,True
uniformity-miss-analytic,1,,,,0.001,1.0,True
outcome-distribution,1,,,,0.001,0.12693710178964906,True
uniformity-hit-exact,2,,,,0.001,0.20402387047443296,True
uniformity-miss-exact,2,,,,0.001,1.0,True
uniformity-hit-analytic,2,,,,0.001,1.0,True
uniformity-miss-analytic,2,,,,0.001,1.0,True
outcome-distribution,2,,,,0.001,0.9078318904554302,True
uniformity-hit-exact,4,,,,0.001,0.2213853871894879,True
uniformity-miss-exact,4,,,,0.001,1.0,True
uniformity-hit-analytic,4,,,,0.001,0.314759857173171,True
uniformity-miss-analytic,4,,,,0.001,1.0,True
outcome-distribution,4,,,,0.001,0.9332429633393983,True
uniformity-hit-exact,8,,,,0.001,0.5743869524909692,True
uniformity-miss-exact,8,,,,0.001,1.0,True
uniformity-hit-analytic,8,,,,0.001,0.5807591355146486,True
uniformity-miss-analytic,8,,,,0.001,1.0,True
outcome-distribution,8,,,,0.001,0.34853251070597496,True
uniformity-hit-exact,16,,,,0.001,0.9905543217414559,True
uniformity-miss-exact,16,,,,0.001,1.0,True
uniformity-hit-analytic,16,,,,0.001,0.6870843272867911,True
uniformity-miss-analytic,16,,,,0.001,1.0,True
outcome-distribution,16,,,,0.001,1.0,True
full-algorithm-success,,,1.0,1.0,0.0,,True
"""

EQUIVALENCE_LAMBDA = """\
check,t,j,estimate,expected,tolerance,p_value,ok
closed-form,,4,9.43689570931383e-16,0.0,1e-09,,True
fixed-j,0,0,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,0,1,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,0,2,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,0,3,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,0,4,0.0,0.0,6.334248366623973e-05,1.0,True
fixed-j,1,0,0.15,0.12500000000000003,6.334248366623973e-05,0.2845671764723673,True
fixed-j,1,1,0.82,0.7812500000000001,6.334248366623973e-05,0.19992064751277322,True
fixed-j,1,2,0.96,0.9453124999999999,6.334248366623973e-05,0.4376958088394636,True
fixed-j,1,3,0.355,0.330078125,6.334248366623973e-05,0.4528392607493694,True
fixed-j,1,4,0.01,0.01220703125000009,6.334248366623973e-05,1.0,True
fixed-j,2,0,0.245,0.25,6.334248366623973e-05,0.9349705173409752,True
fixed-j,2,1,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,2,2,0.285,0.24999999999999956,6.334248366623973e-05,0.2534291695805573,True
fixed-j,2,3,0.24,0.2500000000000001,6.334248366623973e-05,0.8066172987437576,True
fixed-j,2,4,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,4,0,0.5,0.5000000000000001,6.334248366623973e-05,1.0,True
fixed-j,4,1,0.45,0.4999999999999996,6.334248366623973e-05,0.1789640395332509,True
fixed-j,4,2,0.49,0.5000000000000002,6.334248366623973e-05,0.8320703744377608,True
fixed-j,4,3,0.4,0.4999999999999993,6.334248366623973e-05,0.00568515599675034,True
fixed-j,4,4,0.535,0.5000000000000006,6.334248366623973e-05,0.358003090624502,True
fixed-j,8,0,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,8,1,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,8,2,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,8,3,1.0,1.0,6.334248366623973e-05,1.0,True
fixed-j,8,4,1.0,1.0,6.334248366623973e-05,1.0,True
uniformity-hit-exact,0,,,,0.001,1.0,True
uniformity-miss-exact,0,,,,0.001,0.39238299814365263,True
uniformity-hit-analytic,0,,,,0.001,1.0,True
uniformity-miss-analytic,0,,,,0.001,0.9161912964047852,True
outcome-distribution,0,,,,0.001,,True
uniformity-hit-exact,1,,,,0.001,1.0,True
uniformity-miss-exact,1,,,,0.001,1.0,True
uniformity-hit-analytic,1,,,,0.001,1.0,True
uniformity-miss-analytic,1,,,,0.001,1.0,True
outcome-distribution,1,,,,0.001,0.5361833202361665,True
uniformity-hit-exact,2,,,,0.001,0.887537083981715,True
uniformity-miss-exact,2,,,,0.001,1.0,True
uniformity-hit-analytic,2,,,,0.001,0.2578990352923363,True
uniformity-miss-analytic,2,,,,0.001,1.0,True
outcome-distribution,2,,,,0.001,0.48662089508671036,True
uniformity-hit-exact,4,,,,0.001,0.6413893691403019,True
uniformity-miss-exact,4,,,,0.001,1.0,True
uniformity-hit-analytic,4,,,,0.001,0.6236778212680716,True
uniformity-miss-analytic,4,,,,0.001,1.0,True
outcome-distribution,4,,,,0.001,0.05682858104477873,True
uniformity-hit-exact,8,,,,0.001,0.20258690036443644,True
uniformity-miss-exact,8,,,,0.001,1.0,True
uniformity-hit-analytic,8,,,,0.001,0.779777408475716,True
uniformity-miss-analytic,8,,,,0.001,1.0,True
outcome-distribution,8,,,,0.001,1.0,True
full-algorithm-success,,,1.0,1.0,0.0,,True
"""


# The lemma1 fold counts each run's table once per stretch of runs sharing
# it, so these pin the three kinds of table stream: one new drawn table per
# run (dup mode, and every exact run) and one table file shared by all.
LEMMA1_DUP = """\
rank,pairs,ever_chosen,frequency,theory,stderr,margin,asserted,ok
1,5344,2000,0.37425149700598803,1.0,0.006619854712996055,0.019859564138988164,True,True
2,1288,280,0.21739130434782608,0.5,0.011493055057340893,0.03447916517202268,True,True
3,1847,342,0.18516513264753653,0.3333333333333333,0.009038179449617326,0.02711453834885198,True,True
4,2005,310,0.1546134663341646,0.25,0.008074100163332787,0.024222300489998363,True,True
5,1992,290,0.14558232931726908,0.2,0.007902141019030997,0.02370642305709299,True,True
6,1983,232,0.11699445284921836,0.16666666666666666,0.007217769258360518,0.02165330777508155,True,True
7,2044,239,0.11692759295499021,0.14285714285714285,0.007107489330250137,0.02132246799075041,True,True
8,1874,180,0.096051227321238,0.125,0.006806730811411536,0.020420192434234607,True,True
9,1210,148,0.12231404958677686,0.1111111111111111,0.009419222602217898,0.028257667806653695,True,True
10,413,33,0.07990314769975787,0.1,0.013342084619858283,0.040026253859574853,True,True
"""

LEMMA1_TIES = """\
rank,pairs,ever_chosen,frequency,theory,stderr,margin,asserted,ok
1,4000,2000,0.5,1.0,0.007905694150420948,0.023717082451262844,True,True
3,6000,1224,0.204,0.3333333333333333,0.00520230718047291,0.015606921541418729,True,True
6,6000,752,0.12533333333333332,0.16666666666666666,0.004274437368217578,0.012823312104652734,True,True
9,2000,226,0.113,0.1111111111111111,0.0070792301841372555,0.021237690552411766,True,True
10,4000,371,0.09275,0.1,0.004586595619301968,0.013759786857905904,True,True
12,2000,171,0.0855,0.08333333333333333,0.006252589463574272,0.018757768390722816,True,True
"""

LEMMA1_EXACT = """\
rank,pairs,ever_chosen,frequency,theory,stderr,margin,asserted,ok
1,2000,2000,1.0,1.0,0.0,0.01,True,True
2,2000,1032,0.516,0.5,0.011174614087296258,0.03352384226188877,True,True
3,2000,656,0.328,0.3333333333333333,0.01049799980948752,0.03149399942846256,True,True
4,2000,466,0.233,0.25,0.009452803816857726,0.02835841145057318,True,True
5,2000,408,0.204,0.2,0.009010660353159474,0.027031981059478422,False,True
6,2000,344,0.172,0.16666666666666666,0.0084384832760396,0.0253154498281188,False,True
7,2000,278,0.139,0.14285714285714285,0.0077355995242773526,0.023206798572832057,False,True
8,2000,255,0.1275,0.125,0.007458007441669658,0.022374022325008975,False,True
"""

# Twelve values with ties, the minimum among them.
TIES_TABLE = "4 2 7 2 9 0 4 0 6 2 7 4".split()


SUCCESS_16384 = """\
runs,successes,success_fraction,wilson99_low,wilson99_high,floor,mean_spent,mean_loop_passes
20,20,1.0,0.7508945989012465,1.0,0.5,3154.0,10.05
"""

SUCCESS_BOOST_REPEAT = """\
runs,successes,success_fraction,wilson99_low,wilson99_high,floor,mean_spent,mean_loop_passes
300,300,1.0,0.9783622259743834,1.0,0.875,2580.0,22.813333333333333
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
        (["equivalence", "--n", "16", "--runs", "300", "--seed", "1"], EQUIVALENCE),
        (
            ["equivalence", "--n", "8", "--runs", "200", "--seed", "5", "--lambda", "1.3",
             "--j-max", "4"],
            EQUIVALENCE_LAMBDA,
        ),
        (["success", "--n", "16384", "--runs", "20", "--seed", "7000000"], SUCCESS_16384),
        (["success", "--n", "1024", "--runs", "300", "--seed", "4", "--boost", "3"], SUCCESS_BOOST_REPEAT),
    ],
    ids=[
        "run-dup", "run-boost-extend", "run-exact", "cost-uncapped", "lemma1", "equivalence",
        "equivalence-lambda", "success-16384", "success-boost-repeat",
    ],
)
def test_csv_report_bytes_are_pinned(capsys, argv, expected):
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["--n", "10", "--runs", "2000", "--seed", "9", "--mode", "dup:4"], LEMMA1_DUP),
        (["--n", "12", "--runs", "2000", "--seed", "9", "--table", "{ties}"], LEMMA1_TIES),
        (
            ["--n", "12", "--runs", "2000", "--seed", "9", "--table", "{ties}", "--workers", "2"],
            LEMMA1_TIES,
        ),
        (["--n", "8", "--runs", "2000", "--seed", "9", "--backend", "exact", "--max-rank", "4"],
         LEMMA1_EXACT),
    ],
    ids=["dup", "table-ties", "table-ties-workers-2", "exact"],
)
def test_lemma1_fold_report_bytes_are_pinned(tmp_path, capsys, argv, expected):
    path = tmp_path / "ties.txt"
    path.write_text("\n".join(TIES_TABLE) + "\n")
    argv = [str(path) if arg == "{ties}" else arg for arg in argv]
    assert main(["lemma1", *argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == expected
