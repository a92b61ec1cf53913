"""Tests of the benchmark's own oracles and tracer.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

The file name keeps it out of the package's default pytest collection.
"""
import itertools
import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from spans import Tracer  # noqa: E402


def brute_force_matches(labels) -> int:
    labels = np.asarray(labels)
    present = sorted(set(labels.tolist()))
    best = -1
    for order in itertools.permutations(present):
        relabeled = np.repeat(order, [int((labels == k).sum()) for k in order])
        best = max(best, int((relabeled == labels).sum()))
    return best


def test_subset_dp_equals_permutation_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(300):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(1, 40))
        if trial % 2:  # blocky sequences, closer to real predictions
            labels = np.repeat(rng.integers(0, k, size=n), rng.integers(1, 6, size=n))
        else:
            labels = rng.integers(0, k, size=n)
        assert oracles.coherent_matches(labels) == brute_force_matches(labels), labels


def test_tc_score_of_coherent_sequences_is_one():
    seqs = [np.repeat([2, 0, 1], [3, 5, 2]), np.array([4, 4, 4])]
    assert oracles.tc_score(seqs) == 1.0


def test_naive_mae_by_hand():
    # train durations 2 and 4 frames of 30 s: median 1.5 min; one 2-frame test video
    # elapsed (0, 0.5), remaining (1, 0.5), guess (1.5, 1.0): errors 0.5 and 0.5
    assert abs(oracles.naive_mae([2, 4], [2], frame_period_s=30.0) - 0.5) < 1e-12


def test_one_to_one_accuracy_ignores_label_names():
    ref = np.array([0, 0, 1, 1, 2, 2])
    assert oracles.one_to_one_accuracy((ref + 1) % 3, ref) == 1.0
    # two predicted labels cannot both map onto reference 0
    assert oracles.one_to_one_accuracy(np.array([0, 1, 2, 2]), np.array([0, 0, 1, 1])) == 0.75


def test_tracer_self_time_counts_and_absent_names():
    mod = types.SimpleNamespace()
    mod.inner = lambda n: n
    mod.outer = lambda n: mod.inner(n) + mod.inner(n)
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner", lambda a: {"n": a["n"]})
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "gone", "gone")
    original_inner = tracer._patched[0][2]
    assert mod.outer(3) == 6
    tracer.restore()
    assert mod.inner is original_inner
    assert tracer.absent == ["gone"]
    assert tracer.calls("inner") == 2 and tracer.count("n", "inner") == 6
    outer = tracer.total("outer")
    assert abs(tracer.self_time("outer", ("inner",)) - (outer - tracer.total("inner"))) < 1e-12
    assert tracer.self_time("outer", ()) == outer


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} passed")
