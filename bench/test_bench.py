"""Tests of the benchmark itself: stream determinism, the checker, the tracer.

    PYTHONPATH=src python -m pytest -q bench
"""

import itertools
import json
import math

import pytest

import run
import streams
import verify

MAIN = run.import_program()

import polywh.measure  # noqa: E402  (import_program puts src/ on the path)
import spans  # noqa: E402


def _stream(workload, seed, cycles=4):
    return list(itertools.islice(streams.cycles(workload, seed), cycles))


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_same_seed_same_argv_stream(workload):
    first = _stream(workload, 7)
    assert first == _stream(workload, 7)
    assert streams.argv_digest(itertools.chain(*first)) != streams.argv_digest(
        itertools.chain(*_stream(workload, 8)))


def test_percentile_estimate():
    assert run.percentile([4.0] * 9, 90.0) == pytest.approx(4.0)
    assert run.percentile(list(range(1, 102)), 50.0) == pytest.approx(51.0)
    values = list(range(1000))
    assert 945 < run.percentile(values, 95.0) < 955


def test_tail_percentile_leaves_ten_samples_beyond():
    assert [run.tail_percentile(n) for n in (926, 150, 105, 100)] == [98.9, 93.3, 90.4, 90.0]
    for n in range(20, 2000):
        assert n * (100 - run.tail_percentile(n)) / 100 >= run.TAIL_BEYOND - 1e-9


def _artifact(*argv):
    code, out, err, _, crashed = run.execute(MAIN, list(argv))
    assert code == 0 and not crashed, err
    return list(argv), out


def test_checker_passes_a_good_artifact_and_rejects_nan():
    argv, out = _artifact("cs-bg", "--kappa", "1/2", "--z", "1+0.5i")
    assert verify.check(argv, 0, out) is None
    payload = json.loads(out)
    payload["norm"] = math.nan
    reason = verify.check(argv, 0, json.dumps(payload))
    assert reason is not None and "NaN" in reason


def test_checker_rejects_a_residual_over_tolerance():
    argv, out = _artifact("cs-bg", "--kappa", "1/2", "--z", "1+0.5i")
    payload = json.loads(out)
    payload["eigen_residual"] = 2 * verify.EIGEN
    assert "eigen_residual" in verify.check(argv, 0, json.dumps(payload))

    argv, out = _artifact("measure", "--kappa", "0", "--kind", "barut-girardello", "--levels", "8")
    assert verify.check(argv, 0, out) is None
    payload = json.loads(out)
    payload["identity_deviation"] = 2 * verify.IDENTITY_DEV
    assert "identity_deviation" in verify.check(argv, 0, json.dumps(payload))


def test_checker_fails_nonzero_exit():
    assert verify.check(["cs-bg", "--kappa", "-1/3", "--z", "1"], 1, "", "error: no").startswith(
        "exit 1")


def _traced(argv):
    original = polywh.measure.hankel_minors
    tracer = spans.Tracer()
    with tracer.installed():
        assert polywh.measure.hankel_minors is not original
        code = tracer.call(0, MAIN, argv)
    assert polywh.measure.hankel_minors is original
    return code, tracer


def test_self_times_sum_to_the_command_span(capsys):
    argv = ["measure", "--kappa", "1/2", "--kind", "barut-girardello", "--levels", "9"]
    code, tracer = _traced(argv)
    capsys.readouterr()
    assert code == 0
    (root,) = [s for s in tracer.spans if s.parent is None]
    assert root.name == spans.ROOT
    assert {s.name for s in tracer.spans} >= {
        "measure.moments", "measure.solve", "measure.hankel", "measure.verify", "coherent.series"}
    own = tracer.self_times()
    assert all(value >= 0 for value in own.values())
    assert sum(own.values()) == pytest.approx(root.end - root.start, abs=1e-9)
    assert sum(tracer.layer_seconds().values()) == pytest.approx(root.end - root.start, abs=1e-9)


def test_traced_counts_repeat_exactly(capsys):
    argv = ["cs-bg", "--kappa", "0", "--z", "3-1i"]
    _, first = _traced(argv)
    _, second = _traced(argv)
    capsys.readouterr()
    assert first.counts == second.counts
    assert first.counts["algebra.structure_function.calls"] > 0
    assert first.counts["coherent.series.terms"] == json.loads(_artifact(*argv)[1])["n_terms"]
