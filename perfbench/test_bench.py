"""Tests of the benchmark's own metric code.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import textwrap

import pytest

import opstats
import run
import spans
import workloads


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ------------------------------------------------------------- tail latency


@pytest.mark.parametrize("m", [1, 5, 10])
def test_percentile_100_is_the_maximum_of_small_samples(m):
    tail = opstats.percentile([float(v) for v in range(m, 0, -1)], 100)
    assert (tail.seconds, tail.beyond, tail.ops) == (m, 0, m)


@pytest.mark.parametrize("m, q, value, beyond", [
    (1, 80, 1.0, 0), (4, 80, 4.0, 0), (5, 80, 4.0, 1), (11, 9, 1.0, 10), (11, 10, 2.0, 9),
    (20, 50, 10.0, 10), (63, 80, 51.0, 12), (65, 80, 52.0, 13),
])
def test_percentile_uses_the_nearest_rank(m, q, value, beyond):
    tail = opstats.percentile([float(v) for v in range(m, 0, -1)], q)
    assert (tail.seconds, tail.percentile, tail.beyond, tail.ops) == (value, q, beyond, m)


@pytest.mark.parametrize("workload, ops", [("structure", 45), ("structure", 60), ("verify", 54)])
def test_fixed_tail_percentiles_leave_ten_beyond_at_baseline_counts(workload, ops):
    q = workloads.TAIL_PERCENTILE[workload]
    assert ops - math.ceil(q * ops / 100) >= 10


def test_sweep_tail_is_the_second_slowest_of_eight():
    tail = opstats.percentile([float(v) for v in range(1, 9)], workloads.TAIL_PERCENTILE["sweep"])
    assert (tail.seconds, tail.beyond) == (6.0, 2)


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        opstats.percentile([], 50)


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert opstats.quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


# ---------------------------------------------------------------- self time


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        tracer.call("b.leaf", leaf, (2.0,), {})
        clock.now += 0.5
        tracer.call("b.leaf", leaf, (3.0,), {})

    def outer():
        tracer.call("a.middle", middle, (), {})
        clock.now += 4.0

    tracer.call("a.outer", outer, (), {})
    selfs = spans.self_times(tracer.spans)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(selfs[s.id])
    assert by_name["a.outer"] == [4.0]
    assert by_name["a.middle"] == [1.5]
    assert by_name["b.leaf"] == [2.0, 3.0]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert spans._covered([(1.0, 3.0), (2.0, 4.0), (6.0, 12.0)], 0.0, 10.0) == 3.0 + 4.0
    assert spans._covered([], 0.0, 1.0) == 0.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.call("a.boom", boom, (), {})
    assert tracer.spans[0].end == 1.0
    assert tracer.current_layer() is None


# ------------------------------------------------------------ API churn


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    """A package with some traced names missing and no reduction module."""
    pkg = tmp_path / "fakecyc"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "structure.py").write_text(textwrap.dedent("""
        def all_m_intervals(n):
            return list(range(n))

        def build_poset(n):
            return len(all_m_intervals(n))
    """))
    (pkg / "cli.py").write_text(textwrap.dedent("""
        from .structure import build_poset

        def main(argv):
            print(build_poset(int(argv[0])))
            return 0
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakecyc"
    import sys
    for name in [m for m in sys.modules if m == "fakecyc" or m.startswith("fakecyc.")]:
        del sys.modules[name]


def test_tracer_wraps_only_existing_names_and_restores_them(fake_package):
    import fakecyc.cli as cli
    import fakecyc.structure as structure

    originals = (cli.main, cli.build_poset, structure.build_poset, structure.all_m_intervals)
    tracer = spans.Tracer()
    tracer.install(fake_package)
    assert tracer.present == {"cli.main", "structure.build_poset", "structure.all_m_intervals"}
    assert cli.build_poset is not originals[1] and structure.build_poset is not originals[2]
    assert cli.main(["5"]) == 0
    tracer.uninstall()
    assert (cli.main, cli.build_poset, structure.build_poset, structure.all_m_intervals) == originals

    assert [s.name for s in tracer.spans] == [
        "cli.main", "structure.build_poset", "structure.all_m_intervals",
    ]
    metrics = spans.layer_metrics(tracer, ops=1, out_bytes=2)
    assert "structure.build_poset_s" in metrics
    assert metrics["structure.build_poset_calls"] == 1
    assert metrics["cli.out_bytes"] == 2
    for absent in ("reduction.minimize_chain_s", "periodic.right_maximal_profile_s",
                   "structure.full_maximal_start_s", "verify.poset_s"):
        assert absent not in metrics


# ------------------------------------------------------------- error rate


class FakeCli:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def main(self, argv):
        return self.behaviour(argv)


def _op(check=lambda code, out: [] if code == 0 else [f"exit code {code}"]):
    return workloads.Op("k", 1, ["x"], check)


def test_error_rate_counts_raises_nonzero_exits_and_failed_checks():
    def ok(argv):
        print("fine")
        return 0

    def raises(argv):
        raise ValueError("bad input")

    def exit_two(argv):
        return 2

    results = [
        run.execute(FakeCli(ok), _op()),
        run.execute(FakeCli(raises), _op()),
        run.execute(FakeCli(exit_two), _op()),
        run.execute(FakeCli(ok), _op(lambda code, out: ["wrong answer"])),
        run.execute(FakeCli(ok), _op(lambda code, out: json.loads(out))),  # checker trips
    ]
    assert [r.ok for r in results] == [True, False, False, False, False]
    assert "raised ValueError" in results[1].failures[0]
    assert results[4].failures[0].startswith("check raised")
    assert opstats.error_rate(results) == pytest.approx(4 / 5)
    summary = opstats.end_to_end(results, 100, 1.0)
    assert summary["ops"] == 1 and summary["error_rate"] == pytest.approx(0.8)


def test_scaling_cancels_a_uniform_slowdown():
    calib = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    seconds = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    assert opstats.scaled(seconds, calib, 1.0)[-4:] == [1.0] * 4
    # the median of the window ignores one slow calibration sample
    assert opstats.scaled([3.0] * 6, [1.0, 1.0, 9.0, 1.0, 1.0, 1.0], 2.0) == [6.0] * 6


def test_run_blocks_finishes_whole_blocks():
    calls = []

    def run_block(block, b):
        calls.append(b)
        return [opstats.OpResult("k", 1, 0.0) for _ in block]

    results = run.run_blocks([[1, 2], [3, 4, 5]], 0.0, run_block)
    assert calls == [0] and len(results) == 2


# ----------------------------------------------------------- output checks


def _analyze_doc(values, kappas, averages, star):
    n = len(values)
    return json.dumps({
        "n": n,
        "table": [[0.0] * n for _ in range(n - 1)],
        "m_intervals": [
            {"start": i + 1, "kappa": k, "average": a}
            for i, (k, a) in enumerate(zip(kappas, averages))
        ],
        "full_maximal_start": star,
        "poset": None,
        "degenerate": True,
    })


def test_rational_check_enforces_the_shortest_window_on_ties():
    values = [1, 1, 1]  # every window averages 1: the shortest (kappa 0) must be reported
    good = _analyze_doc(values, [0, 0, 0], [1.0] * 3, 1)
    tied_long = _analyze_doc(values, [0, 2, 0], [1.0] * 3, 1)
    # table cells are zero in these documents, so only the cell check may fail on good
    good_failures = workloads._check_analyze(values, True, [1, 2, 3], 0, good)
    assert all("table cell" in f for f in good_failures)
    bad = workloads._check_analyze(values, True, [1, 2, 3], 0, tied_long)
    assert any("start 2" in f for f in bad)


def test_maxsum_check_recomputes_the_value_from_the_radii():
    values = [1.0, 2.0, 4.0]
    # forward maxima: after 1 -> max(2, 3, 7/3) = 3 (r=2); after 2 -> 4 (r=1);
    # after 3 -> max(1, 3/2, 7/3) = 7/3 (r=3)
    value = 1.0 / 3.0 + 2.0 / 4.0 + 4.0 / (7.0 / 3.0)
    good = json.dumps({"value": value, "radii": [2, 1, 3]})
    assert workloads._check_maxsum(values, [1, 2, 3], 0, good) == []
    wrong = json.dumps({"value": value, "radii": [1, 1, 3]})
    assert workloads._check_maxsum(values, [1, 2, 3], 0, wrong)


def test_verify_check_needs_a_full_pass_line():
    assert workloads._check_verify(0, "PASS a.b: x\nPASS a.c: y\n2/2 checks passed\n") == []
    assert workloads._check_verify(0, "PASS a.b: x\nFAIL a.c: y\n1/2 checks passed\n")
    assert workloads._check_verify(3, "")
    assert workloads._check_verify(3, "PASS a.b: x\nFAIL a.c: y\n1/2 checks passed\n") == [
        "exit code 3", "FAIL a.c: y"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = workloads.structure_blocks(7, a)
    second = workloads.structure_blocks(7, b)
    assert [[(op.kind, op.size) for op in blk] for blk in first] == [
        [(op.kind, op.size) for op in blk] for blk in second
    ]
    assert sorted(p.read_text() for p in a.iterdir()) == sorted(p.read_text() for p in b.iterdir())
    c = tmp_path / "c"
    c.mkdir()
    workloads.structure_blocks(8, c)
    assert sorted(p.read_text() for p in a.iterdir()) != sorted(p.read_text() for p in c.iterdir())
    sweeps = [workloads.sweep_blocks(seed, tmp_path)[0][0].argv for seed in (7, 8)]
    assert sweeps[0] != sweeps[1]
