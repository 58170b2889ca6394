"""``scripts/bench_pairs.py`` without running the benchmark: its seed
parsing and the verdict it writes for each end-to-end metric."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_seeds_parse_ranges_and_lists():
    assert bench_pairs.parse_seeds("51-60") == list(range(51, 61))
    assert bench_pairs.parse_seeds("3,5,8") == [3, 5, 8]
    assert bench_pairs.parse_seeds("1-2,7") == [1, 2, 7]


@pytest.mark.parametrize("seeds, problem", [
    ("5", "names one seed"),
    ("5-5", "names one seed"),
    ("5-3", "runs backwards"),
    ("3,3", "names a seed twice"),
    ("1-3,2", "names a seed twice"),
    ("x", "neither a seed nor a range"),
])
def test_fewer_than_two_seeds_rejected_before_unpacking(tmp_path, monkeypatch, capsys, seeds, problem):
    def untouched(*args):
        raise AssertionError("a revision was read before the arguments were checked")

    monkeypatch.setattr(bench_pairs, "git", untouched)
    monkeypatch.setattr(bench_pairs, "unpack", untouched)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as raised:
        bench_pairs.main(["--parent", "HEAD", "--seeds", seeds, "--out", str(out)])
    assert raised.value.code == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


def runs_of(parent, change):
    """Synthetic runs of metric ``m``: seed i has parent[i] and change[i]."""
    return [
        {"seed": seed, "side": side, "result": {"metrics": {"m": {"value": value}}}}
        for seed, pair in enumerate(zip(parent, change))
        for side, value in zip(("parent", "change"), pair)
    ]


PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.3, 9.7, 10.1, 9.9]


@pytest.mark.parametrize("change, verdict", [
    # lower in every pair by far more than the parent's quartile distance
    ([value * 0.9 for value in PARENT], "gain"),
    # lower in 9 of 10 pairs still counts
    ([value * 0.9 for value in PARENT[:9]] + [PARENT[9] + 0.1], "gain"),
    # lower in 8 of 10 pairs does not
    ([value * 0.9 for value in PARENT[:8]] + [value + 0.1 for value in PARENT[8:]], "within bound"),
    # lower in every pair, but by less than the quartile distance
    ([value - 0.01 for value in PARENT], "within bound"),
    (PARENT, "within bound"),
    # 20 % higher is inside a 0.25 bound, 30 % is not
    ([value * 1.2 for value in PARENT], "within bound"),
    ([value * 1.3 for value in PARENT], "worse"),
])
def test_verdict(change, verdict):
    assert bench_pairs.compare(runs_of(PARENT, change), "m", 0.25)["verdict"] == verdict


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [1.0, 2.0, 1.5, 0.8, 2.2, 1.1, 1.9, 1.3, 0.9, 2.1]
    stats = bench_pairs.compare(runs_of(parent, parent[1:] + parent[:1]), "m", 0.25)
    low, high = stats["parent_quartiles"]
    assert high - low > 0.25 * stats["parent_median"]
    assert stats["verdict"] == "unresolved"
    # unless every change run beats every parent run: then it is within
    # bound, or a gain once the median gap exceeds the quartile distance
    assert bench_pairs.compare(runs_of(parent, [0.5] * 10), "m", 0.25)["verdict"] == "within bound"
    assert bench_pairs.compare(runs_of(parent, [0.2] * 10), "m", 0.25)["verdict"] == "gain"


def test_paired_ratio_beside_an_unresolved_verdict():
    # each change run at 0.95 of its pair: the medians' gap is lost in the
    # parent's spread, but each seed's ratio reads it
    parent = [1.0, 2.0, 1.5, 0.8, 2.2, 1.1, 1.9, 1.3, 0.9, 2.1]
    stats = bench_pairs.compare(runs_of(parent, [0.95 * value for value in parent]), "m", 0.25)
    assert stats["verdict"] == "unresolved"
    assert stats["change_lower_pairs"] == 10
    assert stats["ratio_median"] == pytest.approx(0.95)
    assert stats["ratio_quartiles"] == pytest.approx([0.95, 0.95])


def test_traced_metrics_keep_raw_seconds_and_add_shares_of_the_traced_wall():
    metrics = {name: 0 for name in bench_pairs.TRACED_METRICS}
    metrics.update({"coupling.read_s": 1.5, "cli.self_s": 0.25, "cli.calls": 40, "solver.evals": 7})
    report = {"metrics": metrics, "traced_wall_raw_s_all": [6.0, 4.0, 5.0]}
    values, shares = bench_pairs.traced_metrics(report)
    assert values == metrics
    # shares of the median traced wall (5.0), for time metrics only
    assert shares["coupling.read_s"] == 0.3
    assert shares["cli.self_s"] == 0.05
    assert shares["diffusion.lt_s"] == 0.0
    assert set(shares) == {name for name in bench_pairs.TRACED_METRICS if name.endswith("_s")}
    assert "cli.calls" not in shares and "solver.evals" not in shares


def test_a_host_twice_as_slow_doubles_seconds_but_not_shares():
    metrics = {name: 0.1 for name in bench_pairs.TRACED_METRICS}
    fast = {"metrics": metrics, "traced_wall_raw_s_all": [2.0, 2.2]}
    slow = {"metrics": {name: 2 * value for name, value in metrics.items()}, "traced_wall_raw_s_all": [4.0, 4.4]}
    (fast_values, fast_shares), (slow_values, slow_shares) = map(bench_pairs.traced_metrics, (fast, slow))
    assert slow_values["coupling.read_s"] == 2 * fast_values["coupling.read_s"]
    assert slow_shares == pytest.approx(fast_shares)
