"""``bench_pairs.summarize`` on synthetic run records: no benchmark runs."""

from bench_pairs import summarize


def runs(parent_iters, change_iters):
    """One workload's run records, pair i holding the i-th count of each side."""
    out = []
    for side, iters in (("parent", parent_iters), ("change", change_iters)):
        for pair, n in enumerate(iters):
            out.append({"workload": "noisy-random", "side": side, "pair": pair,
                        "correct": True, "returncode": 0, "failed": 0, "wall_s": 1.0,
                        "counts": {"solves": 100, "inner_iters": n}})
    return out


def test_counts_moved_between_constant_sides():
    entry = summarize(runs([2485, 2485, 2485], [2489, 2489, 2489]))["noisy-random"]
    assert entry["counts_equal"] == {"parent": True, "change": True}
    assert entry["counts_moved"] == ["inner_iters"]


def test_counts_varying_within_one_side():
    entry = summarize(runs([2485, 2485, 2485], [2485, 2489, 2485]))["noisy-random"]
    assert entry["counts_equal"] == {"parent": True, "change": False}
    assert entry["counts_moved"] == ["inner_iters"]


def test_equal_counts_move_nothing():
    entry = summarize(runs([2485, 2485], [2485, 2485]))["noisy-random"]
    assert entry["counts_equal"] == {"parent": True, "change": True}
    assert entry["counts_moved"] == []


def timed_runs(parent, change):
    """One workload's run records: pair i holds the i-th (wall_s,
    wall_clock_s) of each side."""
    return [{"workload": "ic-sweep", "side": side, "pair": pair, "correct": True,
             "returncode": 0, "failed": 0, "wall_s": ref, "wall_clock_s": raw}
            for side, times in (("parent", parent), ("change", change))
            for pair, (ref, raw) in enumerate(times)]


def test_clocks_agree_when_both_read_lower():
    entry = summarize(timed_runs([(0.23, 0.50)] * 3, [(0.21, 0.46)] * 3))["ic-sweep"]
    assert entry["clocks_agree"] is True


def test_clocks_disagree_when_raw_reads_higher():
    entry = summarize(timed_runs([(0.23, 0.50)] * 3, [(0.21, 0.52)] * 3))["ic-sweep"]
    assert entry["clocks_agree"] is False


def test_clocks_agree_is_null_without_raw_seconds():
    assert summarize(runs([2485], [2485]))["noisy-random"]["clocks_agree"] is None


def test_gain_rule_met_at_nine_of_ten_lower_beyond_the_iqr():
    parent = [(0.34 + 0.001 * i, 0.3) for i in range(10)]
    change = [(0.32, 0.3)] * 9 + [(0.36, 0.3)]
    entry = summarize(timed_runs(parent, change))["ic-sweep"]
    assert entry["wall_s"]["change_lower"] == 9
    assert entry["wall_s"]["gain_rule_met"] is True
    assert entry["wall_clock_s"]["gain_rule_met"] is False


def test_gain_rule_not_met_at_eight_of_ten_lower():
    parent = [(0.34 + 0.001 * i, 0.3) for i in range(10)]
    change = [(0.32, 0.3)] * 8 + [(0.36, 0.3)] * 2
    entry = summarize(timed_runs(parent, change))["ic-sweep"]
    assert entry["wall_s"]["change_lower"] == 8
    assert entry["wall_s"]["parent_median"] - entry["wall_s"]["change_median"] > entry["wall_s"]["parent_iqr"]
    assert entry["wall_s"]["gain_rule_met"] is False
