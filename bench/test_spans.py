"""Self-time and tail-percentile arithmetic on hand-built inputs.

    python3 -m pytest bench/test_spans.py
"""

import spans


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > a [1, 4] > b [2, 3];  op > c [5, 6];  setup [20, 22] > a [20.5, 21]
    recorded = [
        ["op", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 6.0, 0],
        ["setup", 20.0, 22.0, None],
        ["a", 20.5, 21.0, 4],
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0, 1.5, 0.5]
    table = spans.summarize(recorded)
    assert table["op"]["a"] == {"self_s": 2.0, "total_s": 3.0, "calls": 1}
    assert table["op"]["b"] == {"self_s": 1.0, "total_s": 1.0, "calls": 1}
    assert table["op"]["op"]["self_s"] == 6.0
    # the same function under set-up is charged to set-up, not to the ops
    assert table["setup"]["a"] == {"self_s": 0.5, "total_s": 0.5, "calls": 1}
    assert sum(row["self_s"] for row in table["op"].values()) == 10.0


def test_recorder_nests_wrapped_calls():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    with rec.span("op"):
        assert outer(1) == 4
    names = [(name, parent) for name, _, _, parent in rec.spans]
    assert names == [("op", None), ("outer", 0), ("inner", 1)]
    assert all(end >= start for _, start, end, _ in rec.spans)


def test_tail_keeps_ten_samples_beyond_it():
    assert spans.tail(list(range(1, 101))) == (90.0, 90)  # 91..100 lie beyond
    assert spans.tail(list(range(1, 1001))) == (99.0, 990)
    assert spans.tail(list(range(40, 0, -1))) == (75.0, 30)  # order does not matter
    assert spans.tail(list(range(1, 20))) is None  # p75 leaves only 4 beyond
    assert spans.tail([]) is None
