"""Tests of the benchmark's own machinery: span arithmetic, checks, tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import numpy as np
import pytest

import spans
import worker
import workloads


def push(log, name, start, end, parent):
    """Append a finished span with given times, bypassing the clock."""
    log.name.append(log.name_id(name))
    log.parent.append(parent)
    log.op.append(0)
    log.start.append(start)
    log.end.append(end)
    log.err.append(spans.NO_ERROR)
    log.size.append(0)
    log.bad.append(0)
    return len(log) - 1


def test_self_times_on_a_synthetic_tree():
    # op 0..10 holds solve_A 1..6 (which holds solve 2..4.5 and a lookup
    # 5..5.5) and a position 7..9.
    log = spans.SpanLog()
    root = push(log, spans.ROOT, 0.0, 10.0, -1)
    solve_a = push(log, "riccati.solve_A", 1.0, 6.0, root)
    push(log, "riccati.solve", 2.0, 4.5, solve_a)
    push(log, "riccati.RiccatiSolution.interpolate", 5.0, 5.5, solve_a)
    push(log, "control.StrategySpec.position", 7.0, 9.0, root)

    got = spans.self_times(np.array(log.start), np.array(log.end), np.array(log.parent))
    assert got.tolist() == [3.0, 2.0, 2.5, 0.5, 2.0]
    assert got.sum() == 10.0  # self times of a tree add up to its root

    totals = spans.Totals.empty()
    totals.fold(log)
    assert len(log) == 0
    assert totals.sum(spans.SOLVE, spans.SELF) == 4.5
    # solve under solve_A is one solve, not two
    assert totals.sum(spans.SOLVE, spans.COUNT, nested=False) == 1
    assert totals.sum(spans.SOLVE, spans.INCL, nested=False) == 5.0
    assert totals.sum("riccati.", spans.SELF) == 5.0
    values, bases, absent = spans.layer_metrics(totals, {"riccati.solve", *spans.LOOKUP})
    assert values["riccati.solves"] == (1.0, "count")
    assert values["riccati.solve_ms_per_solve"] == (5000.0, "ms")
    assert bases["riccati.solve_ms_per_solve"] == "riccati.solves"
    assert values["riccati.lookup_us_per_call"] == (5e5, "us")


def test_a_single_mutated_output_value_fails_its_op(tmp_path):
    wl = workloads.build("solve-lookup", 0, tmp_path)
    op = next(o for o in wl.ops if o.label == "solve-2")
    single = workloads.Workload("single", [op])
    outdirs = {op.label: tmp_path / "out"}
    result = op.run(outdirs[op.label])
    assert worker.check_pass(single, [result], outdirs) == []

    path = outdirs[op.label] / "d_solution.csv"
    lines = path.read_text().splitlines()
    row = lines[-1].split(",")
    row[2] = repr(float(row[2]) + 1e-6)
    lines[-1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    failures = worker.check_pass(single, [result], outdirs)
    assert [label for label, _ in failures] == ["solve-2"]
    assert "A/D consistency" in failures[0][1]


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    import meanrev.wealth

    monkeypatch.delattr(meanrev.wealth, "decompose")
    with spans.Tracer("meanrev") as tracer:
        pass
    values, _, absent = spans.layer_metrics(spans.Totals.empty(), tracer.present)
    assert "wealth.decompose_self_s" in absent
    assert "wealth.decompose_self_s" not in values
    assert "wealth.simulate_self_s" in values


def test_tracer_patches_every_lookup_and_restores_it():
    import meanrev
    import meanrev.cli
    import meanrev.control
    import meanrev.riccati
    from meanrev.model import Preferences

    before = (meanrev.riccati.solve_D, meanrev.control.solve_D, meanrev.solve_D,
              meanrev.cli.COMMANDS["solve"], meanrev.riccati.RiccatiSolution.interpolate)
    params = meanrev.OUParams(n=2, kappa=[1.0, 0.5], sigma=[1.0, 1.0], theta=[0.0, 0.0],
                              corr=[[1.0, 0.5], [0.5, 1.0]])
    totals = spans.Totals.empty()
    with spans.Tracer("meanrev") as tracer:
        assert meanrev.control.solve_D is not before[1]
        assert meanrev.cli.COMMANDS["solve"] is not before[3]
        meanrev.control.optimal_strategy(params, Preferences(gamma=-4.0), 1.0)  # outside an op
        root = tracer.log.open(0)
        spec = meanrev.control.optimal_strategy(params, Preferences(gamma=-4.0), 1.0)
        spec.position(1.0, [0.1, -0.2], 0.5)
        tracer.log.close(root)
        totals.fold(tracer.log)
    after = (meanrev.riccati.solve_D, meanrev.control.solve_D, meanrev.solve_D,
             meanrev.cli.COMMANDS["solve"], meanrev.riccati.RiccatiSolution.interpolate)
    assert all(a is b for a, b in zip(before, after))

    values, _, absent = spans.layer_metrics(totals, tracer.present)
    assert absent == []
    assert values["riccati.solves"][0] == 1
    assert values["riccati.rhs_evals"][0] > 0
    assert values["riccati.grid_points"][0] >= 1024
    assert values["control.positions"][0] == 1
    assert values["riccati.lookups"][0] == 1
    assert values["model.calls"][0] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(tmp_path, name):
    def configs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.build(name, seed, d)
        return {p.name: p.read_bytes() for p in sorted(d.glob("*.json"))}

    first = configs(7, "a")
    assert first and configs(7, "b") == first
    assert configs(8, "c") != first
