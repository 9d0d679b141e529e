"""``fork_map``: claim-next scheduling over forked workers, item order, errors;
and ``run_verification``, which runs its checks through it."""

import json
import multiprocessing
import os
import time

import pytest

from conftest import needs_fork, set_cpus
from meanrev._fork import fork_map
from meanrev.errors import NonFinite
from meanrev.oracles import CHECKS, run_verification

pytestmark = needs_fork


def test_a_free_worker_claims_the_next_item(monkeypatch, tmp_path):
    # Item 0 waits until items 1-5 have each left a file: that happens only if
    # the other worker claims all five while the first is still busy.
    set_cpus(monkeypatch, 2)

    def item(k):
        if k == 0:
            deadline = time.monotonic() + 30.0
            while len(list(tmp_path.iterdir())) < 5:
                if time.monotonic() > deadline:
                    raise TimeoutError("items 1-5 did not run while item 0 waited")
                time.sleep(0.005)
        else:
            (tmp_path / str(k)).touch()
        return k * k

    assert fork_map(item, 6) == [k * k for k in range(6)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [2, 3])
def test_results_come_back_in_item_order(monkeypatch, cpus):
    # Early items are the slowest, so later ones finish first.
    set_cpus(monkeypatch, cpus)

    def item(k):
        time.sleep(0.002 * (12 - k))
        return (k, os.getpid())

    results = fork_map(item, 12)
    assert [k for k, _ in results] == list(range(12))
    assert len({pid for _, pid in results}) == cpus
    assert os.getpid() not in {pid for _, pid in results}
    assert multiprocessing.active_children() == []


def test_the_lowest_failing_item_is_raised_typed(monkeypatch):
    # Item 3 fails at once and item 1 only after it; item 1's error is raised,
    # as the loop would raise it.
    set_cpus(monkeypatch, 2)

    def item(k):
        if k == 1:
            time.sleep(0.2)
            raise NonFinite("item 1")
        if k == 3:
            raise NonFinite("item 3")
        return k

    with pytest.raises(NonFinite, match="^item 1$"):
        fork_map(item, 6)
    assert multiprocessing.active_children() == []


def test_a_dying_worker_is_a_runtime_error(monkeypatch):
    set_cpus(monkeypatch, 2)

    def item(k):
        if k == 2:
            os._exit(3)
        return k

    with pytest.raises(RuntimeError, match="exited with code 3"):
        fork_map(item, 5)
    assert multiprocessing.active_children() == []


def test_an_error_below_a_dead_worker_ranks_first(monkeypatch):
    # The worker of item 2 dies at once; item 1 fails later and is raised.
    set_cpus(monkeypatch, 2)

    def item(k):
        if k == 1:
            time.sleep(0.2)
            raise NonFinite("item 1")
        if k == 2:
            os._exit(3)
        return k

    with pytest.raises(NonFinite, match="^item 1$"):
        fork_map(item, 4)
    assert multiprocessing.active_children() == []


def test_verify_report_does_not_depend_on_the_worker_count(monkeypatch):
    reports = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        reports.append(run_verification())
        assert multiprocessing.active_children() == []
    one, two = reports
    assert list(one) == list(CHECKS)
    assert json.dumps(one) == json.dumps(two)
    assert all(record["passed"] for record in one.values())
