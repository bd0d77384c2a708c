"""Cross-process budget-ledger safety for stores sharing one ``--store-dir``.

Two server processes sharing a ``--store-dir`` share one privacy budget:
each opens its own handle on the directory's catalog file.  Without a
write transaction around the check-then-spend that re-reads the rows
while holding it, two processes could both read "1.0 remaining" and both
spend, overdrawing the dataset's epsilon — a real privacy violation, not
just an accounting bug.  These tests model the second process as a
second :class:`SynopsisStore` instance over the same directory, each
opening the catalog itself (the handles are exactly as independent as
two processes' would be).
"""

import threading

import pytest
from faultutil import N_POINTS

from repro.service.errors import BudgetRefused
from repro.service.keys import ReleaseKey
from repro.service.store import SynopsisStore


def _key(epsilon, method="UG", seed=0):
    return ReleaseKey("storage", method, epsilon, seed)


def _store(store_dir, budget):
    return SynopsisStore(
        store_dir=store_dir, dataset_budget=budget, n_points=N_POINTS
    )


def test_stale_store_sees_the_other_process_spend(tmp_path):
    """B was opened before A's spend; B must still refuse.

    B is constructed (and replays the empty ledger) *before* A spends.
    If B trusted what it read at startup it would see 1.0 remaining and
    allow a 0.6 build; the re-read inside the spend transaction must
    surface A's 0.5 spend.
    """
    store_a = _store(tmp_path, budget=1.0)
    store_b = _store(tmp_path, budget=1.0)  # stale: replayed an empty ledger
    store_a.build(_key(0.5))
    with pytest.raises(BudgetRefused):
        store_b.build(_key(0.6))
    # A fitting request still goes through, and A in turn sees B's
    # spend.
    store_b.build(_key(0.4))
    with pytest.raises(BudgetRefused):
        store_a.build(_key(0.2, seed=0, method="AG"))
    state = store_a.budget_state()["storage|0"]
    assert state["spent"] == pytest.approx(0.9)


def test_concurrent_stores_never_overdraw(tmp_path):
    """Hammer one budget from two stores; the ledger never exceeds it.

    Six distinct releases of the *same* dataset instance (``storage|0``)
    request 3.0 epsilon against a 2.0 budget, split across two store
    instances racing on six threads.  Which requests win is timing
    dependent; that the winners' epsilons never exceed the budget is
    not.
    """
    budget = 2.0
    stores = [_store(tmp_path, budget) for _ in range(2)]
    # Distinct keys, one data_id: vary method and epsilon, never seed.
    keys = [
        _key(epsilon, method=method)
        for epsilon in (0.4, 0.5, 0.6)
        for method in ("UG", "AG")
    ]  # 3.0 requested vs 2.0 total
    outcomes = []
    outcome_lock = threading.Lock()

    def build(index, key):
        store = stores[index % len(stores)]
        try:
            store.build(key)
        except BudgetRefused:
            with outcome_lock:
                outcomes.append(("refused", key.epsilon))
        else:
            with outcome_lock:
                outcomes.append(("built", key.epsilon))

    threads = [
        threading.Thread(target=build, args=(i, key))
        for i, key in enumerate(keys)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    built = sum(eps for outcome, eps in outcomes if outcome == "built")
    assert built <= budget + 1e-9, "the winners overdrew the budget"
    assert any(outcome == "refused" for outcome, _ in outcomes)
    # Both stores agree on the on-disk truth, and the durable ledger
    # charges exactly the winners.
    for store in stores:
        state = store.budget_state()["storage|0"]
        assert state["spent"] == pytest.approx(built)
        assert state["spent"] <= budget + 1e-9
