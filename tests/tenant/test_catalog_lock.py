"""Cross-thread and cross-process budget safety on the catalog ledger.

Two stores over *different* directories share one catalog, so each
spend they make is exactly as independent as two processes' would be:
neither holds a view of the ledger, and each check-then-spend re-reads
the rows inside its own ``BEGIN IMMEDIATE`` transaction.  Overdraw must
be impossible anyway.  In-memory stores get the same guarantee from a
private temporary catalog file.
"""

import sys
import threading

import pytest

from repro.service.catalog import DEFAULT_TENANT, Catalog
from repro.service.errors import BudgetRefused
from repro.service.keys import ReleaseKey
from repro.service.store import SynopsisStore

N_POINTS = 1_000


def _key(epsilon, method="UG", seed=0):
    return ReleaseKey("storage", method, epsilon, seed)


def _store(store_dir, catalog, budget):
    return SynopsisStore(
        store_dir=store_dir,
        dataset_budget=budget,
        n_points=N_POINTS,
        catalog=catalog,
    )


def test_stale_store_sees_the_other_process_spend(tmp_path):
    """B opened before A's spend; B must still refuse."""
    catalog = Catalog(tmp_path / "catalog.sqlite")
    store_a = _store(tmp_path / "a", catalog, budget=1.0)
    store_b = _store(tmp_path / "b", catalog, budget=1.0)  # opened first
    store_a.build(_key(0.5))
    with pytest.raises(BudgetRefused):
        store_b.build(_key(0.6))
    # A fitting request still goes through, and A in turn sees B's
    # spend.
    store_b.build(_key(0.4))
    with pytest.raises(BudgetRefused):
        store_a.build(_key(0.2, method="AG"))
    state = store_a.budget_state()["storage|0"]
    assert state["spent"] == pytest.approx(0.9)


def test_concurrent_stores_never_overdraw(tmp_path):
    """Hammer one budget from two stores; the winners never exceed it."""
    budget = 2.0
    catalog = Catalog(tmp_path / "catalog.sqlite")
    stores = [
        _store(tmp_path / name, catalog, budget) for name in ("a", "b")
    ]
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
    # The catalog's durable ledger charges exactly the winners, and
    # fresh store handles ("restarted processes") agree with it.
    ledger = catalog.load_budgets(DEFAULT_TENANT)["storage|0"]["ledger"]
    assert sum(epsilon for epsilon, _label in ledger) == pytest.approx(built)
    for name in ("a", "b"):
        state = _store(tmp_path / name, catalog, budget).budget_state()["storage|0"]
        assert state["spent"] == pytest.approx(built)
        assert state["spent"] <= budget + 1e-9


def test_tenants_never_contend_for_each_others_budget(tmp_path):
    """Two tenants spending the same data_id draw on separate ledgers."""
    catalog = Catalog(tmp_path / "catalog.sqlite")
    root = _store(tmp_path / "store", catalog, budget=1.0)
    alpha = root.for_tenant("alpha")
    beta = root.for_tenant("beta")
    alpha.build(_key(1.0))
    with pytest.raises(BudgetRefused):
        alpha.build(_key(0.5, method="AG"))
    # Beta's full budget is untouched by alpha's exhaustion.
    beta.build(_key(1.0))
    assert catalog.load_budgets("alpha")["storage|0"]["ledger"]
    assert catalog.load_budgets("beta")["storage|0"]["ledger"]
    assert catalog.load_budgets(DEFAULT_TENANT) == {}


def test_in_memory_stores_spend_safely_across_threads():
    """Eight threads spend on one in-memory store and its tenant siblings.

    Every store without a ``store_dir`` keeps its ledger in a private
    temporary catalog file shared with its ``for_tenant`` siblings, so
    per-thread connections see one database and take turns on its write
    lock.  A ``:memory:`` catalog would fail here: each connection would
    get its own empty database, and on a shared-cache memory URI a
    second ``BEGIN IMMEDIATE`` raises ``database table is locked`` at
    once instead of waiting.
    """
    budget = 2.0
    root = SynopsisStore(dataset_budget=budget, n_points=N_POINTS)
    stores = [root, root.for_tenant("alpha"), root.for_tenant("beta")]
    # Distinct keys, one data instance.  The root and alpha each get
    # three of them, asking 2.2 and 2.3 of their 2.0 while any two fit,
    # so each refuses exactly one; beta asks 1.5 and refuses none.
    keys = [
        _key(epsilon, method=method)
        for method in ("UG", "AG", "UGnd", "Hier")
        for epsilon in (0.7, 0.8)
    ]
    built = {store.tenant: 0.0 for store in stores}
    refused = {store.tenant: 0 for store in stores}
    errors = []
    lock = threading.Lock()

    def build(index, key):
        store = stores[index % len(stores)]
        try:
            store.build(key)
        except BudgetRefused:
            with lock:
                refused[store.tenant] += 1
        except Exception as error:  # sqlite3.OperationalError included
            with lock:
                errors.append(error)
        else:
            with lock:
                built[store.tenant] += key.epsilon

    threads = [
        threading.Thread(target=build, args=(i, key)) for i, key in enumerate(keys)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave check-then-spend aggressively
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    assert errors == []
    assert refused == {"default": 1, "alpha": 1, "beta": 0}
    for store in stores:
        assert store.ledger_corrupt is None
        state = store.budget_state()["storage|0"]
        assert state["spent"] == pytest.approx(built[store.tenant])
        assert state["spent"] <= budget + 1e-9

    # A second in-memory store in the same process has its own ledger.
    other = SynopsisStore(dataset_budget=budget, n_points=N_POINTS)
    assert other.catalog.path != root.catalog.path
    assert other.budget_state() == {}
    other.build(_key(budget))
    assert root.budget_state()["storage|0"]["spent"] == pytest.approx(
        built[root.tenant]
    )
