"""Crash safety of the catalog-backed budget ledger.

A crash at any stage of a spend must leave the catalog's ledger rows
bit-identical to the pre-spend state (the transaction rolls back), and
restart must converge; rows that cannot be replayed must refuse builds
rather than read as an empty ledger.
"""

import pytest

from repro.service import faultinject
from repro.service.catalog import DEFAULT_TENANT, Catalog
from repro.service.faultinject import SimulatedCrash
from repro.service.keys import ReleaseKey
from repro.service.store import SynopsisStore

N_POINTS = 1_000


def _key(epsilon, method="UG", seed=0):
    return ReleaseKey("storage", method, epsilon, seed)


def _store(tmp_path, catalog):
    return SynopsisStore(
        store_dir=tmp_path,
        dataset_budget=2.0,
        n_points=N_POINTS,
        catalog=catalog,
    )


def _crash(point):
    return faultinject.injected(
        point, lambda **_: (_ for _ in ()).throw(SimulatedCrash(point))
    )


@pytest.mark.parametrize("point", ["catalog.spend", "catalog.commit"])
def test_crash_during_spend_rolls_back_bit_identically(tmp_path, point):
    """The interrupted spend leaves no trace in the catalog's rows."""
    catalog = Catalog(tmp_path / "catalog.sqlite")
    store = _store(tmp_path, catalog)
    store.build(_key(0.5))
    before = catalog.load_budgets(DEFAULT_TENANT)
    with _crash(point):
        with pytest.raises(SimulatedCrash):
            store.build(_key(0.25, method="AG"))
    # "Restart": fresh handles over the same catalog file observe the
    # exact pre-crash ledger — totals, epsilons, labels, and order.
    reopened = Catalog(tmp_path / "catalog.sqlite")
    assert reopened.load_budgets(DEFAULT_TENANT) == before
    survivor = _store(tmp_path, reopened)
    assert survivor.ledger_corrupt is None
    state = survivor.budget_state()["storage|0"]
    assert state["spent"] == pytest.approx(0.5)
    # Service resumes: the same build goes through on the next attempt.
    assert survivor.build(_key(0.25, method="AG"))[1] is True


@pytest.mark.parametrize(
    "doctor",
    [
        "UPDATE ledger SET epsilon = 'garbage'",
        "UPDATE budget_totals SET total = 'garbage'",
        # Entries overdrawing their own total prove tampering too.
        "UPDATE ledger SET epsilon = 99.0",
    ],
)
def test_unreplayable_catalog_rows_refuse_builds_not_reset(tmp_path, doctor):
    """Rows that fail replay quarantine the ledger; no silent reset.

    A ledger the store cannot replay must never be treated as empty —
    an empty ledger would let every historic spend be repeated,
    doubling the real privacy loss.
    """
    from repro.service.errors import BudgetRefused

    catalog = Catalog(tmp_path / "catalog.sqlite")
    store = _store(tmp_path, catalog)
    store.build(_key(0.5))
    with catalog.exclusive() as conn:
        conn.execute(doctor)
    broken = _store(tmp_path, catalog)
    assert broken.ledger_corrupt is not None
    with pytest.raises(BudgetRefused):
        broken.build(_key(0.25, method="AG"))
