"""Each registry model takes exactly the settings it declares, and uses each one."""

import numpy as np
import pytest

from tripcast.errors import UsageError
from tripcast.persist import dumps_model
from tripcast.registry import REGISTRY, make_model

SETTINGS = {"n_estimators": 3, "learning_rate": 0.5, "max_depth": 2, "lam": 50.0}

DECLARED = {
    "lr": set(),
    "ri": {"lam"},
    "la": {"lam"},
    "dt": {"max_depth"},
    "br": {"n_estimators", "max_depth"},
    "rf": {"n_estimators", "max_depth"},
    "ab": {"n_estimators", "max_depth"},
    "gb": {"n_estimators", "max_depth", "learning_rate"},
    "hgb": {"n_estimators", "max_depth", "learning_rate"},
}


def _data(n=60):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(n, 9))
    X[:, 5] = rng.integers(0, 7, size=n)  # the day-type column linear models expand
    y = 40.0 * X[:, 0] + 10.0 * np.sin(3.0 * X[:, 2]) + 5.0 * X[:, 5] + rng.normal(size=n)
    return X, y


def test_registry_declares_the_documented_settings():
    assert {name: set(entry.settings) for name, entry in REGISTRY.items()} == DECLARED


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("abbrev", sorted(DECLARED))
def test_every_setting_is_used_or_refused(abbrev, setting):
    value = SETTINGS[setting]
    if setting not in DECLARED[abbrev]:
        with pytest.raises(UsageError, match=rf"model '{abbrev}' does not take {setting}"):
            make_model(abbrev, 0, **{setting: value})
        return
    X, y = _data()
    # Ensembles are kept small except where the tested setting is n_estimators.
    base = {"n_estimators": 4} if "n_estimators" in DECLARED[abbrev] and setting != "n_estimators" else {}
    default = make_model(abbrev, 0, **base).fit(X, y).predict(X)
    changed = make_model(abbrev, 0, **base, **{setting: value}).fit(X, y).predict(X)
    assert not np.array_equal(default, changed)


def test_decision_tree_document_does_not_depend_on_the_seed():
    # A single tree draws nothing at random: the seed it is built with used to be
    # recorded in its document all the same.
    X, y = _data()
    one, two = (make_model("dt", seed).fit(X, y) for seed in (1, 2))
    assert dumps_model(one) == dumps_model(two)
    assert np.array_equal(one.predict(X), two.predict(X))
