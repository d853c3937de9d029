"""Model persistence: exact prediction round trips and failure modes."""

import copy
import hashlib
import json

import numpy as np
import pytest

from tripcast.ensembles import SETTINGS
from tripcast.errors import PersistError, UsageError
from tripcast.persist import (
    FORMAT_VERSION,
    _canonical,
    dumps_model,
    load_model,
    loads_model,
    save_model,
)
from tripcast.registry import make_model

from tests.helpers import small_model


def _data(seed=0, n=150, k=9):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    X[:, 5] = rng.integers(0, 7, size=n)  # day_type column for linear models
    y = X[:, 0] * 3.0 + rng.normal(size=n)
    return X, y


ALL_ABBREVS = ["lr", "ri", "la", "dt", "br", "rf", "gb", "ab", "hgb"]


@pytest.mark.parametrize("abbrev", ALL_ABBREVS)
def test_round_trip_preserves_predictions_exactly(tmp_path, abbrev):
    X, y = _data()
    model = small_model(abbrev, 7, n_estimators=4)
    model.fit(X, y)
    before = model.predict(X)
    path = tmp_path / f"{abbrev}.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == model.kind
    assert np.array_equal(loaded.predict(X), before)


def test_save_is_deterministic(tmp_path):
    X, y = _data()
    a = make_model("hgb", seed=3, n_estimators=3).fit(X, y)
    b = make_model("hgb", seed=3, n_estimators=3).fit(X, y)
    assert dumps_model(a) == dumps_model(b)


@pytest.mark.parametrize("abbrev", ["dt", "gb"])
def test_document_is_compact_and_an_indented_one_still_loads(abbrev):
    # Earlier builds wrote the same document with indent=1. The checksum
    # covers the compact canonical form of the parsed document, so such a
    # file loads and predicts as the model it was saved from.
    X, y = _data()
    model = small_model(abbrev, 2, n_estimators=3).fit(X, y)
    text = dumps_model(model)
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
    indented = json.dumps(doc, sort_keys=True, indent=1)
    assert len(indented) > len(text) and indented.count("\n") > 100
    assert np.array_equal(loads_model(indented).predict(X), model.predict(X))


def test_truncated_document_rejected(tmp_path):
    X, y = _data()
    model = make_model("dt", seed=1).fit(X, y)
    text = dumps_model(model)
    with pytest.raises(PersistError, match="JSON"):
        loads_model(text[: len(text) // 2])


def test_tampered_document_rejected():
    X, y = _data()
    model = make_model("dt", seed=1).fit(X, y)
    doc = json.loads(dumps_model(model))
    doc["payload"]["n_features"] = 4
    with pytest.raises(PersistError, match="checksum"):
        loads_model(json.dumps(doc))


def test_unknown_version_rejected():
    X, y = _data()
    model = make_model("lr", seed=1).fit(X, y)
    doc = json.loads(dumps_model(model))
    doc["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(PersistError, match="version"):
        loads_model(json.dumps(doc))


def test_not_a_model_document():
    with pytest.raises(PersistError, match="not a tripcast model"):
        loads_model(json.dumps({"hello": "world"}))


def test_missing_file():
    with pytest.raises(PersistError, match="not found"):
        load_model("/nonexistent/model.json")


@pytest.mark.parametrize("abbrev", ["lr", "gb"])
def test_model_document_is_the_fitted_models_own(abbrev):
    # The adapter adds nothing to the document: the fitted model writes it.
    X, y = _data()
    est = small_model(abbrev, 1, n_estimators=2).fit(X, y)
    assert dumps_model(est.model) == dumps_model(est)
    loaded = loads_model(dumps_model(est))
    assert loaded.kind == est.kind
    with pytest.raises(UsageError, match="refit"):
        loaded.fit(X, y)


def test_unfitted_model_not_persistable():
    model = make_model("dt", seed=1)
    with pytest.raises(Exception):
        dumps_model(model)


def _rechecksummed(doc: dict) -> str:
    """A document edited after saving, with a checksum that matches the edit."""
    body = {k: v for k, v in doc.items() if k != "checksum"}
    return json.dumps({**body, "checksum": hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()})


def test_version_1_document_rejected():
    # Format 1 nested one object per node; this build reads flat node lists only.
    leaf = {"kind": "leaf", "value": 1.0, "n": 2, "n_features": 9}
    payload = {
        "config": {"max_depth": None, "min_samples_leaf": 1, "min_samples_split": 2,
                   "max_bins": 255, "feature_subsample": 1.0, "seed": 0},
        "n_features": 9,
        "tree": leaf,
    }
    doc = {"format": "tripcast-model", "format_version": 1, "kind": "decision_tree", "payload": payload}
    with pytest.raises(PersistError, match="version 1"):
        loads_model(_rechecksummed(doc))


def _as_version_4(doc: dict) -> dict:
    """A saved ensemble document rewritten in format 4: one six-field config for every kind."""
    settings = doc["payload"].pop("settings")
    doc["payload"]["config"] = {"learning_rate": 0.1, "bootstrap": True, "feature_subsample": None, "seed": 0, **settings}
    doc["format_version"] = 4
    return doc


@pytest.mark.parametrize("abbrev", ["br", "rf", "gb", "ab", "hgb"])
def test_version_4_document_rejected(abbrev):
    # Format 4 recorded fields the kind does not read, such as a seed for gradient boosting.
    doc = _as_version_4(_saved_doc(abbrev))
    with pytest.raises(PersistError, match="unsupported model format version 4"):
        loads_model(_rechecksummed(doc))
    doc["format_version"] = FORMAT_VERSION
    with pytest.raises(PersistError, match="lacks settings"):  # nor does it load under this version
        loads_model(_rechecksummed(doc))


def _as_version_3(doc: dict) -> dict:
    """A saved document rewritten in format 3: a nested tree config and stored left children."""
    config = _as_version_4(doc)["payload"]["config"]
    config["tree"] = {"max_depth": config.pop("max_depth"), "feature_subsample": 1.0, "seed": 0}
    for member in doc["payload"]["members"]:
        tree = member["tree"]
        tree["left"] = [i + (f >= 0) for i, f in enumerate(tree["feature"])]
    doc["format_version"] = 3
    return doc


def test_version_2_document_rejected():
    # Format 2 is format 3 plus four config keys the code no longer has.
    doc = _as_version_3(_saved_doc("ab"))
    doc["payload"]["config"]["loss"] = "linear"
    doc["payload"]["config"]["tree"].update(min_samples_leaf=1, min_samples_split=2, max_bins=255)
    doc["format_version"] = 2
    with pytest.raises(PersistError, match="version 2"):
        loads_model(_rechecksummed(doc))
    doc["format_version"] = FORMAT_VERSION
    with pytest.raises(PersistError, match="lacks settings"):  # nor do they load under this version
        loads_model(_rechecksummed(doc))


@pytest.mark.parametrize("abbrev", ["dt", "gb"])
def test_version_3_document_rejected(abbrev):
    # Format 3 nested a tree config in the ensemble config and stored each tree's left children.
    saved = _saved_doc(abbrev)
    doc = _as_version_3(copy.deepcopy(saved))
    with pytest.raises(PersistError, match="version 3"):
        loads_model(_rechecksummed(doc))
    doc["format_version"] = FORMAT_VERSION
    with pytest.raises(PersistError, match="lacks settings"):  # nor does it load under this version
        loads_model(_rechecksummed(doc))
    del doc["payload"]["config"]
    doc["payload"]["settings"] = saved["payload"]["settings"]
    with pytest.raises(PersistError, match="tree node arrays are not exactly"):  # a stored left list is refused too
        loads_model(_rechecksummed(doc))

def _saved_tree_doc():
    X, y = _data()
    doc = json.loads(dumps_model(make_model("dt", seed=1, max_depth=4).fit(X, y)))
    tree = doc["payload"]["members"][0]["tree"]
    assert tree["feature"][0] >= 0  # the root splits
    return doc, tree


def test_backward_child_index_rejected():
    doc, tree = _saved_tree_doc()
    last = len(tree["feature"]) - 1
    assert tree["feature"][last] == -1
    tree["feature"][last], tree["threshold"][last] = 0, 0.5
    tree["right"][last] = 0  # points back at the root: a cycle
    with pytest.raises(PersistError, match="past its parent's left child"):
        loads_model(_rechecksummed(doc))


def test_feature_out_of_range_rejected():
    doc, tree = _saved_tree_doc()
    tree["feature"][0] = doc["payload"]["n_features"]
    with pytest.raises(PersistError, match="feature"):
        loads_model(_rechecksummed(doc))


@pytest.mark.parametrize(
    "edit", ["short_value", "no_value", "text_feature", "infinite_threshold", "nan_value", "shared_child"]
)
def test_malformed_tree_arrays_rejected(edit):
    doc, tree = _saved_tree_doc()
    if edit == "short_value":
        tree["value"].pop()
    elif edit == "no_value":
        del tree["value"]
    elif edit == "text_feature":
        tree["feature"][0] = "x"
    elif edit == "infinite_threshold":
        tree["threshold"][0] = float("inf")
    elif edit == "nan_value":
        leaf = tree["feature"].index(-1)
        tree["value"][leaf] = float("nan")  # loaded, it would predict NaN for every row reaching this leaf
    else:
        tree["right"][0] = 1  # the root's left child
    with pytest.raises(PersistError, match="tree"):
        loads_model(_rechecksummed(doc))


def _saved_doc(abbrev):
    X, y = _data()
    return json.loads(dumps_model(small_model(abbrev, 1, n_estimators=3).fit(X, y)))


def _drop(key):
    return lambda payload: payload.pop(key)


def _set(key, value):
    return lambda payload: payload.__setitem__(key, value)


def _set_setting(key, value):
    return lambda payload: payload["settings"].__setitem__(key, value)


def _member(key, value=None):
    def edit(payload):
        if value is None:
            del payload["members"][0][key]
        else:
            payload["members"][0][key] = value

    return edit


def _linear(key, value=None):
    def edit(payload):
        if value is None:
            del payload["model"][key]
        else:
            payload["model"][key] = value

    return edit


MALFORMED_PAYLOADS = {
    "gb_no_members": ("gb", _drop("members"), "lacks members"),
    # Cases named for format 4's "config" edit its "settings" object.
    "gb_no_config": ("gb", _drop("settings"), "payload lacks settings"),
    "gb_no_n_features": ("gb", _drop("n_features"), "lacks n_features"),
    "gb_no_base_prediction": ("gb", _drop("base_prediction"), "lacks base_prediction"),
    "gb_empty_members": ("gb", _set("members", []), "non-empty list"),
    "gb_members_not_list": ("gb", _set("members", {"tree": 1}), "non-empty list"),
    "gb_text_n_features": ("gb", _set("n_features", "9"), "n_features"),
    "gb_nan_base_prediction": ("gb", _set("base_prediction", float("nan")), "base_prediction"),
    "gb_config_not_object": ("gb", _set("settings", [1]), "settings is not an object"),
    "gb_unknown_config_key": ("gb", _set_setting("bogus", 1), "settings: gbm_exact does not take bogus"),
    "gb_bad_config_value": ("gb", _set_setting("learning_rate", 5.0), r"settings: learning_rate must be a number in \(0, 2\]"),
    "gb_unread_feature_subsample": ("gb", _set_setting("feature_subsample", 0.5), "gbm_exact does not take feature_subsample"),
    "ab_unread_bootstrap": ("ab", _set_setting("bootstrap", False), "adaboost_r2 does not take bootstrap"),
    "rf_unread_learning_rate": ("rf", _set_setting("learning_rate", 0.5), "random_forest does not take learning_rate"),
    "dt_unread_loss": ("dt", _set_setting("loss", "square"), "settings: bagging does not take loss"),
    # No kind takes a nested tree config, so neither of its knobs loads.
    "ab_unread_tree_seed": ("ab", _set_setting("tree", {"seed": 99}), "settings: adaboost_r2 does not take tree"),
    "gb_unread_tree_feature_subsample": ("gb", _set_setting("tree", {"feature_subsample": 0.25}), "settings: .*tree"),
    "br_unread_tree_feature_subsample": ("br", _set_setting("tree", {"feature_subsample": 0.25}), "settings: .*tree"),
    "gb_text_max_depth": ("gb", _set_setting("max_depth", "deep"), "settings: max_depth"),
    "dt_zero_max_depth": ("dt", _set_setting("max_depth", 0), "settings: max_depth"),
    "gb_fractional_max_depth": ("gb", _set_setting("max_depth", 2.5), "settings: max_depth"),
    "gb_fractional_n_estimators": ("gb", _set_setting("n_estimators", 2.5), "settings: n_estimators"),
    "br_text_bootstrap": ("br", _set_setting("bootstrap", "no"), "settings: bootstrap must be True or False"),
    "gb_fractional_seed": ("gb", _set_setting("seed", 1.5), "settings: gbm_exact does not take seed"),
    "ab_fractional_seed": ("ab", _set_setting("seed", 1.5), "settings: seed must be an integer"),
    "rf_zero_feature_subsample": ("rf", _set_setting("feature_subsample", 0.0), "settings: feature_subsample must be"),
    "gb_member_no_tree": ("gb", _member("tree"), "member lacks tree"),
    "gb_member_no_weight": ("gb", _member("weight"), "member lacks weight"),
    "gb_member_text_weight": ("gb", _member("weight", "x"), "weight"),
    "gb_member_huge_weight": ("gb", _member("weight", 10**400), "weight"),
    "gb_member_not_object": ("gb", lambda p: p["members"].__setitem__(0, 3), "member is not an object"),
    "dt_payload_list": ("dt", lambda p: p.clear(), "lacks"),
    "lr_no_model": ("lr", _drop("model"), "lacks model"),
    "lr_no_coefficients": ("lr", _linear("coefficients"), "lacks coefficients"),
    "lr_short_coefficients": ("lr", lambda p: p["model"]["coefficients"].pop(), "coefficients"),
    "lr_text_coefficient": ("lr", lambda p: p["model"]["coefficients"].__setitem__(0, "x"), "coefficients"),
    "la_zero_scale": ("la", lambda p: p["model"]["feature_scales"].__setitem__(0, 0.0), "zero"),
    "ri_bad_penalty": ("ri", _linear("penalty", "l3"), "penalty"),
    "lr_day_type_col_out_of_range": ("lr", _linear("day_type_col", 40), "day_type_col"),
    "lr_text_n_raw_features": ("lr", _linear("n_raw_features", "9"), "n_raw_features"),
    "lr_converged_text": ("lr", _linear("converged", "yes"), "converged"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PAYLOADS))
def test_malformed_payload_rejected(case):
    abbrev, edit, message = MALFORMED_PAYLOADS[case]
    doc = _saved_doc(abbrev)
    edit(doc["payload"])
    with pytest.raises(PersistError, match=message):
        loads_model(_rechecksummed(doc))


@pytest.mark.parametrize("key", ["kind", "payload"])
def test_document_without_kind_or_payload_rejected(key):
    doc = _saved_doc("gb")
    del doc[key]
    with pytest.raises(PersistError):
        loads_model(_rechecksummed(doc))


#: For each ensemble model, a setting its kind does not take, at a value a kind that takes it accepts.
UNREAD = {
    "br": ("feature_subsample", 1.0),
    "rf": ("learning_rate", 0.1),
    "gb": ("seed", 1),
    "hgb": ("seed", 0),
    "ab": ("bootstrap", True),
}


@pytest.mark.parametrize("abbrev", sorted(UNREAD))
def test_document_records_exactly_its_kinds_settings(abbrev):
    doc = _saved_doc(abbrev)  # n_estimators 3, seed 1
    kind, settings = doc["kind"], doc["payload"]["settings"]
    seeded = {"seed": 1} if "seed" in SETTINGS[kind] else {}
    assert settings == {**SETTINGS[kind], "n_estimators": 3, **seeded}
    name, value = UNREAD[abbrev]
    added = copy.deepcopy(doc)
    added["payload"]["settings"][name] = value
    with pytest.raises(PersistError, match=f"settings: {kind} does not take {name}"):
        loads_model(_rechecksummed(added))
    for missing in settings:
        short = copy.deepcopy(doc)
        del short["payload"]["settings"][missing]
        with pytest.raises(PersistError, match=f"settings lacks {missing}"):
            loads_model(_rechecksummed(short))
