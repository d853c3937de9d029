"""Model persistence: exact prediction round trips and failure modes."""

import copy
import functools
import hashlib
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tripcast.ensembles import SETTINGS, EnsembleModel, predict_ensemble_batch
from tripcast.errors import DataError, PersistError, UsageError
from tripcast.persist import (
    FORMAT_NAME,
    FORMAT_VERSION,
    dumps_model,
    load_model,
    loads_model,
    save_model,
    write_atomically,
)
from tripcast.registry import make_model

from tests.helpers import mutated_bytes, signed, small_model, time_limit


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
    with mock.patch("json.dumps", wraps=json.dumps) as dumps:
        save_model(model, path)
    assert dumps.call_count == 2  # the body, once, and the header
    with mock.patch("json.dumps", side_effect=AssertionError("a load serializes nothing")):
        loaded = load_model(path)
    assert loaded.kind == model.kind
    assert np.array_equal(loaded.predict(X), before)
    assert dumps_model(loaded) == path.read_bytes().decode("utf-8")  # the same text, byte for byte


def test_save_makes_a_missing_directory(tmp_path):
    model = make_model("dt", seed=1, max_depth=3).fit(*_data())
    path = tmp_path / "new" / "dir" / "model.json"
    save_model(model, path)
    assert path.read_bytes() == dumps_model(model).encode("utf-8")


def test_a_failed_save_keeps_the_earlier_file_and_leaves_no_temp_file(tmp_path):
    model = make_model("dt", seed=1, max_depth=3).fit(*_data())
    path = tmp_path / "model.json"
    save_model(model, path)
    saved = path.read_bytes()
    # A payload that cannot be made, and a write that fails halfway (a full disk, say).
    with mock.patch.object(model, "to_payload", side_effect=MemoryError), pytest.raises(MemoryError):
        save_model(model, path)

    def half(handle):
        handle.write(saved.decode("utf-8")[: len(saved) // 2])
        raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space"):
        write_atomically(path, half)
    assert path.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_save_is_deterministic(tmp_path):
    X, y = _data()
    a = make_model("hgb", seed=3, n_estimators=3).fit(X, y)
    b = make_model("hgb", seed=3, n_estimators=3).fit(X, y)
    assert dumps_model(a) == dumps_model(b)


@pytest.mark.parametrize("abbrev", ["dt", "gb"])
def test_document_is_two_compact_lines_and_a_reindented_body_is_refused(abbrev):
    # The checksum covers the body's bytes as written, so the same body
    # written indented (as builds before format 6 could read) is refused.
    X, y = _data()
    model = small_model(abbrev, 2, n_estimators=3).fit(X, y)
    text = dumps_model(model)
    header_line, body_line, end = text.split("\n")
    assert end == ""
    header, body = json.loads(header_line), json.loads(body_line)
    assert header == {"format": FORMAT_NAME, "format_version": FORMAT_VERSION, "sha256": header["sha256"]}
    assert header["sha256"] == hashlib.sha256(f"{body_line}\n".encode("utf-8")).hexdigest()
    assert list(body) == ["kind", "payload"]
    assert body_line == json.dumps(body, sort_keys=True, separators=(",", ":"))
    indented = json.dumps(body, sort_keys=True, indent=1)
    assert indented.count("\n") > 100
    with pytest.raises(PersistError, match="checksum mismatch"):
        loads_model(f"{header_line}\n{indented}\n")


def test_truncated_document_rejected(tmp_path):
    X, y = _data()
    model = make_model("dt", seed=1).fit(X, y)
    text = dumps_model(model)
    with pytest.raises(PersistError, match="checksum mismatch"):  # the body cut short
        loads_model(text[: len(text) // 2])
    with pytest.raises(PersistError, match="JSON"):  # the header cut short
        loads_model(text[:40])


def test_tampered_document_rejected():
    X, y = _data()
    model = make_model("dt", seed=1).fit(X, y)
    text = dumps_model(model)
    tampered = text.replace('"n_features":9', '"n_features":4')
    assert tampered != text
    with pytest.raises(PersistError, match="checksum"):
        loads_model(tampered)


def test_unknown_version_rejected():
    X, y = _data()
    model = make_model("lr", seed=1).fit(X, y)
    doc = _doc(dumps_model(model))
    doc["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(PersistError, match="version"):
        loads_model(_rechecksummed(doc))


@pytest.mark.parametrize(
    "body",
    ["[" * 100_000 + "]" * 100_000, '{"kind":"linear","payload":' + "7" * 5_000 + "}"],
    ids=["nested 100,000 deep", "5,000 digits"],
)
def test_a_body_with_a_stale_checksum_is_refused_before_it_is_parsed(body):
    # Parsed, the first body is nested too deeply and the second holds a
    # number the parser cannot read. Under a stale sha256 neither is parsed:
    # each is a checksum mismatch. Signed, each reaches the parser.
    fresh = signed(f"{body}\n".encode("utf-8")).decode("utf-8")
    stale = fresh.replace('"sha256": "', '"sha256": "0', 1)
    with pytest.raises(PersistError, match="checksum mismatch"):
        loads_model(stale)
    with pytest.raises(PersistError, match="nested too deeply|a number it cannot read"):
        loads_model(fresh)


def test_not_a_model_document():
    with pytest.raises(PersistError, match="not a tripcast model"):
        loads_model(json.dumps({"hello": "world"}))


def test_missing_file():
    with pytest.raises(PersistError, match="not found"):
        load_model("/nonexistent/model.json")


def test_nesting_near_the_recursion_limit_is_a_persist_error():
    # A payload nested just short of the parser's limit parses and is
    # refused by the payload checks; one nested deeper fails the parse. Each
    # depth is refused as a PersistError, whichever step meets it.
    for depth in range(900, 1100):
        body = '{"kind":"linear","payload":' + "[" * depth + "]" * depth + "}\n"
        with pytest.raises(PersistError):
            loads_model(signed(body.encode("utf-8")).decode("utf-8"))


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


def _doc(text: str) -> dict:
    """A saved document as one object: its header's format and version, and its body's kind and payload."""
    header, body = (json.loads(line) for line in text.splitlines())
    del header["sha256"]
    return {**header, **body}


def _rechecksummed(doc: dict) -> str:
    """A document (see ``_doc``) edited after saving, with a header whose sha256 matches the edited body."""
    header = {key: doc[key] for key in ("format", "format_version")}
    body = {key: value for key, value in doc.items() if key not in header}
    return signed(json.dumps(body).encode("utf-8") + b"\n", **header).decode("utf-8")


def _single_line(doc: dict) -> str:
    """A document (see ``_doc``) written as formats 1 to 5 were: one line, with a checksum of the rest."""
    canonical = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    return canonical({**doc, "checksum": hashlib.sha256(canonical(doc).encode("utf-8")).hexdigest()})


def test_version_5_document_rejected():
    # Format 5 was one line that held its own checksum; that line is read as the header.
    doc = {**_saved_doc("gb"), "format_version": 5}
    with pytest.raises(PersistError, match="unsupported model format version 5"):
        loads_model(_single_line(doc))


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
        loads_model(_single_line(doc))


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
        loads_model(_single_line(doc))
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
        loads_model(_single_line(doc))
    doc["format_version"] = FORMAT_VERSION
    with pytest.raises(PersistError, match="lacks settings"):  # nor do they load under this version
        loads_model(_rechecksummed(doc))


@pytest.mark.parametrize("abbrev", ["dt", "gb"])
def test_version_3_document_rejected(abbrev):
    # Format 3 nested a tree config in the ensemble config and stored each tree's left children.
    saved = _saved_doc(abbrev)
    doc = _as_version_3(copy.deepcopy(saved))
    with pytest.raises(PersistError, match="version 3"):
        loads_model(_single_line(doc))
    doc["format_version"] = FORMAT_VERSION
    with pytest.raises(PersistError, match="lacks settings"):  # nor does it load under this version
        loads_model(_rechecksummed(doc))
    del doc["payload"]["config"]
    doc["payload"]["settings"] = saved["payload"]["settings"]
    with pytest.raises(PersistError, match="tree node arrays are not exactly"):  # a stored left list is refused too
        loads_model(_rechecksummed(doc))

def _saved_tree_doc():
    X, y = _data()
    doc = _doc(dumps_model(make_model("dt", seed=1, max_depth=4).fit(X, y)))
    tree = doc["payload"]["members"][0]["tree"]
    assert tree["feature"][0] >= 0  # the root splits
    return doc, tree


def test_feature_out_of_range_rejected():
    doc, tree = _saved_tree_doc()
    tree["feature"][0] = doc["payload"]["n_features"]
    with pytest.raises(PersistError, match="feature"):
        loads_model(_rechecksummed(doc))


#: Each malformed tree, and what its refusal says.
MALFORMED_TREES = {
    "short_value": "tree",
    "no_value": "tree",
    "text_feature": "tree",
    "infinite_threshold": "tree",
    "nan_value": "tree",
    "node_count": r"tree has \d+ nodes, not 2 x its \d+ splits \+ 1",
    "child_before_parent": "tree numbers a child before its parent",
    "stored_right": "tree node arrays are not exactly feature, threshold, value",
    "stored_left": "tree node arrays are not exactly feature, threshold, value",
}


@pytest.mark.parametrize("edit", list(MALFORMED_TREES))
def test_malformed_tree_arrays_rejected(edit):
    # A tree in level order implies its children, so it cannot name a shared
    # or a backward child; it can only split too often or too late.
    doc, tree = _saved_tree_doc()
    split = [i for i, f in enumerate(tree["feature"]) if f >= 0]
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
    elif edit == "node_count":  # one more split than the nodes allow
        leaf = tree["feature"].index(-1)
        tree["feature"][leaf], tree["threshold"][leaf] = 0, 0.5
    elif edit == "child_before_parent":  # the last split moved to the last node, whose children would precede it
        tree["feature"][split[-1]], tree["threshold"][split[-1]] = -1, 0.0
        tree["feature"][-1], tree["threshold"][-1] = 0, 0.5
    else:  # a child list, as formats 3 (left) and 4 to 6 (right) stored one
        tree[edit.removeprefix("stored_")] = [i + 1 if i in split else i for i in range(len(tree["feature"]))]
    with pytest.raises(PersistError, match=MALFORMED_TREES[edit]):
        loads_model(_rechecksummed(doc))


@pytest.mark.parametrize(
    "name, entry", [("feature", 8.5), ("feature", "1"), ("feature", True), ("threshold", "0.5"), ("value", False)]
)
def test_tree_node_arrays_hold_only_json_numbers(name, entry):
    # The arrays were cast on load: a feature of 8.5 loaded as 8, and "1",
    # true and a threshold of "0.5" loaded as numbers.
    doc, tree = _saved_tree_doc()
    tree[name][0] = entry
    with pytest.raises(PersistError, match=f"tree {name} is not a list of"):
        loads_model(_rechecksummed(doc))


def _as_version_6(doc: dict) -> dict:
    """A saved ensemble document rewritten in format 6: each tree in depth-first preorder, with its right children."""
    for member in doc["payload"]["members"]:
        tree = member["tree"]
        rank = list(itertools.accumulate(int(f >= 0) for f in tree["feature"]))
        pre, stack = [], [0]
        while stack:  # a node, its left subtree, then its right one
            node = stack.pop()
            pre.append(node)
            if tree["feature"][node] >= 0:
                stack += [2 * rank[node], 2 * rank[node] - 1]
        at = {node: i for i, node in enumerate(pre)}
        member["tree"] = {name: [tree[name][node] for node in pre] for name in tree}
        member["tree"]["right"] = [at[2 * rank[node]] if tree["feature"][node] >= 0 else at[node] for node in pre]
    doc["format_version"] = 6
    return doc


@pytest.mark.parametrize("abbrev", ["dt", "gb"])
def test_version_6_document_rejected(abbrev):
    # Format 6 stored each tree in depth-first preorder with its right children.
    doc = _as_version_6(_saved_doc(abbrev))
    with pytest.raises(PersistError, match="unsupported model format version 6"):
        loads_model(_rechecksummed(doc))
    doc["format_version"] = FORMAT_VERSION
    with pytest.raises(PersistError, match="tree node arrays are not exactly"):  # nor does it load under this version
        loads_model(_rechecksummed(doc))


def _saved_doc(abbrev):
    X, y = _data()
    return _doc(dumps_model(small_model(abbrev, 1, n_estimators=3).fit(X, y)))


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
    # Settings no fit writes: a negative lam, or a nonzero one without a penalty.
    "ri_negative_lam": ("ri", _linear("lam", -5.0), "lam must be a finite number >= 0, got -5.0"),
    "lr_negative_lam": ("lr", _linear("lam", -5.0), "lam must be a finite number >= 0"),
    "la_negative_lam": ("la", _linear("lam", -5.0), "lam must be a finite number >= 0"),
    "lr_nonzero_lam": ("lr", _linear("lam", 1.0), "penalty none with lam 1.0, not 0"),
    "ri_penalty_none": ("ri", _linear("penalty", "none"), "penalty none with lam 1.0, not 0"),
    # Members no fit of the document's kind and settings writes (n_estimators 3).
    "br_member_weight": ("br", _member("weight", 7.0), "a bagging member weight is not 1.0"),
    "dt_member_weight": ("dt", _member("weight", 7.0), "a bagging member weight is not 1.0"),
    "rf_member_weight": ("rf", _member("weight", 0.5), "a random_forest member weight is not 1.0"),
    "gb_member_weight": ("gb", _member("weight", 7.0), "a gbm_exact member weight is not 0.1"),
    "hgb_member_weight": ("hgb", _member("weight", 1.0), "a gbm_hist member weight is not 0.1"),
    "ab_zero_member_weight": ("ab", _member("weight", 0.0), "an adaboost_r2 member weight is not > 0"),
    "ab_negative_member_weight": ("ab", _member("weight", -1.0), "an adaboost_r2 member weight is not > 0"),
    "br_base_prediction": ("br", _set("base_prediction", 5.0), "bagging has a nonzero base_prediction"),
    "dt_base_prediction": ("dt", _set("base_prediction", 5.0), "bagging has a nonzero base_prediction"),
    "rf_base_prediction": ("rf", _set("base_prediction", -1), "random_forest has a nonzero base_prediction"),
    "ab_base_prediction": ("ab", _set("base_prediction", 5.0), "adaboost_r2 has a nonzero base_prediction"),
    "gb_one_of_three_members": ("gb", lambda p: p["members"].__delitem__(slice(1, None)), "members holds 1 trees, not n_estimators 3"),
    "br_one_of_three_members": ("br", lambda p: p["members"].__delitem__(slice(1, None)), "members holds 1 trees, not n_estimators 3"),
    "rf_six_members": ("rf", lambda p: p["members"].extend(p["members"]), "members holds 6 trees, not n_estimators 3"),
    "dt_two_members": ("dt", lambda p: p["members"].extend(p["members"]), "members holds 2 trees, not n_estimators 1"),
    "ab_four_members": ("ab", lambda p: p["members"].extend(p["members"][:1] * 4), "members holds [4-7] trees, over n_estimators 3"),
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


@pytest.mark.parametrize("kind", ["tree", None, ["gbm_exact"], {"gbm_exact": 1}])
def test_document_of_an_unknown_kind_rejected(kind):
    doc = _saved_doc("gb")
    doc["kind"] = kind
    with pytest.raises(PersistError, match="unknown persisted model kind"):
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



def _all_leaves(payload, value):
    """Set every node value of every member of an ensemble payload to ``value``."""
    return [m["tree"].__setitem__("value", [value] * len(m["tree"]["value"])) for m in payload["members"]]


@pytest.mark.parametrize(
    "abbrev, edit",
    [
        ("lr", lambda payload: payload["model"]["coefficients"].__setitem__(0, 1.7e308)),
        ("gb", lambda payload: [payload.__setitem__("base_prediction", 1.7e308), *_all_leaves(payload, 1.7e308)]),
        ("br", lambda payload: _all_leaves(payload, 1.7e308)),
    ],
    ids=["linear coefficient", "boosting base and leaf values", "bagging leaf values"],
)
def test_finite_parameters_that_overflow_on_a_query_are_refused_at_predict(abbrev, edit):
    # Each document passes every check, yet its predictions overflowed to
    # inf and were returned as if they were numbers. The model's own entry
    # points refuse them too, without an overflow warning (an error here).
    X, y = _data()
    doc = _doc(dumps_model(small_model(abbrev, 1, n_estimators=2).fit(X, y)))
    edit(doc["payload"])
    model = loads_model(_rechecksummed(doc))
    entry_points = [model.predict, model.model.predict]
    if isinstance(model.model, EnsembleModel):
        entry_points.append(functools.partial(predict_ensemble_batch, model.model))
    for predict in entry_points:
        with pytest.raises(DataError, match="non-finite value"):
            predict(X)

#: One small fitted model of each persisted kind, by kind.
_ONE_PER_KIND = {
    "linear": "la",
    "bagging": "br",
    "random_forest": "rf",
    "gbm_exact": "gb",
    "gbm_hist": "hgb",
    "adaboost_r2": "ab",
}


@pytest.fixture(scope="module")
def small_documents():
    X, y = _data(n=40)
    docs = {}
    for kind, abbrev in _ONE_PER_KIND.items():
        small = {"n_estimators": 2, "max_depth": 2} if abbrev != "la" else {}
        model = make_model(abbrev, 3, **small).fit(X, y)
        assert model.kind == kind
        docs[kind] = dumps_model(model).encode("utf-8")
    return X, docs


def _resigned(data: bytes) -> bytes | None:
    """``data``'s bytes after its first line under a fresh header, if it has two; so the checks past the hash see them."""
    _, newline, body = data.partition(b"\n")
    return signed(body) if newline else None


@pytest.mark.parametrize("kind", sorted(_ONE_PER_KIND))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_property_mutated_document_loads_and_predicts_finite_values_or_is_refused(tmp_path, small_documents, kind, data):
    # Truncated, spliced or flipped bytes fail the header's parse or the
    # checksum. The same body under a matching header reaches the parse and
    # the document's own checks.
    # A document that passes them may still refuse a query as a data error:
    # finite parameters that overflow on it, or a day-type column moved.
    X, docs = small_documents
    mutant = data.draw(mutated_bytes(docs[kind]))
    path = tmp_path / "model.json"
    for content in (mutant, _resigned(mutant)):
        if content is None:
            continue
        path.write_bytes(content)
        with time_limit(5):
            try:
                model = load_model(path)
            except PersistError:
                continue
            try:
                predictions = model.predict(X)
            except DataError:
                continue
            assert np.all(np.isfinite(predictions))
