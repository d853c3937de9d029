"""End-to-end CLI behaviour: exit codes, atomic writes, determinism."""

import csv
import hashlib
import json
import re
import xml.etree.ElementTree as ET
from functools import partial
from pathlib import Path
from unittest import mock

import pytest

from tripcast.cli import MODEL_FLAGS, main
from tripcast.errors import UsageError
from tripcast.persist import _canonical
from tripcast import linear, registry
from tripcast.registry import REGISTRY, ModelRegistryEntry, make_model

SMALL_CONFIG = """
months = 2019-03..2019-09
weekday_trips_mean = 14
weekday_trips_std = 3
saturday_trips_mean = 3
saturday_trips_std = 1
sunday_trips_mean = 1
sunday_trips_std = 0.4
seed = 42
"""


@pytest.fixture(scope="module")
def stops_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    conf = root / "gen.conf"
    conf.write_text(SMALL_CONFIG, encoding="utf-8")
    out = root / "stops.csv"
    assert main(["synth", "--config", str(conf), "--out", str(out)]) == 0
    return out


def _read_csv(path):
    with Path(path).open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_synth_deterministic(tmp_path, stops_csv):
    conf = tmp_path / "gen.conf"
    conf.write_text(SMALL_CONFIG, encoding="utf-8")
    out = tmp_path / "again.csv"
    assert main(["synth", "--config", str(conf), "--out", str(out)]) == 0
    assert out.read_bytes() == Path(stops_csv).read_bytes()


def test_synth_malformed_config_no_partial_file(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("unknown_key = 5\n", encoding="utf-8")
    out = tmp_path / "never.csv"
    assert main(["synth", "--config", str(conf), "--out", str(out)]) == 2
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("line", ["duration_min = nan", "delay_std = inf", "stops_mean = nan"])
def test_synth_non_finite_config_is_data_error_and_writes_nothing(tmp_path, capsys, line):
    # Unchecked, NaN and inf wrote a CSV of NaT stamps (exit 0) or ended in an internal error (exit 3).
    conf = tmp_path / "bad.conf"
    conf.write_text(SMALL_CONFIG + line + "\n", encoding="utf-8")
    out = tmp_path / "never.csv"
    assert main(["synth", "--config", str(conf), "--out", str(out)]) == 2
    assert "must be a finite number" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("command", ["summarize", "run"])
def test_stops_file_not_utf8_is_data_error(tmp_path, stops_csv, capsys, command):
    # Unchecked, csv.reader's UnicodeDecodeError ended in an internal error (exit 3).
    path = tmp_path / "latin1.csv"
    path.write_bytes(Path(stops_csv).read_bytes() + "T0,d,1,a,Straße,Linz,x,y\r\n".encode("latin-1"))
    out_dir = tmp_path / "run"
    args = ["--scenario", "1", "--target", "delay", "--models", "lr", "--out", str(out_dir)] if command == "run" else []
    assert main([command, str(path), *args]) == 2
    assert "is not UTF-8" in capsys.readouterr().err
    assert not out_dir.exists()


def test_summarize_prints_stats(stops_csv, capsys):
    assert main(["summarize", str(stops_csv)]) == 0
    out = capsys.readouterr().out
    assert "Trip duration (h)" in out
    assert "Trips per Saturday" in out


def test_run_writes_results_and_aggregates(tmp_path, stops_csv):
    out_dir = tmp_path / "run"
    code = main(
        [
            "run", str(stops_csv),
            "--scenario", "1",
            "--target", "duration",
            "--models", "hgb,dt,lr",
            "--seed", "5",
            "--n-estimators", "8",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    results = _read_csv(out_dir / "results.csv")
    aggregates = _read_csv(out_dir / "aggregates.csv")
    assert results[0] == ["scenario", "model", "target", "fold", "n_train", "n_test", "mae_s", "rmse_s", "fit_time_s"]
    assert aggregates[0] == ["scenario", "model", "target", "n_folds", "mae_s", "rmse_s", "fit_time_s"]
    assert len(aggregates) == 1 + 3  # one row per model
    assert {row[1] for row in results[1:]} == {"hgb", "dt", "lr"}
    assert all(row[3].isdigit() for row in results[1:])
    for row in results[1:]:
        assert float(row[6]) <= float(row[7])  # mae <= rmse


def test_run_metric_columns_deterministic(tmp_path, stops_csv):
    def metrics(out_dir):
        code = main(
            ["run", str(stops_csv), "--scenario", "2", "--target", "delay",
             "--models", "hgb", "--seed", "9", "--n-estimators", "6",
             "--out", str(out_dir)]
        )
        assert code == 0
        rows = _read_csv(out_dir / "results.csv")
        return [row[:8] for row in rows]  # all but fit_time

    assert metrics(tmp_path / "a") == metrics(tmp_path / "b")


def test_run_notes_a_lasso_that_did_not_converge(tmp_path, stops_csv, capsys):
    one_sweep = registry._linear(partial(linear.fit_lasso, max_iter=1))
    with mock.patch.dict(REGISTRY, {"la": ModelRegistryEntry("lasso (L1)", one_sweep, ("lam",))}):
        code = main(
            ["run", str(stops_csv), "--scenario", "1", "--target", "duration",
             "--models", "la", "--out", str(tmp_path / "run")]
        )
    assert code == 0
    err = capsys.readouterr().err
    assert "note [la]: fold 0: fit did not converge; its last iterate is used" in err


def test_run_notes_adaboost_folds_that_stopped_early(tmp_path, stops_csv, capsys):
    code = main(
        ["run", str(stops_csv), "--scenario", "1", "--target", "duration",
         "--models", "ab", "--n-estimators", "50", "--out", str(tmp_path / "run")]
    )
    assert code == 0
    notes = re.findall(r"^note \[ab\]: fold (\d+): stopped after (\d+) of 50 stages$", capsys.readouterr().err, re.M)
    assert [fold for fold, _ in notes] == ["0", "1", "2"]
    assert all(1 <= int(stages) < 50 for _, stages in notes)


def test_run_unknown_model_exit_code(tmp_path, stops_csv, capsys):
    code = main(
        ["run", str(stops_csv), "--scenario", "1", "--target", "duration",
         "--models", "zz", "--out", str(tmp_path / "x")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown model" in err and "hgb" in err  # lists valid abbreviations


def test_run_out_of_scope_models_named(tmp_path, stops_csv, capsys):
    for name in ("xgb", "cb", "lgb"):
        code = main(
            ["run", str(stops_csv), "--scenario", "1", "--target", "duration",
             "--models", name, "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "out of scope" in capsys.readouterr().err


def test_run_missing_stops_file_is_data_error(tmp_path, capsys):
    code = main(
        ["run", str(tmp_path / "absent.csv"), "--scenario", "1",
         "--target", "duration", "--models", "lr", "--out", str(tmp_path / "x")]
    )
    assert code == 2


def test_run_non_finite_penalty_is_data_error_and_writes_nothing(tmp_path, stops_csv, capsys):
    # Unchecked, a NaN penalty reached the metrics and ended in an internal error (exit 3).
    out_dir = tmp_path / "run"
    code = main(["run", str(stops_csv), "--scenario", "1", "--target", "duration",
                 "--models", "ri", "--lam", "nan", "--out", str(out_dir)])
    assert code == 2
    assert "penalty lam must be a finite number" in capsys.readouterr().err
    assert not (out_dir / "results.csv").exists()


@pytest.mark.parametrize("command", ["run", "scale", "save-model"])
def test_flag_no_requested_model_takes_is_usage_error(tmp_path, capsys, command):
    # Refused before the (missing) stops file is read, which would be a data error.
    models = ["--model", "lr"] if command == "save-model" else ["--models", "lr,gb"]
    flag = ["--learning-rate", "0.5"] if command == "save-model" else ["--lam", "50"]
    args = [command, str(tmp_path / "absent.csv"), *models, *flag, "--target", "delay", "--out", str(tmp_path / "x")]
    if command == "run":
        args += ["--scenario", "3"]
    assert main(args) == 1
    assert f"{flag[0]} is not a setting of" in capsys.readouterr().err


def test_model_flags_are_the_registry_settings():
    assert set(MODEL_FLAGS) == {name for entry in REGISTRY.values() for name in entry.settings}


def test_scale_takes_lam(tmp_path, stops_csv):
    out_dir = tmp_path / "scale"
    args = ["scale", str(stops_csv), "--sizes", "300", "--models", "ri", "--lam", "5", "--repeats", "1"]
    assert main(args + ["--out", str(out_dir)]) == 0
    assert [row[:2] for row in _read_csv(out_dir / "scale.csv")[1:]] == [["ri", "300"]]


def test_run_insufficient_span(tmp_path, capsys):
    conf = tmp_path / "short.conf"
    conf.write_text("months = 2019-03..2019-05\nweekday_trips_mean = 6\nweekday_trips_std = 1\n"
                    "saturday_trips_mean = 2\nsaturday_trips_std = 0.5\n"
                    "sunday_trips_mean = 1\nsunday_trips_std = 0.2\nseed = 1\n", encoding="utf-8")
    stops = tmp_path / "short.csv"
    assert main(["synth", "--config", str(conf), "--out", str(stops)]) == 0
    code = main(["run", str(stops), "--scenario", "0", "--target", "duration",
                 "--models", "lr", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "span" in capsys.readouterr().err


def test_scale_emits_csv_and_svg(tmp_path, stops_csv):
    out_dir = tmp_path / "scale"
    code = main(
        ["scale", str(stops_csv), "--sizes", "200,800", "--models", "hgb,gb",
         "--n-estimators", "4", "--out", str(out_dir)]
    )
    assert code == 0
    rows = _read_csv(out_dir / "scale.csv")
    assert rows[0][:3] == ["model", "n", "fit_time_s"]
    assert len(rows) == 1 + 4  # 2 models x 2 sizes
    svg = ET.parse(out_dir / "scale.svg")  # well-formed XML
    polylines = [e for e in svg.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 2


def test_scale_size_exceeding_table(tmp_path, stops_csv):
    code = main(
        ["scale", str(stops_csv), "--sizes", "10000000", "--models", "hgb",
         "--out", str(tmp_path / "x")]
    )
    assert code == 2


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_scale_repeats_below_one_is_data_error_and_writes_nothing(tmp_path, stops_csv, capsys, repeats):
    out_dir = tmp_path / "scale"
    code = main(["scale", str(stops_csv), "--sizes", "200", "--models", "lr",
                 "--repeats", repeats, "--out", str(out_dir)])
    assert code == 2
    assert "repeats must be >= 1" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_save_and_load_model_round_trip(tmp_path, stops_csv):
    model_path = tmp_path / "model.json"
    code = main(
        ["save-model", str(stops_csv), "--model", "hgb", "--target", "delay",
         "--seed", "4", "--n-estimators", "5", "--out", str(model_path)]
    )
    assert code == 0
    preds_a = tmp_path / "preds_a.csv"
    preds_b = tmp_path / "preds_b.csv"
    for out in (preds_a, preds_b):
        code = main(
            ["load-model", str(model_path), "--stops", str(stops_csv), "--predictions-out", str(out)]
        )
        assert code == 0
    assert preds_a.read_bytes() == preds_b.read_bytes()
    rows = _read_csv(preds_a)
    assert rows[0] == ["trip_id", "prediction_s"]
    assert len(rows) > 1


@pytest.mark.parametrize("model_exists", [True, False])
def test_load_model_stops_without_predictions_out_is_usage_error(tmp_path, stops_csv, capsys, model_exists):
    # Each of the two flags needs the other, and they are checked before any
    # work: neither the model nor the stops file (here missing, which would
    # be a data error) is read, and no predictions file is written.
    model_path = tmp_path / "model.json"
    if model_exists:
        assert main(["save-model", str(stops_csv), "--model", "lr", "--target", "delay", "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["load-model", str(model_path), "--stops", str(tmp_path / "missing.csv")]) == 1
    assert "--predictions-out" in capsys.readouterr().err
    preds = tmp_path / "preds.csv"
    assert main(["load-model", str(model_path), "--predictions-out", str(preds)]) == 1
    assert "--stops" in capsys.readouterr().err
    assert not preds.exists()


@pytest.mark.parametrize("name", ["xgb", "nope"])
def test_model_name_errors_match_library(tmp_path, stops_csv, capsys, name):
    with pytest.raises(UsageError) as exc:
        make_model(name, seed=0)
    capsys.readouterr()
    assert main(["run", str(stops_csv), "--scenario", "3", "--target", "delay",
                 "--models", f"lr,{name.upper()}", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"usage error: {exc.value}\n"


def test_load_model_corrupted(tmp_path, stops_csv, capsys):
    model_path = tmp_path / "model.json"
    assert main(
        ["save-model", str(stops_csv), "--model", "dt", "--target", "duration",
         "--out", str(model_path)]
    ) == 0
    text = model_path.read_text()
    model_path.write_text(text[: len(text) - 40], encoding="utf-8")
    assert main(["load-model", str(model_path)]) == 2


@pytest.mark.parametrize("edit", ["drop_members", "empty_members", "drop_config"])
def test_load_model_malformed_payload_is_data_error(tmp_path, stops_csv, capsys, edit):
    model_path = tmp_path / "model.json"
    assert main(
        ["save-model", str(stops_csv), "--model", "gb", "--target", "duration",
         "--n-estimators", "3", "--out", str(model_path)]
    ) == 0
    doc = json.loads(model_path.read_text())
    if edit == "drop_members":
        del doc["payload"]["members"]
    elif edit == "empty_members":
        doc["payload"]["members"] = []
    else:
        del doc["payload"]["settings"]
    body = {k: v for k, v in doc.items() if k != "checksum"}
    doc["checksum"] = hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["load-model", str(model_path)]) == 2
    assert "malformed model document" in capsys.readouterr().err


def test_usage_error_on_bad_flags(capsys):
    assert main(["run"]) == 1
    assert main(["no-such-command"]) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
