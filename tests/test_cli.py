"""End-to-end CLI behaviour: exit codes, atomic writes, determinism."""

import csv
import json
import re
import time
import xml.etree.ElementTree as ET
from functools import partial
from pathlib import Path
from unittest import mock

import pytest

from tripcast.checks import SETTING_RULES
from tripcast.cli import MODEL_FLAGS, main
from tripcast.errors import UsageError
from tripcast import linear, persist, registry
from tripcast.registry import REGISTRY, make_model

from tests.helpers import signed

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


@pytest.mark.parametrize(
    "line",
    [
        "stops_mean = 1e7",
        "stops_std = 1e12",
        "duration_std = 1e300",
        "duration_mean = 1e300",
        "weekday_trips_mean = 1e9",
        "weekday_trips_std = 1e12",
    ],
)
def test_synth_config_past_a_ceiling_is_data_error_and_writes_nothing(tmp_path, capsys, line):
    # Unchecked, the first two ran out of memory drawing stops, the third ended
    # in an OverflowError (exit 3), the fourth wrote NaT stamps after an invalid cast (exit 0),
    # and the last two ran out of memory drawing a day's trips.
    conf = tmp_path / "big.conf"
    conf.write_text(SMALL_CONFIG + line + "\n", encoding="utf-8")
    out = tmp_path / "never.csv"
    t0 = time.perf_counter()
    assert main(["synth", "--config", str(conf), "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert re.search(r"above MAX_(STOPS|TRIP_HOURS|ROWS)", capsys.readouterr().err)
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_synth_cities_mean_past_the_city_pool_is_data_error_and_writes_nothing(tmp_path, capsys):
    # Accepted at 1e9, the generator stopped at its largest pool and drew 6.0 cities a trip.
    conf = tmp_path / "cities.conf"
    conf.write_text(SMALL_CONFIG + "cities_mean = 1e9\n", encoding="utf-8")
    out = tmp_path / "never.csv"
    assert main(["synth", "--config", str(conf), "--out", str(out)]) == 2
    assert "cities_mean 1000000000.0 is above" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "months, problem",
    [
        # Unchecked, the first three were cut back to real months and the last two
        # wrote a repeated month's trips twice under the same trip numbers (exit 0).
        ("2019-03..2019-13", "'2019-13' is not a month"),
        ("2019-03..2019-99", "'2019-99' is not a month"),
        ("2019-11..2020-00", "'2020-00' is not a month"),
        ("2019-03,2019-03,2019-04", "strictly increasing"),
        ("2019-04,2019-03", "strictly increasing"),
        # A range end is checked before the range is expanded, one month at a time.
        ("2019-03..99999999-01", "month 99999999-01 is outside 0001-01..9999-11"),
    ],
)
def test_synth_months_not_real_or_not_increasing_is_data_error_and_writes_nothing(tmp_path, capsys, months, problem):
    conf = tmp_path / "months.conf"
    conf.write_text(SMALL_CONFIG + f"months = {months}\n", encoding="utf-8")
    out = tmp_path / "never.csv"
    t0 = time.perf_counter()
    assert main(["synth", "--config", str(conf), "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert problem in err
    if "increasing" not in problem:
        assert f"{conf}:{len(SMALL_CONFIG.splitlines()) + 1}: bad value for 'months'" in err
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
    one_sweep = registry._linear("lasso (L1)", partial(linear.fit_lasso, max_iter=1), ("lam",))
    with mock.patch.dict(REGISTRY, {"la": one_sweep}):
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
    assert "lam must be a finite number >= 0, got nan" in capsys.readouterr().err
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


#: Per model flag: a model that takes it, a value its type cannot parse and a parsed value out of range.
_BAD_FLAG_VALUES = {
    "n_estimators": ("gb", "2.5", "0"),
    "learning_rate": ("gb", "fast", "3"),
    "max_depth": ("dt", "2.5", "0"),
    "lam": ("ri", "x", "-1"),
}


@pytest.mark.parametrize("name", MODEL_FLAGS)
def test_bad_model_flag_value_is_refused_and_writes_nothing(tmp_path, stops_csv, capsys, name):
    model, unparsable, out_of_range = _BAD_FLAG_VALUES[name]
    flag = "--" + name.replace("_", "-")
    out_dir = tmp_path / "run"
    args = ["run", str(stops_csv), "--scenario", "1", "--target", "delay", "--models", model, "--out", str(out_dir)]
    assert main(args + [flag, unparsable]) == 1
    assert f"argument {flag}: invalid" in capsys.readouterr().err
    assert main(args + [flag, out_of_range]) == 2
    _, words, kind = SETTING_RULES[name]
    assert f"data error: {name} must be {words}, got {kind(out_of_range)!r}" in capsys.readouterr().err
    assert not out_dir.exists()


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


def test_scale_repeated_size_is_data_error_and_writes_nothing(tmp_path, stops_csv, capsys):
    # A repeated size gave its row twice the repeat cells of the header and a median over both.
    out_dir = tmp_path / "scale"
    code = main(["scale", str(stops_csv), "--sizes", "100,100,50", "--models", "lr",
                 "--repeats", "1", "--out", str(out_dir)])
    assert code == 2
    assert "size 100 is given more than once" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


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
    doc = json.loads(model_path.read_text().splitlines()[1])  # the body: kind and payload
    if edit == "drop_members":
        del doc["payload"]["members"]
    elif edit == "empty_members":
        doc["payload"]["members"] = []
    else:
        del doc["payload"]["settings"]
    model_path.write_bytes(signed(json.dumps(doc).encode("utf-8") + b"\n"))
    capsys.readouterr()
    assert main(["load-model", str(model_path)]) == 2
    assert "malformed model document" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, problem",
    [
        # Each ended in an internal error (exit 3): RecursionError, UnicodeDecodeError and ValueError.
        (b"[" * 200_000, "nested too deeply"),
        (b'{"format": "tripcast-model", "kind": "Stra\xdfe"}', "is not UTF-8"),
        (b'{"a":' + b"7" * 5_000 + b"}", "a number it cannot read"),
    ],
    ids=["deeply nested", "latin-1", "5000 digits"],
)
def test_load_model_unreadable_document_is_data_error_and_writes_nothing(tmp_path, stops_csv, capsys, content, problem):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(content)
    preds = tmp_path / "preds.csv"
    t0 = time.perf_counter()
    assert main(["load-model", str(model_path), "--stops", str(stops_csv), "--predictions-out", str(preds)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert problem in capsys.readouterr().err
    assert not preds.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_load_model_refuses_a_file_over_the_size_bound_before_reading_it(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(b"{}")
    with mock.patch.object(persist, "MAX_DOCUMENT_BYTES", 1), mock.patch.object(Path, "open", side_effect=AssertionError):
        assert main(["load-model", str(model_path)]) == 2
    assert "has 2 bytes, over the 1" in capsys.readouterr().err


def test_synth_config_not_utf8_is_data_error_and_writes_nothing(tmp_path, capsys):
    conf = tmp_path / "latin1.conf"
    conf.write_bytes(SMALL_CONFIG.encode("utf-8") + "# Straße\n".encode("latin-1"))
    out = tmp_path / "never.csv"
    assert main(["synth", "--config", str(conf), "--out", str(out)]) == 2
    assert f"config file {conf} is not UTF-8" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "command, what",
    [
        (["load-model", "{dir}"], "model file"),
        (["synth", "--config", "{dir}", "--out", "{out}/never.csv"], "config file"),
        (["summarize", "{dir}"], "stops file"),
        (["run", "{dir}", "--scenario", "1", "--target", "delay", "--models", "lr", "--out", "{out}/run"], "stops file"),
    ],
    ids=["load-model", "synth", "summarize", "run"],
)
def test_directory_given_as_an_input_file_is_data_error_and_writes_nothing(tmp_path, capsys, command, what):
    # Each ended in an internal error (exit 3, IsADirectoryError).
    given, out = tmp_path / "given", tmp_path / "out"
    given.mkdir()
    assert main([arg.format(dir=given, out=out) for arg in command]) == 2
    captured = capsys.readouterr()
    assert f"{what} {given} is not a regular file" in captured.err
    assert not out.exists()


def test_usage_error_on_bad_flags(capsys):
    assert main(["run"]) == 1
    assert main(["no-such-command"]) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
