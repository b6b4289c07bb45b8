"""End-to-end command-line surface on a small synthetic series."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mixcast import cli, gradcheck, metrics as M, mixer
from mixcast.slstm import BlockConfig


TRAIN_ARGS = ["--dataset", "generic", "--lookback", "16", "--horizon", "8",
              "--embed-dim", "8", "--blocks", "1", "--heads", "2",
              "--conv-width", "0", "--dropout", "0.1", "--batch", "32",
              "--lr", "0.003", "--warmup", "5", "--epochs", "2",
              "--patience", "10", "--seed", "2021"]


def run_train(tiny_csv, out_dir, extra=()):
    args = ["train", "--data", str(tiny_csv), "--out", str(out_dir)]
    args += TRAIN_ARGS + list(extra)
    return cli.main(args)


def test_train_writes_artifacts(tiny_csv, tmp_path):
    out = tmp_path / "run"
    assert run_train(tiny_csv, out) == 0
    log_rows = [json.loads(l) for l in (out / "loss_log.jsonl").read_text().splitlines()]
    assert len(log_rows) == 2
    assert set(log_rows[0]) == {"epoch", "train_mae", "val_mae", "lr"}
    assert (out / "best" / "manifest.txt").exists()
    # train writes every extra key a checkpoint-reading command checks.
    assert set(mixer.load_checkpoint(out / "best")[2]) == set(cli._EXTRA_DEFAULTS)
    assert (out / "run_meta.json").exists()
    records = M.parse_report(out / "report.jsonl")
    datasets = {r["dataset"] for r in records}
    assert "tiny/val" in datasets and "tiny/test" in datasets
    for r in records:
        assert r["wall_time_s"] == 0.0  # timings live in run_meta.json


def test_train_runs_are_byte_identical(tiny_csv, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_train(tiny_csv, out1)
    run_train(tiny_csv, out2)
    assert (out1 / "report.jsonl").read_bytes() == (out2 / "report.jsonl").read_bytes()
    assert (out1 / "loss_log.jsonl").read_bytes() == (out2 / "loss_log.jsonl").read_bytes()


def test_kept_epoch_val_mae_is_the_reported_val_mae(tiny_csv, tmp_path):
    # Model selection, run_meta.json and the report score validation with
    # one MAE, so all three read the same float.
    out = tmp_path / "run"
    assert run_train(tiny_csv, out) == 0
    log_rows = [json.loads(l) for l in (out / "loss_log.jsonl").read_text().splitlines()]
    kept = min(row["val_mae"] for row in log_rows)
    best_val_mae = json.loads((out / "run_meta.json").read_text())["best_val_mae"]
    val = [r for r in M.parse_report(out / "report.jsonl") if r["dataset"] == "tiny/val"]
    assert kept == best_val_mae == val[0]["mae"]


def test_eval_reproduces_test_metrics(tiny_csv, tmp_path):
    out = tmp_path / "run"
    run_train(tiny_csv, out)
    report_path = tmp_path / "eval.jsonl"
    code = cli.main(["eval", "--checkpoint", str(out / "best"),
                     "--data", str(tiny_csv), "--dataset", "generic",
                     "--split", "test", "--report", str(report_path)])
    assert code == 0
    eval_rec = [r for r in M.parse_report(report_path) if r["seed"] != "mean"][0]
    train_rec = [r for r in M.parse_report(out / "report.jsonl")
                 if r["dataset"] == "tiny/test"][0]
    for key in ("mse", "mae", "rmse", "mape"):
        assert eval_rec[key] == train_rec[key]


def test_forecast_emits_columns(tiny_csv, tmp_path):
    out = tmp_path / "run"
    run_train(tiny_csv, out)
    emit = tmp_path / "window.csv"
    code = cli.main(["forecast", "--checkpoint", str(out / "best"),
                     "--data", str(tiny_csv), "--window-index", "3",
                     "--emit", str(emit)])
    assert code == 0
    lines = emit.read_text().splitlines()
    assert lines[0] == "t,variate,x,y,yhat"
    assert len(lines) == 1 + 3 * (16 + 8)


def test_decode_token_emits_series(tiny_csv, tmp_path):
    out = tmp_path / "run"
    run_train(tiny_csv, out)
    emit = tmp_path / "token.csv"
    code = cli.main(["decode-token", "--checkpoint", str(out / "best"),
                     "--emit", str(emit)])
    assert code == 0
    lines = emit.read_text().splitlines()
    assert lines[0] == "step,decoded_token"
    assert len(lines) == 1 + 8  # horizon rows


def test_ablation_subcommand_records_config_id(tiny_csv, tmp_path):
    out = tmp_path / "run6"
    args = ["ablation", "--id", "6", "--data", str(tiny_csv), "--out", str(out)]
    args += TRAIN_ARGS
    assert cli.main(args) == 0
    records = M.parse_report(out / "report.jsonl")
    assert all(r["config_id"] == "6" for r in records)
    _, cfg, extra = mixer.load_checkpoint(out / "best")
    assert cfg.slstm_axis == mixer.AXIS_NONE
    assert not cfg.init_token
    assert extra["config_id"] == "6"


def test_config_file_with_flag_precedence(tiny_csv, tmp_path):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text("# tiny run\nlookback=12\nepochs=1\nembed-dim=8\n"
                        "heads=2\nhorizon=8\ndropout=0.0\n")
    out = tmp_path / "run"
    code = cli.main(["train", "--data", str(tiny_csv), "--out", str(out),
                     "--config", str(cfg_file),
                     "--lookback", "16", "--batch", "32", "--seed", "7",
                     "--lr", "0.003", "--warmup", "2", "--patience", "5",
                     "--blocks", "1", "--conv-width", "0", "--epochs", "1"])
    assert code == 0
    _, cfg, _ = mixer.load_checkpoint(out / "best")
    assert cfg.lookback == 16   # flag beats the file
    assert cfg.horizon == 8     # file value applied
    assert cfg.block.dropout_rate == 0.0
    log_rows = (out / "loss_log.jsonl").read_text().splitlines()
    assert len(log_rows) == 1   # epochs from the explicit flag


def test_abbreviated_flag_beats_config_file(tiny_csv, tmp_path):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text("embed-dim=8\n")
    args = list(TRAIN_ARGS)
    del args[args.index("--embed-dim"):args.index("--embed-dim") + 2]
    out = tmp_path / "run"
    code = cli.main(["train", "--data", str(tiny_csv), "--out", str(out),
                     "--config", str(cfg_file)] + args + ["--embed", "16"])
    assert code == 0
    _, cfg, _ = mixer.load_checkpoint(out / "best")
    assert cfg.embed_dim == 16


def test_config_file_values_obey_choices(tiny_csv, tmp_path):
    cfg_file = tmp_path / "bad.conf"
    cfg_file.write_text("conv-width=3\n")
    with pytest.raises(SystemExit):
        cli.main(["train", "--data", str(tiny_csv), "--out", str(tmp_path / "o"),
                  "--config", str(cfg_file)])


def test_config_file_rejects_unknown_keys(tiny_csv, tmp_path):
    cfg_file = tmp_path / "bad.conf"
    cfg_file.write_text("no-such-flag=3\n")
    with pytest.raises(SystemExit):
        cli.main(["train", "--data", str(tiny_csv), "--out", str(tmp_path / "o"),
                  "--config", str(cfg_file)])


@pytest.mark.parametrize("content,message", [
    (None, "No such file or directory"),
    (b"embed-dim=8\nheads=\xff2\n", "run.conf: not UTF-8 text"),
    (b"# widths\nembed-dim 16\n", "run.conf:2: expected key=value, got 'embed-dim 16'"),
], ids=["missing", "not-utf8", "no-equals"])
def test_config_file_errors_are_reported(content, message, tiny_csv, tmp_path, capsys):
    cfg_file = tmp_path / "run.conf"
    if content is not None:
        cfg_file.write_bytes(content)
    assert cli.main(["train", "--data", str(tiny_csv), "--out", str(tmp_path / "o"),
                     "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and str(cfg_file) in err
    assert not (tmp_path / "o").exists()


def test_gradcheck_tiny_exits_zero(capsys):
    assert cli.main(["gradcheck", "--tiny"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # The tiny model's 24 parameter tensors plus 8 whole-model directions.
    assert "directions checked: 32\n" in out
    # The directional check is the only gate: no per-entry lines.
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "parameters checked", "directions checked", "max directional error", "runtime", "PASS"]
    error = float(out.split("max directional error: ")[1].split()[0])
    assert 0.0 < error < gradcheck.DIRECTIONAL_TOL


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def run_cli_process(args):
    """The CLI in a fresh process, with Python's default warning filters, so
    that every warning it shows reaches its stderr."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONWARNINGS": "default", "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, "-m", "mixcast.cli", *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_diverged_training_is_reported(tiny_csv, tmp_path):
    # Adam steps at a learning rate of 1e30 blow the weights up, and a later
    # forward stops on a non-finite gate pre-activation, named with the step
    # it failed in.  The overflows numpy warns of on the way are not shown:
    # stderr holds the error line alone.
    done = run_cli_process(["train", "--data", str(tiny_csv), "--out", str(tmp_path / "run")]
                           + TRAIN_ARGS + ["--lr", "1e30"])
    assert done.returncode == 2
    err = done.stderr
    assert err.startswith("error: non-finite ")
    assert " at epoch 0, batch " in err and ", learning rate " in err
    assert err.count("\n") == 1 and err.endswith("\n"), err


def test_a_failing_command_drops_its_warnings_and_a_succeeding_one_shows_them(
        monkeypatch, capsys):
    def gradcheck_that_warns(fail):
        def run(args):
            warnings.warn("overflow encountered", RuntimeWarning)
            if fail:
                raise FloatingPointError("diverged")
            return 0
        return run

    monkeypatch.setattr(cli, "_cmd_gradcheck", gradcheck_that_warns(False))
    with pytest.warns(RuntimeWarning, match="overflow encountered"):
        assert cli.main(["gradcheck", "--tiny"]) == 0
    monkeypatch.setattr(cli, "_cmd_gradcheck", gradcheck_that_warns(True))
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert cli.main(["gradcheck", "--tiny"]) == 2
    assert not shown
    assert capsys.readouterr().err == "error: diverged\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_learning_rate_is_reported_before_any_output(tiny_csv, tmp_path, capsys,
                                                               value):
    out = tmp_path / "run"
    assert run_train(tiny_csv, out, ["--lr", value]) == 2
    assert (capsys.readouterr().err
            == f"error: lr_initial must be positive and finite, got {float(value)}\n")
    assert not out.exists()


def test_missing_data_file_is_reported(tmp_path):
    code = cli.main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")] + TRAIN_ARGS)
    assert code == 2


@pytest.mark.parametrize("flag, value, field", [("--epochs", "0", "max_epochs"),
                                               ("--epochs", "-1", "max_epochs"),
                                               ("--warmup", "-5", "warmup_steps"),
                                               ("--patience", "-1", "patience")])
def test_invalid_train_config_is_reported_before_any_output(tiny_csv, tmp_path, capsys,
                                                            flag, value, field):
    out = tmp_path / "run"
    assert run_train(tiny_csv, out, [flag, value]) == 2
    assert f"error: {field} must be >= " in capsys.readouterr().err
    assert not out.exists()


def test_window_index_out_of_range_is_reported(tiny_csv, tmp_path, capsys):
    out = tmp_path / "run"
    run_train(tiny_csv, out)
    code = cli.main(["forecast", "--checkpoint", str(out / "best"),
                     "--data", str(tiny_csv), "--window-index", "99999",
                     "--emit", str(tmp_path / "w.csv")])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_missing_checkpoint_is_reported(tiny_csv, tmp_path, capsys):
    code = cli.main(["eval", "--checkpoint", str(tmp_path / "nothing"),
                     "--data", str(tiny_csv), "--dataset", "generic",
                     "--split", "test", "--report", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_checkpoint_config_key_error_is_reported(tiny_csv, tmp_path, capsys):
    out = tmp_path / "run"
    run_train(tiny_csv, out)
    config = out / "best" / "config.json"
    doc = json.loads(config.read_text())
    del doc["mix_view"]
    config.write_text(json.dumps(doc))
    code = cli.main(["eval", "--checkpoint", str(out / "best"),
                     "--data", str(tiny_csv), "--report", str(tmp_path / "r.jsonl")])
    assert code == 2
    assert "error: config.json: missing keys ['mix_view']" in capsys.readouterr().err


def test_checkpoint_config_value_type_error_is_reported(tiny_csv, tmp_path, capsys):
    # A string where an int belongs would raise TypeError in the config
    # checks; a string where a bool belongs would load as truthy.
    out = tmp_path / "run"
    run_train(tiny_csv, out)
    config = out / "best" / "config.json"
    saved = json.loads(config.read_text())
    for key, value, kind in [("lookback", "24", "int"), ("mix_view", "no", "bool")]:
        config.write_text(json.dumps({**saved, key: value}))
        code = cli.main(["eval", "--checkpoint", str(out / "best"),
                         "--data", str(tiny_csv), "--report", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert (f"error: config.json: {key} must be {kind}, got {value!r}"
                in capsys.readouterr().err)


def test_etth_kind_end_to_end(tmp_path):
    # ETT-shaped series (fixed 12/4/4-month boundaries) through the CLI.
    from conftest import synthetic_series, write_series_csv

    values = synthetic_series(14400, 7, seed=23)
    csv_path = write_series_csv(tmp_path / "ett_like.csv", values)
    out = tmp_path / "run"
    code = cli.main(["train", "--data", str(csv_path), "--dataset", "etth",
                     "--lookback", "48", "--horizon", "24",
                     "--embed-dim", "16", "--blocks", "1", "--heads", "2",
                     "--conv-width", "0", "--dropout", "0.1",
                     "--batch", "64", "--lr", "0.001", "--warmup", "10",
                     "--epochs", "1", "--patience", "10", "--seed", "2021",
                     "--out", str(out)])
    assert code == 0
    records = M.parse_report(out / "report.jsonl")
    test_rec = [r for r in records if r["dataset"] == "ett_like/test"][0]
    assert test_rec["horizon"] == 24
    assert test_rec["rmse"] ** 2 == pytest.approx(test_rec["mse"], abs=1e-12)


def test_eval_reads_dataset_kind_from_checkpoint(tmp_path):
    # The val split of 14400 rows is rows 8640-11520 for etth but
    # 10080-11520 for generic, so the two kinds score differently.
    from conftest import synthetic_series, write_series_csv

    values = synthetic_series(14400, 7, seed=23)
    csv_path = write_series_csv(tmp_path / "ett_like.csv", values)
    block = BlockConfig(d_hidden=8, num_heads=2)
    cfg = mixer.MixerConfig(lookback=48, horizon=24, num_variates=7, embed_dim=8,
                            num_blocks=1, block=block)
    params = mixer.init_mixer_params(cfg, np.random.default_rng(5))
    ckpt = tmp_path / "ckpt"
    mixer.save_checkpoint(ckpt, params, extra={"dataset_kind": "etth"})

    def report(*dataset):
        path = tmp_path / f"eval{'_'.join(dataset)}.jsonl"
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(csv_path),
                         "--split", "val", "--report", str(path), *dataset])
        assert code == 0
        return path.read_bytes()

    stored = report()
    assert stored == report("--dataset", "etth")
    assert stored != report("--dataset", "generic")


def saved_tiny_model(directory, extra=None, config_id=None):
    """A fresh model for the 3-variate tiny series, saved as a checkpoint;
    given ``config_id``, of that ablation configuration."""
    block = BlockConfig(d_hidden=8, num_heads=2)
    cfg = mixer.MixerConfig(lookback=16, horizon=8, num_variates=3, embed_dim=8,
                            num_blocks=1, block=block)
    if config_id is not None:
        cfg = mixer.build_ablation_config(config_id, cfg)
    mixer.save_checkpoint(directory, mixer.init_mixer_params(cfg, np.random.default_rng(5)),
                          extra=extra)
    return directory


@pytest.mark.parametrize("extra,message", [
    ([], "config.json: extra is not a mapping, got []"),
    ({"seed": None}, "config.json: extra seed must be int, got None"),
    ({"seed": True}, "config.json: extra seed must be int, got True"),
    ({"epochs_trained": "3"}, "config.json: extra epochs_trained must be int, got '3'"),
    ({"config_id": 6}, "config.json: extra config_id must be str, got 6"),
    ({"dataset_kind": 1}, "config.json: extra dataset_kind must be str, got 1"),
    ({"dataset_name": 3}, "config.json: extra dataset_name must be str, got 3"),
], ids=["list", "null-seed", "bool-seed", "str-epochs", "int-config-id", "int-kind", "int-name"])
def test_tampered_checkpoint_extra_is_reported(tiny_csv, tmp_path, capsys, extra, message):
    ckpt = saved_tiny_model(tmp_path / "ckpt")
    config = ckpt / "config.json"
    config.write_text(json.dumps({**json.loads(config.read_text()), "extra": extra}))
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(tiny_csv),
                     "--report", str(tmp_path / "r.jsonl")])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_eval_on_a_series_of_other_width_names_both_variate_counts(tmp_path, capsys):
    from conftest import synthetic_series, write_series_csv

    csv_path = write_series_csv(tmp_path / "six.csv", synthetic_series(400, 6, seed=3))
    ckpt = saved_tiny_model(tmp_path / "ckpt")
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(csv_path),
                     "--report", str(tmp_path / "r.jsonl")])
    assert code == 2
    assert ("error: the model takes windows of 3 variates and lookback 16, "
            "got 6 variates and lookback 16") in capsys.readouterr().err


def test_eval_names_a_malformed_manifest_shape(tiny_csv, tmp_path, capsys):
    ckpt = saved_tiny_model(tmp_path / "ckpt")
    manifest = ckpt / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("eta\t1x8\t", "eta\t1x8x\t"))
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(tiny_csv),
                     "--report", str(tmp_path / "r.jsonl")])
    assert code == 2
    assert "error: malformed manifest line 'eta\\t1x8x\\tfloat32'" in capsys.readouterr().err
