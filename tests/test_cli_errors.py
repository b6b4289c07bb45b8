"""The command line's error path, one table: every case either runs, or
exits 2 with a single error line on stderr (an exception the CLI let
through would fail the test).

An error the CLI reports is the one line ``error: …``; a flag argparse
rejects is its usage text and one ``mixcast …: error: …`` line.  The cases
are checkpoint tamperings, each under ``eval``, ``forecast`` and
``decode-token``, then bad flags, data files and commands.
"""

import json
import re
import shutil

import numpy as np
import pytest

from mixcast import cli

from conftest import synthetic_series, write_series_csv
from test_cli import TRAIN_ARGS, saved_tiny_model

RUNS = "runs"


def rewrite_json(name, change):
    def tamper(ckpt):
        path = ckpt / name
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
    return tamper


def config_with(**changes):
    return rewrite_json("config.json", lambda doc: {**doc, **changes})


def block_with(**changes):
    return rewrite_json("config.json", lambda doc: {**doc, "block": {**doc["block"], **changes}})


def without_key(key):
    return rewrite_json("config.json", lambda doc: {k: v for k, v in doc.items() if k != key})


def write_file(name, content):
    def tamper(ckpt):
        path = ckpt / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    return tamper


def delete(name):
    return lambda ckpt: (ckpt / name).unlink()


def manifest(change):
    def tamper(ckpt):
        path = ckpt / "manifest.txt"
        path.write_text(change(path.read_text()))
    return tamper


def bin_values(name, change):
    def tamper(ckpt):
        path = ckpt / f"{name}.bin"
        values = np.fromfile(path, dtype="<f4")
        change(values)
        values.tofile(path)
    return tamper


def truncate(name):
    def tamper(ckpt):
        path = ckpt / f"{name}.bin"
        path.write_bytes(path.read_bytes()[:-4])
    return tamper


def replace_with_file(ckpt):
    shutil.rmtree(ckpt)
    ckpt.write_text("not a checkpoint\n")


def remove_all(ckpt):
    shutil.rmtree(ckpt)


def dense_recurrent_with_off_block_entry(ckpt):
    # The older dense [D, D] layout, with a non-zero entry outside the head
    # blocks.
    dense = np.zeros((8, 8), "<f4")
    dense[0, 7] = 1.0
    dense.tofile(ckpt / "blocks.0.cell.r_z.bin")
    manifest(lambda text: text.replace("r_z\t2x4x4", "r_z\t8x8"))(ckpt)


# (id, tamper, the error's text, or RUNS), the outcome of every command
# unless a mapping gives it by command.
TAMPERINGS = [
    ("no-config", delete("config.json"), "config.json"),
    ("config-not-json", write_file("config.json", "{lookback: 16"), "Expecting"),
    ("config-not-utf8", write_file("config.json", b"\xff\xfe{}"), "codec can't decode"),
    ("config-a-list", write_file("config.json", "[1, 2]"), "config.json is not a mapping"),
    ("config-missing-key", without_key("mix_view"), "missing keys ['mix_view']"),
    ("config-unknown-key", config_with(colour="red"), "unknown keys ['colour']"),
    ("config-str-int", config_with(lookback="16"), "lookback must be int, got '16'"),
    ("config-bool-int", config_with(num_blocks=True), "num_blocks must be int, got True"),
    ("config-float-int", config_with(horizon=8.0), "horizon must be int, got 8.0"),
    ("config-str-bool", config_with(mix_view="no"), "mix_view must be bool, got 'no'"),
    ("config-zero-lookback", config_with(lookback=0), "lookback must be positive"),
    ("config-unknown-axis", config_with(slstm_axis="depth"), "unknown slstm_axis 'depth'"),
    ("config-width-mismatch", config_with(embed_dim=16), "block width 8 must equal embed_dim"),
    ("config-other-lookback", config_with(lookback=24),
     "checkpoint shape (8, 16) != expected (8, 24) for nlinear.weight"),
    ("block-not-mapping", config_with(block=[8, 2]), "config.json block is not a mapping"),
    ("block-missing-key", config_with(block={"d_hidden": 8}), "config.json block: missing keys"),
    ("block-bad-conv", block_with(conv_width=3), "conv_width must be 0, 2, or 4, got 3"),
    ("block-bad-heads", block_with(num_heads=3), "d_hidden 8 not divisible by num_heads 3"),
    ("block-bad-dropout", block_with(dropout_rate=1.5), "dropout_rate must lie in [0,1)"),
    ("extra-a-list", config_with(extra=[]), "extra is not a mapping"),
    ("extra-bad-seed", config_with(extra={"seed": "1"}), "extra seed must be int, got '1'"),
    ("extra-bad-name", config_with(extra={"dataset_name": 3}),
     "extra dataset_name must be str, got 3"),
    ("extra-unknown-kind", config_with(extra={"dataset_kind": "weekly"}),
     "extra dataset_kind must be one of etth, ettm, generic, got 'weekly'"),
    ("no-manifest", delete("manifest.txt"), "manifest.txt"),
    ("manifest-malformed", manifest(lambda t: t.replace("eta\t1x8\t", "eta\t1x8x\t")),
     "malformed manifest line"),
    ("manifest-repeats", manifest(lambda t: t + t.splitlines()[0] + "\n"),
     "manifest lists parameter revin.gamma twice"),
    ("manifest-lacks", manifest(lambda t: "".join(
        line for line in t.splitlines(True) if not line.startswith("eta\t"))),
     "checkpoint missing parameter eta"),
    ("manifest-adds", manifest(lambda t: t + "extra.weight\t1\tfloat32\n"), "extra.weight.bin"),
    ("manifest-unsafe-name", manifest(lambda t: t.replace("\neta\t", "\n../eta\t")),
     "manifest name '../eta' is not filesystem-safe"),
    ("manifest-mixed-widths", manifest(lambda t: t.replace("eta\t1x8\tfloat32",
                                                           "eta\t1x4\tfloat64")),
     "parameter eta is float64, the entries before it float32"),
    ("manifest-reshaped", manifest(lambda t: t.replace("eta\t1x8\t", "eta\t8x1\t")),
     "checkpoint shape (8, 1) != expected (1, 8) for eta"),
    ("bin-missing", delete("view.weight.bin"), "view.weight.bin"),
    ("bin-truncated", truncate("up.weight"), "up.weight.bin holds"),
    ("bin-nan", bin_values("blocks.0.cell.w_z", lambda v: v.__setitem__(3, np.nan)),
     "blocks.0.cell.w_z.bin: parameter blocks.0.cell.w_z holds non-finite values"),
    ("bin-inf", bin_values("view.bias", lambda v: v.__setitem__(0, np.inf)),
     "holds non-finite values"),
    ("revin-gamma-zero", bin_values("revin.gamma", lambda v: v.__setitem__(0, 0.0)),
     {"eval": "revin gamma too close to zero to invert",
      "forecast": "revin gamma too close to zero to invert", "decode-token": RUNS}),
    ("dense-off-block", dense_recurrent_with_off_block_entry,
     "blocks.0.cell.r_z.bin has non-zero entries outside its head blocks"),
    ("checkpoint-a-file", replace_with_file, "checkpoint"),
    ("checkpoint-missing", remove_all, "checkpoint"),
]


def command(name, ckpt, csv, out):
    if name == "eval":
        return ["eval", "--checkpoint", str(ckpt), "--data", str(csv),
                "--report", str(out / "report.jsonl")]
    if name == "forecast":
        return ["forecast", "--checkpoint", str(ckpt), "--data", str(csv),
                "--emit", str(out / "window.csv")]
    return ["decode-token", "--checkpoint", str(ckpt), "--emit", str(out / "token.csv")]


def run(argv, capsys):
    """(exit code, stderr lines) of one in-process CLI run."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    return code, capsys.readouterr().err.splitlines()


def assert_outcome(code, err, expected, argv):
    where = " ".join(argv)
    if expected == RUNS:
        assert code == 0, f"{where}: {err}"
        return
    assert code == 2, f"{where}: exit {code}, {err}"
    if expected.startswith("usage:"):
        # argparse: its usage text, then a single `mixcast ...: error:` line.
        assert err[0].startswith("usage: mixcast"), where
        errors = [line for line in err if re.match(r"mixcast[\w -]*: error: ", line)]
        assert len(errors) == 1 and errors[0] == err[-1], f"{where}: {err}"
        assert expected.removeprefix("usage:") in err[-1], f"{where}: {err}"
        return
    assert len(err) == 1 and err[0].startswith("error: "), f"{where}: {err}"
    assert expected in err[0], f"{where}: {err}"


@pytest.mark.parametrize("name", ["eval", "forecast", "decode-token"])
@pytest.mark.parametrize("case, tamper, expected", TAMPERINGS,
                         ids=[case for case, _, _ in TAMPERINGS])
def test_a_tampered_checkpoint_is_reported(case, tamper, expected, name, tiny_csv, tmp_path,
                                           capsys):
    ckpt = saved_tiny_model(tmp_path / "ckpt", extra={"dataset_kind": "generic"})
    tamper(ckpt)
    if isinstance(expected, dict):
        expected = expected[name]
    argv = command(name, ckpt, tiny_csv, tmp_path)
    assert_outcome(*run(argv, capsys), expected, argv)


def csv_bytes(content):
    def make(tmp):
        (tmp / "data.csv").write_bytes(content)
        return tmp / "data.csv"
    return make


def csv_text(text):
    return csv_bytes(text.encode())


def short_series(tmp):
    return write_series_csv(tmp / "short.csv", synthetic_series(30, 3, seed=1))


def wide_series(tmp):
    return write_series_csv(tmp / "wide.csv", synthetic_series(400, 6, seed=1))


def with_cell(row, column, value):
    def make(tmp):
        path = write_series_csv(tmp / "data.csv", synthetic_series(400, 3, seed=1))
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return path
    return make


def constant_variate(tmp):
    values = synthetic_series(400, 3, seed=1)
    values[:, 1] = 2.0
    return write_series_csv(tmp / "flat.csv", values)


def unsorted_timestamps(tmp):
    path = write_series_csv(tmp / "data.csv", synthetic_series(400, 3, seed=1))
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    return path


# (id, data file maker or None for the tiny series, argv after the data
# path is bound, expected outcome).  "{csv}", "{out}" and "{ckpt}" stand for
# the data file, an output directory and a saved tiny model.
TRAIN = ["train", "--data", "{csv}", "--out", "{out}"] + TRAIN_ARGS
EVAL = ["eval", "--checkpoint", "{ckpt}", "--data", "{csv}", "--report", "{out}/r.jsonl"]
FORECAST = ["forecast", "--checkpoint", "{ckpt}", "--data", "{csv}", "--emit", "{out}/w.csv"]
COMMANDS = [
    ("no-command", None, [], "usage:the following arguments are required: command"),
    ("unknown-command", None, ["predict"], "usage:invalid choice: 'predict'"),
    ("train-without-data", None, ["train", "--out", "{out}"],
     "usage:the following arguments are required: --data"),
    ("train-bad-float", None, TRAIN + ["--lr", "fast"], "usage:invalid float value: 'fast'"),
    ("train-bad-int", None, TRAIN + ["--epochs", "two"], "usage:invalid int value: 'two'"),
    ("train-bad-conv", None, TRAIN + ["--conv-width", "3"], "usage:invalid choice: 3"),
    ("train-bad-kind", None, TRAIN + ["--dataset", "traffic"], "usage:invalid choice: 'traffic'"),
    ("train-unknown-flag", None, TRAIN + ["--colour", "red"],
     "usage:unrecognized arguments: --colour red"),
    ("train-zero-epochs", None, TRAIN + ["--epochs", "0"], "max_epochs must be >= 1, got 0"),
    ("train-zero-batch", None, TRAIN + ["--batch", "0"], "batch_size must be >= 1"),
    ("train-negative-lr", None, TRAIN + ["--lr", "-1"], "lr_initial must be positive"),
    ("train-nan-lr", None, TRAIN + ["--lr", "nan"], "lr_initial must be positive"),
    ("train-bad-heads", None, TRAIN + ["--heads", "3"], "not divisible by num_heads 3"),
    ("train-bad-dropout", None, TRAIN + ["--dropout", "1"], "dropout_rate must lie in [0,1)"),
    ("train-zero-lookback", None, TRAIN + ["--lookback", "0"], "lookback"),
    ("train-zero-width", None, TRAIN + ["--embed-dim", "0"], "must be positive"),
    ("train-zero-blocks", None, TRAIN + ["--blocks", "0"], "num_blocks must be positive"),
    ("train-horizon-too-long", None, TRAIN + ["--horizon", "400"], "error"),
    ("train-missing-config", None, TRAIN + ["--config", "{out}/none.cfg"], "none.cfg"),
    ("ablation-bad-id", None, ["ablation", "--id", "11", "--data", "{csv}", "--out", "{out}"],
     "usage:invalid choice: 11"),
    ("eval-without-report", None, EVAL[:-2], "usage:the following arguments are required: "
                                             "--report"),
    ("eval-bad-split", None, EVAL + ["--split", "holdout"], "usage:invalid choice: 'holdout'"),
    ("forecast-bad-index", None, FORECAST + ["--window-index", "first"],
     "usage:invalid int value: 'first'"),
    ("forecast-index-out-of-range", None, FORECAST + ["--window-index", "99999"],
     "window 99999 out of range"),
    ("gradcheck-without-tiny", None, ["gradcheck"],
     "usage:the following arguments are required: --tiny"),
    ("decode-without-emit", None, ["decode-token", "--checkpoint", "{ckpt}"],
     "usage:the following arguments are required: --emit"),
    ("data-missing", lambda tmp: tmp / "none.csv", TRAIN, "no such file"),
    ("data-a-directory", lambda tmp: tmp, TRAIN, "error"),
    ("data-empty", csv_text(""), TRAIN, "empty file"),
    ("data-header-only", csv_text("date,a,b\n"), TRAIN, "no data rows"),
    ("data-no-variate", csv_text("date\n2020-01-01\n"), TRAIN,
     "need a timestamp column plus at least one variate"),
    ("data-not-utf8", csv_bytes(b"date,a\n\xff\xfe,1\n"), TRAIN, "not UTF-8 text"),
    ("data-ragged", with_cell(5, 3, "1.0,2.0"), TRAIN, "row"),
    ("data-blank-cell", with_cell(5, 2, ""), TRAIN, "blank cell"),
    ("data-text-cell", with_cell(5, 2, "high"), TRAIN, "high"),
    ("data-nan-cell", with_cell(5, 2, "nan"), TRAIN, "non-finite cell nan"),
    ("data-unsorted", unsorted_timestamps, TRAIN, "timestamps are not in chronological order"),
    ("data-too-short", short_series, TRAIN, "error"),
    ("data-flat-variate", constant_variate, TRAIN, "zero train variance"),
    ("eval-other-width", wide_series, EVAL, "the model takes windows of 3 variates"),
    ("eval-runs", None, EVAL, RUNS),
    ("forecast-runs", None, FORECAST, RUNS),
    ("decode-runs", None, ["decode-token", "--checkpoint", "{ckpt}", "--emit", "{out}/t.csv"],
     RUNS),
    ("forecast-into-missing-directory", None, FORECAST[:-1] + ["{out}/none/w.csv"], RUNS),
    ("decode-into-missing-directory", None,
     ["decode-token", "--checkpoint", "{ckpt}", "--emit", "{out}/none/t.csv"], RUNS),
]


@pytest.mark.parametrize("case, data, args, expected", COMMANDS,
                         ids=[case for case, *_ in COMMANDS])
def test_a_bad_flag_data_file_or_command_is_reported(case, data, args, expected, tiny_csv,
                                                     tmp_path, capsys):
    csv = tiny_csv if data is None else data(tmp_path)
    ckpt = saved_tiny_model(tmp_path / "ckpt")
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.format(csv=csv, out=out, ckpt=ckpt) for a in args]
    assert_outcome(*run(argv, capsys), expected, argv)


def test_decoding_the_token_of_a_time_axis_model_is_reported(tmp_path, capsys):
    # Ablation 2 learns an initial token, but its tokens are forecast steps.
    ckpt = saved_tiny_model(tmp_path / "ckpt", config_id=2)
    argv = command("decode-token", ckpt, None, tmp_path)
    assert_outcome(*run(argv, capsys),
                   "token decoding is defined for variate-order models", argv)
    assert not (tmp_path / "token.csv").exists()
