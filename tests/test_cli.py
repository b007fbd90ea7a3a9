import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtmd.checkpoint import load_checkpoint, save_checkpoint
from mtmd.cli import main
from mtmd.data import load_panel
from mtmd.harness import fraction_boundaries

from test_data import DATE_CORRUPTIONS, NUMBER_CORRUPTIONS, STOCK_ID_TEXT


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("market")
    spec = {"n_stocks": 5, "n_concepts": 2, "n_dates": 75, "seed": 3}
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def config_path(data_dir):
    panel, _ = load_panel(str(data_dir / "panel.csv"), str(data_dir / "concepts.csv"))
    train_end, valid_end = fraction_boundaries(panel)
    cfg = {
        "panel_path": str(data_dir / "panel.csv"),
        "concept_path": str(data_dir / "concepts.csv"),
        "learning_rate": 0.02,
        "epochs": 2,
        "patience": 5,
        "seed": 4,
        "train_end": train_end,
        "valid_end": valid_end,
        "model": {"embed_width": 6, "memory_items": 3},
    }
    path = data_dir / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def checkpoint_path(data_dir, config_path):
    ckpt = data_dir / "model.bin"
    code = main(["train", "--config", str(config_path), "--checkpoint", str(ckpt),
                 "--log", str(data_dir / "log.json")])
    assert code == 0
    return ckpt


class TestGenData:
    def test_writes_all_four_files(self, data_dir):
        for name in ("panel.csv", "concepts.csv", "membership.csv", "factors.csv"):
            assert (data_dir / name).exists(), name

    def test_sidecar_schemas(self, data_dir):
        membership = (data_dir / "membership.csv").read_text().splitlines()
        assert membership[0] == "concept_id,stock_id"
        factors = (data_dir / "factors.csv").read_text().splitlines()
        assert factors[0] == "date,concept_id,value"

    def test_bad_spec_key_is_usage_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_stocks": 3, "bogus": 1}), encoding="utf-8")
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("spec", [5, {"n_stocks": "20"}])
    def test_malformed_spec_is_usage_error(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["gen-data", "--spec", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("key, value", [("seed", -1), ("noise_sigma", float("nan")),
                                            ("noise_sigma", -1), ("n_stocks", 0),
                                            ("membership_density", 1.5)])
    def test_out_of_range_spec_value_is_usage_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_dates": 70, key: value}), encoding="utf-8")
        assert main(["gen-data", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_spec_is_usage_error(self, tmp_path):
        assert main(["gen-data", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1


class TestTrainEval:
    def test_train_writes_checkpoint_and_log(self, data_dir, checkpoint_path):
        assert checkpoint_path.exists()
        log = json.loads((data_dir / "log.json").read_text())
        assert log["epochs"] and "best_epoch" in log

    def test_eval_prints_table_and_writes_csv(self, data_dir, checkpoint_path, capsys):
        out_csv = data_dir / "report.csv"
        code = main(["eval", "--checkpoint", str(checkpoint_path), "--split", "test",
                     "--out", str(out_csv)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "IC" in captured
        assert out_csv.read_text().startswith("date,ic,rank_ic,p3,p5,p10,p30")

    def test_eval_missing_checkpoint_is_data_error(self, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "none.bin")]) == 2

    def test_eval_truncated_checkpoint_is_data_error(self, checkpoint_path, tmp_path, capsys):
        cut = tmp_path / "cut.bin"
        cut.write_bytes(checkpoint_path.read_bytes()[:100])
        assert main(["eval", "--checkpoint", str(cut)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, config_path, tmp_path, capsys):
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg["learning_rte"] = 0.5
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["train", "--config", str(bad), "--checkpoint", str(tmp_path / "x.bin")]) == 1
        assert "learning_rte" in capsys.readouterr().err

    def test_wrong_typed_config_value_is_usage_error(self, config_path, tmp_path, capsys):
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg["model"]["embed_width"] = "16"
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["train", "--config", str(bad), "--checkpoint", str(tmp_path / "x.bin")]) == 1
        assert "embed_width" in capsys.readouterr().err

    # momentum is retired, so 1.0 is now an unknown key: still exit 1
    @pytest.mark.parametrize("key, value", [("epochs", 0), ("learning_rate", float("inf")),
                                            ("learning_rate", 0.0), ("momentum", 1.0),
                                            ("seed", -1)])
    def test_out_of_range_config_value_is_usage_error(self, config_path, tmp_path, capsys,
                                                      key, value):
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg[key] = value
        bad = tmp_path / "range.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        ckpt = tmp_path / "x.bin"
        assert main(["train", "--config", str(bad), "--checkpoint", str(ckpt)]) == 1
        assert key in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("key, value", [("embed_width", 0), ("memory_items", 0),
                                            ("leaky_slope", float("nan")),  # retired: unknown
                                            ("concept_capacity", 0)])
    def test_out_of_range_model_value_is_usage_error(self, config_path, tmp_path, capsys,
                                                     key, value):
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg["model"][key] = value
        bad = tmp_path / "range.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        ckpt = tmp_path / "x.bin"
        assert main(["train", "--config", str(bad), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and key in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("ends", ["equal", "swapped"])
    def test_split_boundaries_out_of_order_are_usage_error(self, config_path, tmp_path, capsys,
                                                           ends):
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        if ends == "equal":
            cfg["valid_end"] = cfg["train_end"]
        else:
            cfg["train_end"], cfg["valid_end"] = cfg["valid_end"], cfg["train_end"]
        bad = tmp_path / "splits.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["train", "--config", str(bad), "--checkpoint", str(tmp_path / "x.bin")]) == 1
        assert "train_end < valid_end" in capsys.readouterr().err

    def test_non_canonical_split_boundary_is_usage_error(self, config_path, tmp_path, capsys):
        # YYYYMMDD keeps the two boundaries in order as text, but not
        # against the panel's YYYY-MM-DD dates
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg["train_end"], cfg["valid_end"] = (cfg[k].replace("-", "") for k in ("train_end", "valid_end"))
        bad = tmp_path / "splits.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        ckpt = tmp_path / "x.bin"
        assert main(["train", "--config", str(bad), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "train_end" in err
        assert not ckpt.exists()

    def test_eval_non_canonical_checkpoint_boundary_is_data_error(self, checkpoint_path,
                                                                  tmp_path, capsys):
        ckpt = load_checkpoint(str(checkpoint_path))
        for key in ("train_end", "valid_end"):
            ckpt.config["train"][key] = ckpt.config["train"][key].replace("-", "")
        bad = tmp_path / "ends.bin"
        save_checkpoint(ckpt, str(bad))
        assert main(["eval", "--checkpoint", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "train_end" in err and "YYYY-MM-DD" in err

    def test_negative_seed_flag_is_usage_error(self, config_path, tmp_path, capsys):
        ckpt = tmp_path / "x.bin"
        assert main(["train", "--config", str(config_path), "--seed", "-3",
                     "--checkpoint", str(ckpt)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("section", ["model", "train"])
    def test_eval_negative_checkpoint_seed_is_data_error(self, checkpoint_path, tmp_path, capsys,
                                                         section):
        ckpt = load_checkpoint(str(checkpoint_path))
        ckpt.config[section]["seed"] = -1
        bad = tmp_path / "seed.bin"
        save_checkpoint(ckpt, str(bad))
        assert main(["eval", "--checkpoint", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "seed" in err

    def test_concept_file_without_links_is_data_error(self, config_path, tmp_path, capsys):
        concepts = tmp_path / "concepts.csv"
        concepts.write_text("concept_id,stock_id\n", encoding="utf-8")
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg["concept_path"] = str(concepts)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["train", "--config", str(path), "--checkpoint", str(tmp_path / "x.bin")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and f"{concepts}:1" in err and "no stock-concept links" in err

    @pytest.mark.parametrize("column, name", [(2, "market cap"), (3, "price")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_cap_or_price_is_data_error(self, data_dir, config_path, tmp_path, capsys,
                                                   column, name, value):
        lines = (data_dir / "panel.csv").read_text(encoding="utf-8").splitlines()
        row = lines[6].split(",")
        row[column] = value
        lines[6] = ",".join(row)
        panel = tmp_path / "panel.csv"
        panel.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg["panel_path"] = str(panel)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["train", "--config", str(path), "--checkpoint", str(tmp_path / "x.bin")]) == 2
        err = capsys.readouterr().err
        assert f"panel.csv:7: {name}" in err and value in err

    def test_seed_override_changes_checkpoint(self, data_dir, config_path, checkpoint_path):
        other = data_dir / "model_seed9.bin"
        assert main(["train", "--config", str(config_path), "--seed", "9",
                     "--checkpoint", str(other)]) == 0
        assert other.read_bytes() != checkpoint_path.read_bytes()


def _train_with(config_path, tmp_path, model=None, **changes):
    """Exit code of ``mtmd train`` on the test config with ``changes`` applied."""
    cfg = json.loads(config_path.read_text(encoding="utf-8"))
    cfg.update(changes)
    cfg["model"].update(model or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return main(["train", "--config", str(path), "--checkpoint", str(tmp_path / "x.bin")])


class TestFileBoundary:
    def test_config_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and str(tmp_path) in err

    @pytest.mark.parametrize("key", ["panel_path", "concept_path"])
    def test_data_path_naming_a_directory_is_data_error(self, config_path, tmp_path, capsys, key):
        assert _train_with(config_path, tmp_path, **{key: str(tmp_path)}) == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(tmp_path) in err

    def test_eval_checkpoint_directory_is_data_error(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(tmp_path) in err

    @pytest.mark.parametrize("key, name", [("panel_path", "panel.csv"),
                                           ("concept_path", "concepts.csv")])
    def test_non_utf8_byte_is_data_error(self, data_dir, config_path, tmp_path, capsys, key, name):
        blob = bytearray((data_dir / name).read_bytes())
        blob[-4] = 0xFF
        bad = tmp_path / name
        bad.write_bytes(bytes(blob))
        assert _train_with(config_path, tmp_path, **{key: str(bad)}) == 2
        err = capsys.readouterr().err
        assert "data error" in err and f"{bad} is not a well-formed UTF-8 CSV file" in err

    def test_overflowing_label_variance_is_data_error(self, data_dir, config_path, tmp_path,
                                                      capsys):
        # the first row's tiny price gives a finite change rate of about
        # 1e308 whose date's variance overflows
        with open(data_dir / "panel.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[1][3] = "1e-306"
        bad = tmp_path / "panel.csv"
        with open(bad, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        assert _train_with(config_path, tmp_path, panel_path=str(bad)) == 2
        err = capsys.readouterr().err
        assert "data error" in err and f"change rates from {rows[1][0]} to " in err

    def test_unterminated_quote_is_data_error(self, data_dir, config_path, tmp_path, capsys):
        # the quoted field runs to the end of the file, past csv's field size limit
        header, rest = (data_dir / "panel.csv").read_text(encoding="utf-8").split("\n", 1)
        bad = tmp_path / "panel.csv"
        bad.write_text(f'{header}\n"{rest}', encoding="utf-8")
        assert _train_with(config_path, tmp_path, panel_path=str(bad)) == 2
        err = capsys.readouterr().err
        assert "data error" in err and f"{bad} is not a well-formed UTF-8 CSV file" in err

    @pytest.mark.parametrize("command", ["train", "eval", "export-embeddings"])
    def test_output_path_naming_a_directory_is_data_error(self, config_path, checkpoint_path,
                                                          tmp_path, capsys, command):
        args = {"train": ["--config", str(config_path), "--checkpoint", str(tmp_path)],
                "eval": ["--checkpoint", str(checkpoint_path), "--out", str(tmp_path)],
                "export-embeddings": ["--checkpoint", str(checkpoint_path),
                                      "--out", str(tmp_path)]}[command]
        assert main([command, *args]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(tmp_path) in err

    @pytest.mark.parametrize("command", ["ablate", "eval"])
    def test_report_path_checked_before_the_work(self, config_path, checkpoint_path, tmp_path,
                                                 capsys, command):
        args = {"ablate": ["--config", str(config_path), "--seeds", "4"],
                "eval": ["--checkpoint", str(checkpoint_path)]}[command]
        assert main([command, *args, "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert "data error" in err and str(tmp_path) in err
        assert out == ""  # no "[B seed=" progress line, no summary table

    @pytest.mark.parametrize("flag", ["--checkpoint", "--log"])
    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_train_output_path_checked_before_training(self, config_path, tmp_path, capsys,
                                                       flag, where):
        bad = str(tmp_path if where == "directory" else tmp_path / "missing" / "out")
        ckpt = tmp_path / "x.bin"
        args = {"--checkpoint": ["--checkpoint", bad],
                "--log": ["--checkpoint", str(ckpt), "--log", bad]}[flag]
        assert main(["train", "--config", str(config_path), *args]) == 2
        out, err = capsys.readouterr()
        assert "data error" in err and bad in err
        assert "epoch" not in out
        assert not ckpt.exists()

    def test_failed_training_leaves_outputs_untouched(self, config_path, tmp_path, capsys):
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg["model"]["concept_capacity"] = 3  # forward fails on the first training date
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        ckpt = tmp_path / "x.bin"
        ckpt.write_bytes(b"an earlier checkpoint")
        assert main(["train", "--config", str(path), "--checkpoint", str(ckpt),
                     "--log", str(tmp_path / "log.json")]) == 2
        assert ckpt.read_bytes() == b"an earlier checkpoint"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "x.bin"]

    def test_concept_capacity_mismatch_is_data_error(self, config_path, tmp_path, capsys):
        assert _train_with(config_path, tmp_path, model={"concept_capacity": 3}) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "has 2 concepts, config expects 3" in err


class TestAblate:
    def test_four_row_table_and_csv(self, data_dir, config_path, capsys):
        out_csv = data_dir / "ablation.csv"
        code = main(["ablate", "--config", str(config_path), "--seeds", "4",
                     "--out", str(out_csv)])
        assert code == 0
        printed = capsys.readouterr().out
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "memory,ic_mean,ic_std,rank_ic_mean,rank_ic_std,p3,p5,p10,p30"
        assert [line.split(",")[0] for line in lines[1:]] == ["B", "P", "H", "A"]
        assert "reference" in printed

    def test_bad_seeds_is_usage_error(self, config_path):
        assert main(["ablate", "--config", str(config_path), "--seeds", "a,b"]) == 1


class TestExport:
    def test_export_embeddings(self, data_dir, checkpoint_path):
        out = data_dir / "emb.csv"
        assert main(["export-embeddings", "--checkpoint", str(checkpoint_path),
                     "--out", str(out), "--split", "valid"]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("date,stock_id,stage,e000")


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_is_usage_error(self):
        assert main(["eval", "--no-such-flag"]) == 1


@pytest.fixture(scope="module")
def fuzz_market(tmp_path_factory):
    """A written 8-date, 3-stock market, its panel rows and a config for it."""
    out = tmp_path_factory.mktemp("fuzz_market")
    spec = out / "spec.json"
    spec.write_text(json.dumps({"n_stocks": 3, "n_concepts": 2, "n_dates": 68, "seed": 5}),
                    encoding="utf-8")
    assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0
    panel, _ = load_panel(str(out / "panel.csv"), str(out / "concepts.csv"))
    train_end, valid_end = fraction_boundaries(panel)
    with open(out / "panel.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cfg = {"panel_path": str(out / "fuzzed.csv"), "concept_path": str(out / "concepts.csv"),
           "learning_rate": 0.05, "epochs": 1, "seed": 2, "train_end": train_end,
           "valid_end": valid_end, "model": {"embed_width": 4, "memory_items": 2}}
    (out / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    return out, rows


class TestFuzzedPanelRuns:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_train_eval_export_exit_0_or_2(self, fuzz_market, data):
        out, rows = fuzz_market
        rows = [list(r) for r in rows]
        line = data.draw(st.integers(1, len(rows) - 1), label="row")
        kind = data.draw(st.sampled_from(["drop", "duplicate", "cell"]), label="kind")
        if kind == "drop":
            del rows[line]
        elif kind == "duplicate":
            rows.insert(line, list(rows[line]))
        else:
            column = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
            text = {0: DATE_CORRUPTIONS, 1: STOCK_ID_TEXT}.get(column, NUMBER_CORRUPTIONS)
            rows[line][column] = data.draw(text, label="text")
        with open(out / "fuzzed.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        ckpt = str(out / "fuzzed.bin")
        runs = [["train", "--config", str(out / "cfg.json"), "--checkpoint", ckpt],
                ["eval", "--checkpoint", ckpt, "--split", "test"],
                ["export-embeddings", "--checkpoint", ckpt, "--split", "test",
                 "--out", str(out / "fuzzed_export.csv")]]
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 2), (argv[0], code, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code:  # nothing was trained to score
                break
