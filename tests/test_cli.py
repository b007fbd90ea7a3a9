import json

import numpy as np
import pytest

from mtmd.cli import main
from mtmd.data import load_panel
from mtmd.harness import fraction_boundaries


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

    @pytest.mark.parametrize("key, value", [("epochs", 0), ("learning_rate", float("inf")),
                                            ("learning_rate", 0.0), ("momentum", 1.0)])
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
