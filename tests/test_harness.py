import csv
import json
import struct
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtmd import metrics as mx
from mtmd.checkpoint import FORMAT_VERSION, Checkpoint, load_checkpoint, save_checkpoint
from mtmd.cli import main
from mtmd.config import check_config
from mtmd.data import ConceptGraph, FeaturePanel, SyntheticSpec, generate_synthetic
from mtmd.errors import DataError, NumericError, UsageError
from mtmd.harness import (ENCODE_BLOCK_ROWS, TrainConfig, eval_traces, evaluate,
                          export_embeddings, fraction_boundaries, run_ablation, split_slices,
                          state_from_checkpoint, train)
from mtmd.model import ModelConfig, forward, init_banks, init_parameters


@pytest.fixture(scope="module")
def market():
    spec = SyntheticSpec(n_stocks=6, n_concepts=3, n_dates=80, seed=5)
    panel, graph, _ = generate_synthetic(spec)
    return panel, graph


@pytest.fixture(scope="module")
def small_config(market):
    panel, _ = market
    train_end, valid_end = fraction_boundaries(panel)
    return TrainConfig(
        model=ModelConfig(embed_width=6, memory_items=3),
        learning_rate=0.02, epochs=3, patience=5, seed=1,
        train_end=train_end, valid_end=valid_end,
    )


@pytest.fixture(scope="module")
def trained(market, small_config):
    panel, graph = market
    return train(small_config, panel=panel, graph=graph)


class TestSplits:
    def test_partition_is_exact(self, market, small_config):
        panel, _ = market
        tr, va, te = split_slices(panel, small_config.train_end, small_config.valid_end)
        assert len(tr) + len(va) + len(te) == len(panel.usable_slices)
        assert all(s.date <= small_config.train_end for s in tr)
        assert all(small_config.train_end < s.date <= small_config.valid_end for s in va)
        assert all(s.date > small_config.valid_end for s in te)
        assert tr and va and te

    def test_bad_boundaries_rejected(self):
        with pytest.raises(UsageError, match="train_end < valid_end"):
            TrainConfig(train_end="2020-02-01", valid_end="2020-01-01")

    @pytest.mark.parametrize("key", ["train_end", "valid_end"])
    @pytest.mark.parametrize("spelling", ["2018-3-5", "20180305", "2018-W10-1"])
    def test_non_canonical_boundary_rejected(self, key, spelling):
        # compared as text, train_end "2018-3-5" would put 2018-12-01 in
        # the training split
        ends = {"train_end": "2018-01-01", "valid_end": "2019-01-01", key: spelling}
        with pytest.raises(UsageError, match=rf"{key}.*YYYY-MM-DD"):
            TrainConfig(**ends)


class TestTrain:
    def test_deterministic_checkpoints(self, market, small_config, trained, tmp_path):
        panel, graph = market
        ckpt1, log1 = trained
        ckpt2, log2 = train(small_config, panel=panel, graph=graph)
        assert log1.date_order == log2.date_order
        assert [e.train_loss for e in log1.epochs] == [e.train_loss for e in log2.epochs]
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(ckpt1, str(p1))
        save_checkpoint(ckpt2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_learning_rate_freezes_params_but_not_banks(self, market, small_config):
        panel, graph = market
        from dataclasses import replace
        cfg = replace(small_config, learning_rate=1e-300, epochs=1)
        ckpt, _ = train(cfg, panel=panel, graph=graph)
        from mtmd.model import init_parameters
        from dataclasses import replace as rep
        init = init_parameters(rep(cfg.model, seed=cfg.seed))
        for name, tensor in init.named().items():
            assert np.allclose(ckpt.tensors[name], tensor.data, atol=1e-12)
        from mtmd.model import init_banks
        banks0 = init_banks(rep(cfg.model, seed=cfg.seed))
        assert not np.array_equal(ckpt.tensors["memory.predefined"],
                                  banks0["predefined"].items)

    def test_training_log_records_chronology(self, trained):
        _, log = trained
        assert log.date_order == sorted(log.date_order)
        assert log.best_epoch >= 0

    def test_empty_split_rejected(self, market, small_config):
        panel, graph = market
        from dataclasses import replace
        cfg = replace(small_config, train_end="1900-01-01", valid_end="1900-01-02")
        with pytest.raises(DataError, match="training split"):
            train(cfg, panel=panel, graph=graph)

    def test_missing_paths_rejected(self, small_config):
        with pytest.raises(UsageError, match="panel_path"):
            train(small_config)

    def test_seed_changes_init_not_splits(self, market, small_config):
        panel, graph = market
        from dataclasses import replace
        ck0, log0 = train(replace(small_config, seed=11, epochs=1), panel=panel, graph=graph)
        ck1, log1 = train(replace(small_config, seed=12, epochs=1), panel=panel, graph=graph)
        assert log0.date_order == log1.date_order
        assert not np.array_equal(ck0.tensors["encoder.l0.update_x"],
                                  ck1.tensors["encoder.l0.update_x"])

    def test_holds_one_steps_encoder_activations(self):
        # the states and gates one training step's encoder saves for its
        # backward; holding two steps' worth, as when a date's graph outlives
        # the next date's forward, reads about 2.2x
        stocks, width, steps, layers = 40, 32, 60, 2
        slots = steps + layers - 1
        saved_bytes = 8 * layers * stocks * width * ((slots + 1) + 2 * slots + 2 * slots)
        panel, graph, _ = generate_synthetic(SyntheticSpec(n_stocks=stocks, n_concepts=4,
                                                           n_dates=100, seed=2))
        train_end, valid_end = fraction_boundaries(panel)
        cfg = TrainConfig(model=ModelConfig(embed_width=width, memory_items=8),
                          learning_rate=0.01, epochs=1, seed=3,
                          train_end=train_end, valid_end=valid_end)
        tracemalloc.start()
        try:
            train(cfg, panel=panel, graph=graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * saved_bytes, peak / saved_bytes


class TestTrainingCurveSmoke:
    def test_loss_strictly_decreases_over_first_five_epochs(self):
        # reference curve at the stock defaults: 1.0095 -> 1.0020 over 5 epochs
        spec = SyntheticSpec(n_stocks=20, n_concepts=4, n_dates=300, noise_sigma=0.02, seed=7)
        panel, graph, _ = generate_synthetic(spec)
        train_end, valid_end = fraction_boundaries(panel)
        cfg = TrainConfig(model=ModelConfig(), epochs=5, patience=99, seed=0,
                          train_end=train_end, valid_end=valid_end)
        _, log = train(cfg, panel=panel, graph=graph)
        losses = [e.train_loss for e in log.epochs]
        assert len(losses) == 5
        assert all(later < earlier for earlier, later in zip(losses, losses[1:])), losses


class TestCheckpointRoundTrip:
    def test_bitwise_tensor_round_trip(self, trained, tmp_path):
        ckpt, _ = trained
        path = tmp_path / "model.bin"
        save_checkpoint(ckpt, str(path))
        loaded = load_checkpoint(str(path))
        assert set(loaded.tensors) == set(ckpt.tensors)
        for name in ckpt.tensors:
            assert np.array_equal(loaded.tensors[name], ckpt.tensors[name])
        assert loaded.config == ckpt.config
        assert loaded.metrics == ckpt.metrics

    def test_evaluation_survives_round_trip_bitwise(self, market, trained, tmp_path):
        panel, graph = market
        ckpt, _ = trained
        path = tmp_path / "model.bin"
        save_checkpoint(ckpt, str(path))
        loaded = load_checkpoint(str(path))
        rep_a = evaluate(ckpt, "test", panel=panel, graph=graph)
        rep_b = evaluate(loaded, "test", panel=panel, graph=graph)
        assert rep_a.ic_mean == rep_b.ic_mean
        assert rep_a.rank_ic_mean == rep_b.rank_ic_mean
        for a, b in zip(rep_a.daily, rep_b.daily):
            assert a.ic == b.ic and a.precision == b.precision

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(str(path))

    def test_state_reconstruction_shapes(self, trained):
        ckpt, _ = trained
        params, banks, cfg = state_from_checkpoint(ckpt)
        assert cfg.embed_width == 6
        assert banks["predefined"].items.shape == (3, 6)
        assert set(params.named()) | {"memory.predefined", "memory.hidden"} == set(ckpt.tensors)


class TestEvaluate:
    def test_repeat_evaluation_identical(self, market, trained):
        panel, graph = market
        ckpt, _ = trained
        a = evaluate(ckpt, "valid", panel=panel, graph=graph)
        b = evaluate(ckpt, "valid", panel=panel, graph=graph)
        assert a.ic_mean == b.ic_mean
        assert [d.ic for d in a.daily] == [d.ic for d in b.daily]

    def test_best_checkpoint_matches_logged_validation_ic(self, market, trained):
        panel, graph = market
        ckpt, log = trained
        rep = evaluate(ckpt, "valid", panel=panel, graph=graph)
        assert rep.ic_mean == pytest.approx(log.best_valid_ic, abs=1e-12)

    def test_unknown_split_rejected(self, trained):
        ckpt, _ = trained
        with pytest.raises(UsageError):
            evaluate(ckpt, "holdout")


class TestAblation:
    def test_four_rows_in_order(self, market, small_config):
        panel, graph = market
        from dataclasses import replace
        cfg = replace(small_config, epochs=1)
        result = run_ablation(cfg, seeds=[1], panel=panel, graph=graph)
        assert [r.code for r in result.rows] == ["B", "P", "H", "A"]
        table = result.table()
        assert "memory" in table and "reference" in table

    def test_baseline_row_matches_direct_training(self, market, small_config):
        panel, graph = market
        from dataclasses import replace
        cfg = replace(small_config, epochs=1)
        result = run_ablation(cfg, seeds=[1], panel=panel, graph=graph)
        direct_cfg = replace(cfg, model=cfg.model.with_ablation("B"), seed=1)
        ckpt, _ = train(direct_cfg, panel=panel, graph=graph)
        rep = evaluate(ckpt, "test", panel=panel, graph=graph)
        assert result.rows[0].ic_mean == pytest.approx(rep.ic_mean, abs=1e-15)


class TestExportEmbeddings:
    def test_schema_and_row_count(self, market, trained, tmp_path):
        panel, graph = market
        ckpt, _ = trained
        out = tmp_path / "emb.csv"
        rows = export_embeddings(ckpt, "valid", str(out), panel=panel, graph=graph)
        _, va, _ = split_slices(panel, "", "9999-12-31")
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["date", "stock_id", "stage"]
        assert len(header) == 3 + 6  # embed_width columns
        n_valid = sum(1 for s in panel.usable_slices
                      if ckpt.config["train"]["train_end"] < s.date <= ckpt.config["train"]["valid_end"])
        assert rows == n_valid * 6 * 4
        assert len(lines) == 1 + rows
        stages = {line.split(",")[2] for line in lines[1:]}
        assert stages == {"h1", "q1", "q2", "hhat3"}

    def test_stock_ids_needing_quotes_read_back(self, market, small_config, tmp_path):
        panel, graph = market
        rename = {sid: f'S,{sid[1:]} "{i}"' + ("\n" if i % 2 else "")
                  for i, sid in enumerate(panel.slices[0].stock_ids)}
        panel = FeaturePanel([replace(s, stock_ids=[rename[sid] for sid in s.stock_ids])
                              for s in panel.slices])
        graph = ConceptGraph(graph.concept_ids,
                             static_links={(rename[sid], c) for sid, c in graph.static_links})
        ckpt, _ = train(replace(small_config, epochs=1), panel=panel, graph=graph)
        out = tmp_path / "emb.csv"
        rows = export_embeddings(ckpt, "test", str(out), panel=panel, graph=graph)
        with open(out, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
        assert len(records) == 1 + rows
        assert {len(r) for r in records} == {3 + 6}
        assert {r[1] for r in records[1:]} == set(rename.values())

    def test_reexport_byte_identical(self, market, trained, tmp_path):
        panel, graph = market
        ckpt, _ = trained
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_embeddings(ckpt, "test", str(p1), panel=panel, graph=graph)
        export_embeddings(ckpt, "test", str(p2), panel=panel, graph=graph)
        assert p1.read_bytes() == p2.read_bytes()


class TestConfigSerialization:
    def test_json_round_trip(self, small_config, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config.to_dict()), encoding="utf-8")
        loaded = TrainConfig.from_json_file(str(path))
        assert loaded == small_config

    def test_malformed_json_is_usage_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(UsageError, match="JSON"):
            TrainConfig.from_json_file(str(path))

    def test_missing_file_is_usage_error(self):
        with pytest.raises(UsageError, match="not found"):
            TrainConfig.from_json_file("/nonexistent/cfg.json")

    def test_unknown_keys_rejected(self, small_config):
        with pytest.raises(UsageError, match="learning_rte"):
            TrainConfig.from_dict({"learning_rte": 0.5})
        with pytest.raises(UsageError, match="embed_widht"):
            TrainConfig.from_dict({"model": {"embed_widht": 8}})
        assert TrainConfig.from_dict(small_config.to_dict()) == small_config

    @given(st.text(min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_any_unknown_key_rejected(self, key):
        assume(key not in {f.name for f in fields(TrainConfig)})
        with pytest.raises(UsageError):
            TrainConfig.from_dict({"epochs": 2, key: 0.5})
        assume(key not in {f.name for f in fields(ModelConfig)})
        with pytest.raises(UsageError):
            ModelConfig.from_dict({"embed_width": 4, key: 0.5})


# a value of each kind a JSON config can hold, and the declared field types
# (the parts of ``int | None`` and the like) that take each kind
JSON_VALUES = {"bool": st.booleans(), "int": st.integers(), "float": st.floats(allow_nan=False),
               "str": st.text(max_size=8), "None": st.none(),
               "list": st.lists(st.integers(), max_size=2),
               "dict": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)}
TAKES = {"bool": {"bool"}, "int": {"int"}, "float": {"float", "int"}, "str": {"str"}}


class TestConfigValueTypes:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_wrong_typed_value_names_the_key(self, data):
        cls = data.draw(st.sampled_from([TrainConfig, ModelConfig, SyntheticSpec]))
        f = data.draw(st.sampled_from([f for f in fields(cls) if f.name != "model"]))
        taken = set().union(*(TAKES.get(part, {part}) for part in f.type.split(" | ")))
        value = data.draw(st.one_of(*(v for kind, v in JSON_VALUES.items() if kind not in taken)))
        with pytest.raises(UsageError, match=f.name):
            check_config(cls, {f.name: value})

    def test_int_for_float_accepted_bool_for_int_rejected(self):
        assert TrainConfig.from_dict({"learning_rate": 1}).learning_rate == 1
        with pytest.raises(UsageError, match="learning_rate"):
            TrainConfig.from_dict({"learning_rate": "0.1"})
        with pytest.raises(UsageError, match="embed_width"):
            TrainConfig.from_dict({"model": {"embed_width": True}})

    def test_wrong_typed_checkpoint_config_is_data_error(self, trained):
        ckpt, _ = trained
        config = dict(ckpt.config, model=dict(ckpt.config["model"], embed_width="6"))
        with pytest.raises(DataError, match="embed_width"):
            state_from_checkpoint(Checkpoint(tensors=ckpt.tensors, config=config))


class TestConfigValueRanges:
    # momentum is retired: any value of it is now an unknown key, still named
    @pytest.mark.parametrize("key, value", [
        ("learning_rate", 0), ("learning_rate", -0.1), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("momentum", -0.1), ("momentum", 1),
        ("momentum", float("nan")), ("momentum", float("inf")), ("epochs", 0),
        ("epochs", -3), ("patience", -1),
    ])
    def test_out_of_range_value_names_the_key(self, key, value):
        with pytest.raises(UsageError, match=key):
            TrainConfig.from_dict({key: value})

    def test_range_ends_accepted(self):
        cfg = TrainConfig.from_dict({"learning_rate": 1e-300, "epochs": 1, "patience": 0})
        assert (cfg.learning_rate, cfg.epochs, cfg.patience) == (1e-300, 1, 0)

    def test_out_of_range_checkpoint_config_is_data_error(self, trained):
        ckpt, _ = trained
        config = dict(ckpt.config, train=dict(ckpt.config["train"], epochs=0))
        with pytest.raises(DataError, match="epochs"):
            evaluate(Checkpoint(tensors=ckpt.tensors, config=config), "test")


FIXTURES = Path(__file__).parent / "fixtures"


class TestCheckpointVersion1:
    """``fixtures/v1_width2.ckpt`` is a format-1 checkpoint saved by the code
    before format 2: trained one epoch at width 2 with two memory items on
    the ``market`` fixture (learning_rate 0.05, seed 4, the 60/20/20 split of
    ``fraction_boundaries``), next to its test-split ``evaluate`` report and
    ``export_embeddings`` file as that code wrote them."""

    def test_scores_and_exports_the_same_bytes(self, market, tmp_path):
        panel, graph = market
        assert (FIXTURES / "v1_width2.ckpt").read_bytes()[4:8] == struct.pack("<I", 1)
        ckpt = load_checkpoint(str(FIXTURES / "v1_width2.ckpt"))
        assert "reset_banks_each_epoch" not in ckpt.config["train"]
        report = tmp_path / "eval.csv"
        evaluate(ckpt, "test", panel=panel, graph=graph).to_csv(str(report))
        assert report.read_bytes() == (FIXTURES / "v1_width2_eval_test.csv").read_bytes()
        export = tmp_path / "export.csv"
        export_embeddings(ckpt, "test", str(export), panel=panel, graph=graph)
        assert export.read_bytes() == (FIXTURES / "v1_width2_export_test.csv").read_bytes()

    def test_saved_again_as_current_version(self, tmp_path):
        ckpt = load_checkpoint(str(FIXTURES / "v1_width2.ckpt"))
        path = tmp_path / "v3.ckpt"
        save_checkpoint(ckpt, str(path))
        assert path.read_bytes()[4:8] == struct.pack("<I", FORMAT_VERSION) == struct.pack("<I", 3)
        again = load_checkpoint(str(path))
        assert again.config == ckpt.config
        for name, tensor in ckpt.tensors.items():
            assert again.tensors[name].tobytes() == tensor.tobytes()

    def test_retired_key_in_current_version_is_data_error(self, market, tmp_path):
        panel, graph = market
        ckpt = load_checkpoint(str(FIXTURES / "v1_width2.ckpt"))
        ckpt.config["train"]["reset_banks_each_epoch"] = False
        path = tmp_path / "v3.ckpt"
        save_checkpoint(ckpt, str(path))
        with pytest.raises(DataError, match="reset_banks_each_epoch"):
            evaluate(load_checkpoint(str(path)), "test", panel=panel, graph=graph)

    def test_unknown_version_is_data_error(self, tmp_path):
        blob = bytearray((FIXTURES / "v1_width2.ckpt").read_bytes())
        blob[4:8] = struct.pack("<I", 4)
        path = tmp_path / "v4.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version 4"):
            load_checkpoint(str(path))


def with_config(source: Path, path: Path, edit) -> Path:
    """Write ``source`` to ``path`` with ``edit`` applied to its config and
    every other byte, the format version word included, kept."""
    blob = source.read_bytes()
    (length,) = struct.unpack("<I", blob[8:12])
    meta = json.loads(blob[12:12 + length])
    edit(meta["config"])
    text = json.dumps(meta, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + length:])
    return path


class TestCheckpointVersion2:
    """``fixtures/v2_width2.ckpt`` is a format-2 checkpoint saved by the code
    before format 3, with the recipe of the version-1 fixture.  That code
    wrote its test-split ``evaluate`` report and ``export_embeddings`` file
    byte for byte equal to the version-1 ones, so those files serve both."""

    FILE = FIXTURES / "v2_width2.ckpt"

    def test_scores_and_exports_the_same_bytes(self, market, tmp_path):
        panel, graph = market
        assert self.FILE.read_bytes()[4:8] == struct.pack("<I", 2)
        ckpt = load_checkpoint(str(self.FILE))
        assert "momentum" not in ckpt.config["train"]
        assert "leaky_slope" not in ckpt.config["model"]
        assert "leaky_slope" not in ckpt.config["train"]["model"]
        report = tmp_path / "eval.csv"
        evaluate(ckpt, "test", panel=panel, graph=graph).to_csv(str(report))
        assert report.read_bytes() == (FIXTURES / "v1_width2_eval_test.csv").read_bytes()
        export = tmp_path / "export.csv"
        export_embeddings(ckpt, "test", str(export), panel=panel, graph=graph)
        assert export.read_bytes() == (FIXTURES / "v1_width2_export_test.csv").read_bytes()

    def test_any_momentum_is_dropped(self, market, tmp_path):
        panel, graph = market
        path = with_config(self.FILE, tmp_path / "v2.ckpt",
                           lambda config: config["train"].update(momentum=0.9))
        ckpt = load_checkpoint(str(path))
        assert "momentum" not in ckpt.config["train"]
        report = tmp_path / "eval.csv"
        evaluate(ckpt, "test", panel=panel, graph=graph).to_csv(str(report))
        assert report.read_bytes() == (FIXTURES / "v1_width2_eval_test.csv").read_bytes()

    @pytest.mark.parametrize("section", ["model", "train.model"])
    def test_other_leaky_slope_is_data_error(self, tmp_path, capsys, section):
        def edit(config):
            model = config["model"] if section == "model" else config["train"]["model"]
            model["leaky_slope"] = 0.2

        path = with_config(self.FILE, tmp_path / "v2.ckpt", edit)
        with pytest.raises(DataError, match="leaky_slope 0.2"):
            load_checkpoint(str(path))
        assert main(["eval", "--checkpoint", str(path)]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [("train", "momentum", 0.0),
                                                     ("model", "leaky_slope", 0.01)])
    def test_retired_key_in_current_version_is_data_error(self, market, tmp_path,
                                                          section, key, value):
        panel, graph = market
        ckpt = load_checkpoint(str(self.FILE))
        ckpt.config[section][key] = value
        path = tmp_path / "v3.ckpt"
        save_checkpoint(ckpt, str(path))
        with pytest.raises(DataError, match=key):
            evaluate(load_checkpoint(str(path)), "test", panel=panel, graph=graph)


class TestRetiredEvalWrites:
    """``ModelConfig.eval_writes`` is retired: banks are written only in
    training.  A file of any format that sets it ``false`` loads without it
    and scores the same bytes; one that sets it ``true`` is refused."""

    @staticmethod
    def file_with(version, tmp_path, edit):
        """A checkpoint of format ``version`` made from the fixtures, its
        ``model`` and ``train.model`` config sections given ``eval_writes:
        false`` (as every format wrote them), then ``edit`` applied."""
        if version == 3:
            source = tmp_path / "v3_source.ckpt"
            save_checkpoint(load_checkpoint(str(TestCheckpointVersion2.FILE)), str(source))
        else:
            source = FIXTURES / f"v{version}_width2.ckpt"

        def edit_all(config):
            for section in (config["model"], config["train"]["model"]):
                section["eval_writes"] = False
            edit(config)

        path = with_config(source, tmp_path / f"v{version}.ckpt", edit_all)
        assert path.read_bytes()[4:8] == struct.pack("<I", version)
        return path

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_false_is_dropped(self, market, tmp_path, version):
        panel, graph = market
        ckpt = load_checkpoint(str(self.file_with(version, tmp_path, lambda config: None)))
        assert "eval_writes" not in ckpt.config["model"]
        assert "eval_writes" not in ckpt.config["train"]["model"]
        report = tmp_path / "eval.csv"
        evaluate(ckpt, "test", panel=panel, graph=graph).to_csv(str(report))
        assert report.read_bytes() == (FIXTURES / "v1_width2_eval_test.csv").read_bytes()

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("section", ["model", "train.model"])
    def test_true_is_data_error(self, tmp_path, capsys, version, section):
        def edit(config):
            model = config["model"] if section == "model" else config["train"]["model"]
            model["eval_writes"] = True

        path = self.file_with(version, tmp_path, edit)
        with pytest.raises(DataError, match="eval_writes true"):
            load_checkpoint(str(path))
        assert main(["eval", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "eval_writes true" in err


class TestRetiredConceptCapacity:
    """``ModelConfig.concept_capacity`` is retired: it only asserted a
    concept count.  A file of any format that stores it, at any value,
    loads without it and scores the same bytes."""

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("value", [None, 3, 5])
    def test_any_value_is_dropped(self, market, tmp_path, version, value):
        def edit(config):
            for section in (config["model"], config["train"]["model"]):
                section["concept_capacity"] = value

        panel, graph = market
        path = TestRetiredEvalWrites.file_with(version, tmp_path, edit)
        ckpt = load_checkpoint(str(path))
        assert "concept_capacity" not in ckpt.config["model"]
        assert "concept_capacity" not in ckpt.config["train"]["model"]
        report = tmp_path / "eval.csv"
        evaluate(ckpt, "test", panel=panel, graph=graph).to_csv(str(report))
        assert report.read_bytes() == (FIXTURES / "v1_width2_eval_test.csv").read_bytes()


def test_date_without_concept_links_is_data_error(market, small_config):
    panel, graph = market
    dropped = panel.usable_dates[1]
    links = graph.links_for(dropped)
    dated = ConceptGraph(graph.concept_ids,
                         dated_links={d: links for d in panel.dates if d != dropped})
    with pytest.raises(DataError, match=dropped):
        train(replace(small_config, epochs=1), panel=panel, graph=dated)


@pytest.fixture(scope="module")
def tiny_checkpoint(market, tmp_path_factory):
    """The saved bytes of an untrained width-2 checkpoint, and a scratch directory."""
    panel, _ = market
    train_end, valid_end = fraction_boundaries(panel)
    cfg = TrainConfig(model=ModelConfig(embed_width=2, memory_items=2),
                      train_end=train_end, valid_end=valid_end)
    tensors = {name: t.data for name, t in init_parameters(cfg.model).named().items()}
    tensors.update({f"memory.{k}": b.items for k, b in init_banks(cfg.model).items()})
    folder = tmp_path_factory.mktemp("corrupt")
    path = folder / "tiny.bin"
    save_checkpoint(Checkpoint(tensors=tensors, config={"model": cfg.model.to_dict(),
                                                        "train": cfg.to_dict()}), str(path))
    return path.read_bytes(), folder


class TestCheckpointCorruption:
    def test_truncation_at_every_offset_is_data_error(self, tiny_checkpoint):
        blob, folder = tiny_checkpoint
        path = folder / "cut.bin"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError):
                load_checkpoint(str(path))

    @given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 7)), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_bit_flips_load_or_raise_data_error(self, market, tiny_checkpoint, flips):
        panel, graph = market
        blob, folder = tiny_checkpoint
        corrupt = bytearray(blob)
        for pos, bit in flips:
            corrupt[pos % len(corrupt)] ^= 1 << bit
        path = folder / "flipped.bin"
        path.write_bytes(bytes(corrupt))
        try:
            ckpt = load_checkpoint(str(path))
        except DataError:
            return
        # what loads must score or fail through a documented error (exit 2 or 3)
        try:
            evaluate(ckpt, "test", panel=panel, graph=graph)
        except (DataError, NumericError):
            pass

    def test_missing_bank_is_data_error(self, trained):
        ckpt, _ = trained
        tensors = {k: v for k, v in ckpt.tensors.items() if k != "memory.hidden"}
        with pytest.raises(DataError, match="memory.hidden"):
            state_from_checkpoint(Checkpoint(tensors=tensors, config=ckpt.config))


@pytest.fixture(scope="module")
def wide_market():
    # 30 stocks: a test split of 16 dates has 480 rows, and the 256-row
    # encoder block boundary falls inside the ninth date
    spec = SyntheticSpec(n_stocks=30, n_concepts=3, n_dates=100, seed=8)
    panel, graph, _ = generate_synthetic(spec)
    train_end, valid_end = fraction_boundaries(panel, 0.5, 0.1)
    cfg = TrainConfig(model=ModelConfig(embed_width=5, memory_items=3), learning_rate=0.05,
                      epochs=1, patience=1, seed=2, train_end=train_end, valid_end=valid_end)
    ckpt, _ = train(cfg, panel=panel, graph=graph)
    test = split_slices(panel, train_end, valid_end)[2]
    assert len(test) * 30 > ENCODE_BLOCK_ROWS and ENCODE_BLOCK_ROWS % 30
    return panel, graph, ckpt, test


def per_date_traces(slices, graph, params, banks, config):
    """The reference: one taped forward pass per date."""
    return [forward(s, graph.mask_for(s.date, s.stock_ids), params, banks, config, mode="eval")
            for s in slices]


def stage_arrays(trace):
    return {"h1": trace.predefined.inputs.data, "q1": trace.predefined.refined.data,
            "q2": trace.hidden.refined.data, "hhat3": trace.individual.local.data,
            "predictions": trace.predictions.data}


class TestBatchedEvaluation:
    def test_metrics_match_per_date_path(self, wide_market):
        panel, graph, ckpt, test = wide_market
        params, banks, cfg = state_from_checkpoint(ckpt)
        report = evaluate(ckpt, "test", panel=panel, graph=graph)
        reference = per_date_traces(test, graph, params, banks, cfg)
        assert [d.date for d in report.daily] == [s.date for s in test]
        for day, s, ref in zip(report.daily, test, reference):
            want = mx.score_date(s.date, ref.predictions.data, s.labels, s.raw_labels)
            assert abs(day.ic - want.ic) <= 1e-12
            assert abs(day.rank_ic - want.rank_ic) <= 1e-12
            for n in mx.PRECISION_LEVELS:
                assert abs(day.precision[n] - want.precision[n]) <= 1e-12

    def test_export_cells_are_exact_floats_matching_per_date_path(self, wide_market, tmp_path):
        panel, graph, ckpt, test = wide_market
        out = tmp_path / "emb.csv"
        rows = export_embeddings(ckpt, "test", str(out), panel=panel, graph=graph)
        params, banks, cfg = state_from_checkpoint(ckpt)
        batched = {s.date: stage_arrays(t) for s, t in eval_traces(test, graph, params, banks, cfg)}
        reference = {s.date: stage_arrays(t)
                     for s, t in zip(test, per_date_traces(test, graph, params, banks, cfg))}
        index = {sid: i for i, sid in enumerate(test[0].stock_ids)}
        with open(out, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            seen = 0
            for date, stock_id, stage, *cells in reader:
                values = np.array([float(c) for c in cells])
                i = index[stock_id]
                assert values.tobytes() == batched[date][stage][i].tobytes()
                assert np.max(np.abs(values - reference[date][stage][i])) <= 1e-12
                seen += 1
        assert seen == rows == len(test) * 30 * 4
