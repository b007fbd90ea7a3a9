import csv
import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtmd import metrics as mx
from mtmd.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from mtmd.data import ConceptGraph, SyntheticSpec, generate_synthetic
from mtmd.errors import ContractError, DataError, NumericError, UsageError
from mtmd.harness import (ENCODE_BLOCK_ROWS, TrainConfig, eval_traces, evaluate,
                          export_embeddings, fraction_boundaries, run_ablation, split_slices,
                          state_from_checkpoint, train)
from mtmd.model import ModelConfig, check_config_keys, forward, init_banks, init_parameters


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
        with pytest.raises(ContractError):
            TrainConfig(train_end="2020-02-01", valid_end="2020-01-01")


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
            check_config_keys(cls, {f.name: value})

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
        cfg = TrainConfig.from_dict({"learning_rate": 1e-300, "momentum": 0.0,
                                     "epochs": 1, "patience": 0})
        assert (cfg.learning_rate, cfg.epochs, cfg.patience) == (1e-300, 1, 0)
        assert TrainConfig.from_dict({"momentum": 0.999}).momentum == 0.999

    def test_out_of_range_checkpoint_config_is_data_error(self, trained):
        ckpt, _ = trained
        config = dict(ckpt.config, train=dict(ckpt.config["train"], epochs=0))
        with pytest.raises(DataError, match="epochs"):
            evaluate(Checkpoint(tensors=ckpt.tensors, config=config), "test")


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

    def test_eval_writes_match_per_date_path(self, wide_market):
        _, graph, ckpt, test = wide_market
        params, banks, cfg = state_from_checkpoint(ckpt)
        cfg = replace(cfg, eval_writes=True)
        banks_ref = {k: b.copy() for k, b in banks.items()}
        start = {k: b.items.copy() for k, b in banks.items()}
        batched = [t.predictions.data for _, t in eval_traces(test, graph, params, banks, cfg)]
        reference = per_date_traces(test, graph, params, banks_ref, cfg)
        for got, ref in zip(batched, reference):
            assert np.max(np.abs(got - ref.predictions.data)) <= 1e-12
        for k in banks:
            assert not np.array_equal(banks[k].items, start[k])
            assert np.max(np.abs(banks[k].items - banks_ref[k].items)) <= 1e-12
