"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s``.  The ablation and
learning-sanity criteria share one training session over the planted
synthetic market (4 memory settings x 5 seeds), so the module needs a few
minutes of single-core compute; everything else is seconds.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from mtmd import autodiff as ad
from mtmd import concepts as cc
from mtmd import memory as mem
from mtmd import metrics as mx
from mtmd import model as mm
from mtmd.checkpoint import save_checkpoint, load_checkpoint
from mtmd.data import DateSlice, SyntheticSpec, generate_synthetic, normalize_labels_per_date
from mtmd.harness import TrainConfig, evaluate, fraction_boundaries, train

from oracles import (finite_difference, max_rel_error, pearson_direct,
                     precision_top_n_naive, spearman_enumerated)

# the planted-factor market and training setup shared by the directional criteria
MARKET_SPEC = SyntheticSpec(n_stocks=20, n_concepts=4, n_dates=300,
                            noise_sigma=0.02, seed=3)
ABLATION_SEEDS = [0, 1, 2, 3, 4]
TRAIN_KNOBS = dict(learning_rate=0.05, epochs=8, patience=8)
MODEL_KNOBS = dict(embed_width=16, memory_items=8)


def check(criterion: str, condition: bool, detail: str = ""):
    line = f"{'PASS' if condition else 'FAIL'}: {criterion}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert condition, line


@pytest.fixture(scope="module")
def market():
    return generate_synthetic(MARKET_SPEC)


@pytest.fixture(scope="module")
def trained_matrix(market):
    """Train B/P/H/A x seeds once; returns logs, test ICs, and wall time."""
    panel, graph, _ = market
    train_end, valid_end = fraction_boundaries(panel)
    base = TrainConfig(model=mm.ModelConfig(**MODEL_KNOBS),
                       train_end=train_end, valid_end=valid_end, **TRAIN_KNOBS)
    started = time.monotonic()
    results = {}
    for code in ("B", "P", "H", "A"):
        runs = []
        for seed in ABLATION_SEEDS:
            cfg = replace(base, seed=seed, model=base.model.with_ablation(code))
            ckpt, log = train(cfg, panel=panel, graph=graph)
            report = evaluate(ckpt, "test", panel=panel, graph=graph)
            runs.append({"log": log, "test_ic": report.ic_mean})
        results[code] = runs
    return {"results": results, "wall_seconds": time.monotonic() - started}


# ---------------------------------------------------------------------------
# gradient suite

def _random_slice(rng, n_stocks):
    raw = rng.normal(scale=0.02, size=n_stocks)
    return DateSlice(
        date="2020-01-01",
        stock_ids=[f"S{i}" for i in range(n_stocks)],
        features=rng.normal(scale=0.05, size=(n_stocks, 360)),
        market_caps=rng.lognormal(size=n_stocks),
        prices=np.full(n_stocks, 100.0),
        raw_labels=raw,
        labels=normalize_labels_per_date(raw),
    )


def test_gradient_suite():
    started = time.monotonic()

    # per-operation checks on random small shapes
    rng = np.random.default_rng(99)
    worst_op = 0.0
    for _ in range(100):
        values = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(2, 4)),
                  "m": rng.normal(size=(4, 2))}

        def run(vals):
            a = ad.Tensor(vals["a"], requires_grad=True, name="a")
            b = ad.Tensor(vals["b"], requires_grad=True, name="b")
            m = ad.Tensor(vals["m"], requires_grad=True, name="m")
            sim = ad.cosine_matrix(a, b)
            norms = ad.clamp_min(ad.sqrt(ad.reduce_sum(ad.multiply(b, b), axis=1)), ad.EPS)
            mix = ad.matmul(ad.softmax(sim, axis=0), ad.divide(b, ad.reshape(norms, (2, 1))))
            out = ad.leaky_relu(ad.matmul(mix, m))
            return ad.reduce_sum(ad.multiply(out, out))

        analytic = ad.backward(run(values))
        numeric = finite_difference(lambda v: run(v).item(), values)
        worst_op = max(worst_op, max_rel_error(analytic, numeric))

    # end-to-end on the pinned small instance: 6 stocks, 3 concepts, L=4, K=4
    config = mm.ModelConfig(embed_width=4, memory_items=4, seed=7)
    params = mm.init_parameters(config)
    banks = mm.init_banks(config)
    rng = np.random.default_rng(17)
    date_slice = _random_slice(rng, 6)
    mask = rng.random((6, 3)) < 0.5
    mask[0, 0] = True
    values = {name: t.data.copy() for name, t in params.named().items()}

    def run_model(vals):
        fresh = mm.init_parameters(config)
        for name, t in fresh.named().items():
            t.data[:] = vals[name]
        trace = mm.forward(date_slice, mask, fresh, banks, config, mode="eval")
        return mm.mse_loss(trace.predictions, date_slice.labels)

    analytic = ad.backward(run_model(values))
    numeric = finite_difference(lambda v: run_model(v).item(), values)
    worst_model = max_rel_error(analytic, numeric)

    elapsed = time.monotonic() - started
    check("gradient suite (per-op + end-to-end vs central differences)",
          worst_op < 1e-4 and worst_model < 1e-4 and elapsed < 60.0,
          f"per-op {worst_op:.2e}, end-to-end {worst_model:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# memory invariants

def test_memory_invariants():
    rng = np.random.default_rng(123)
    width = 6
    bank = mem.init_bank(5, width, seed=1)
    column_ok = True
    trailing_ok = True
    for _ in range(1000):
        n_stocks = int(rng.integers(1, 10))
        queries = rng.normal(size=(n_stocks, width))
        state = mem.global_aggregate(ad.Tensor(queries), ad.Tensor(bank.items))
        sums = state.match_probs.data.sum(axis=0)
        column_ok &= bool(np.all(np.abs(sums - 1.0) <= 1e-12))
        if n_stocks < bank.n_items:
            tail_before = bank.items[n_stocks:].copy()
            mem.memorize(queries, state.match_probs.data, bank)
            trailing_ok &= bool(np.array_equal(bank.items[n_stocks:], tail_before))
        else:
            mem.memorize(queries, state.match_probs.data, bank)
    norms = np.linalg.norm(bank.items, axis=1)
    norm_ok = bool(np.all(np.abs(norms - 1.0) <= 1e-9))
    check("memory invariants (1000 randomized writes)",
          norm_ok and column_ok and trailing_ok,
          f"max |row norm - 1| {np.max(np.abs(norms - 1.0)):.1e}")


# ---------------------------------------------------------------------------
# residual identity

def test_residual_identity_fuzz():
    spec = SyntheticSpec(n_stocks=8, n_concepts=3, n_dates=162, seed=31)
    panel, graph, _ = generate_synthetic(spec)
    assert len(panel.usable_slices) >= 100
    config = mm.ModelConfig(embed_width=6, memory_items=4, seed=2)
    params = mm.init_parameters(config)
    banks = mm.init_banks(config)
    worst = 0.0
    for s in panel.usable_slices[:100]:
        mask = graph.mask_for(s.date, s.stock_ids)
        trace = mm.forward(s, mask, params, banks, config, mode="train")
        h1 = trace.predefined.inputs.data
        h2 = trace.hidden.inputs.data
        h3 = trace.individual.inputs.data
        worst = max(worst,
                    float(np.max(np.abs(h1 - (h2 + trace.predefined.refined.data)))),
                    float(np.max(np.abs(h2 - (h3 + trace.hidden.refined.data)))))
    check("residual identity over 100-date fuzz", worst <= 1e-12, f"max residual {worst:.1e}")


# ---------------------------------------------------------------------------
# metric oracles

def test_metric_oracles():
    rng = np.random.default_rng(2024)
    worst_ic = worst_rank = 0.0
    precision_exact = True
    for i in range(1000):
        n = int(rng.integers(2, 25))
        if i % 2:  # coarse grids force ties
            pred = rng.integers(-3, 4, size=n).astype(float)
            truth = rng.integers(-3, 4, size=n).astype(float)
        else:
            pred = rng.normal(size=n)
            truth = rng.normal(size=n)
        ours_ic = mx.ic(pred, truth)
        degenerate = np.unique(pred).size == 1 or np.unique(truth).size == 1
        if degenerate:
            assert ours_ic is None
        else:
            worst_ic = max(worst_ic, abs(ours_ic - pearson_direct(pred, truth)))
            worst_rank = max(worst_rank, abs(mx.rank_ic(pred, truth) - spearman_enumerated(pred, truth)))
        top_n = int(rng.integers(1, 30))
        positive = rng.random(n) < 0.5
        precision_exact &= (mx.precision_at_n(pred, positive, top_n)
                            == precision_top_n_naive(pred, positive, top_n))
    check("metric oracles on 1000 random instances (incl. ties)",
          worst_ic < 1e-12 and worst_rank < 1e-12 and precision_exact,
          f"ic err {worst_ic:.1e}, rank err {worst_rank:.1e}")


# ---------------------------------------------------------------------------
# softmax / weight stochasticity

def test_weight_stochasticity():
    rng = np.random.default_rng(55)
    ok = True
    worst = 0.0
    for _ in range(200):
        n_s = int(rng.integers(1, 12))
        n_c = int(rng.integers(1, 6))
        width = int(rng.integers(2, 8))
        h = ad.Tensor(rng.normal(size=(n_s, width)))
        e = ad.Tensor(rng.normal(size=(n_c, width)))
        # correction weights: softmax across stocks, per concept
        col = ad.softmax(ad.cosine_matrix(h, e), axis=0).data.sum(axis=0)
        worst = max(worst, float(np.max(np.abs(col - 1.0))))
        # local importance: masked softmax across each stock's links
        mask = rng.random((n_s, n_c)) < 0.6
        mask[:, int(rng.integers(n_c))] = True
        _, importance = cc.local_aggregate(h, e, mask, cc.LinearMap(
            weight=ad.Tensor(np.eye(width)), bias=ad.Tensor(np.zeros(width))))
        rows = importance.data.sum(axis=1)
        worst = max(worst, float(np.max(np.abs(rows - 1.0))))
        # retrieval match probabilities: softmax across stocks, per item
        bank = mem.init_bank(int(rng.integers(1, 6)), width, seed=int(rng.integers(1e6)))
        state = mem.global_aggregate(h, ad.Tensor(bank.items))
        cols = state.match_probs.data.sum(axis=0)
        worst = max(worst, float(np.max(np.abs(cols - 1.0))))
        ok &= worst <= 1e-12
    check("softmax weight sets sum to one across fuzzed shapes",
          ok, f"max deviation {worst:.1e}")


# ---------------------------------------------------------------------------
# directional experiments on the planted market

def test_factor_oracle_bound(market):
    panel, _, truth = market
    exposure = truth.membership / truth.membership.sum(axis=1, keepdims=True)
    date_index = {d: i for i, d in enumerate(truth.dates)}
    rho = MARKET_SPEC.factor_persistence
    values = []
    for s in panel.usable_slices:
        pred = rho * (truth.factors[date_index[s.date]] @ exposure.T)
        v = mx.ic(pred, s.labels)
        if v is not None:
            values.append(v)
    oracle = float(np.mean(values))
    check("factor-regression oracle IC > 0.6 at noise 0.02", oracle > 0.6,
          f"oracle IC {oracle:.4f}")


def test_ablation_direction(trained_matrix):
    results = trained_matrix["results"]
    means = {code: float(np.mean([r["test_ic"] for r in runs]))
             for code, runs in results.items()}
    wall = trained_matrix["wall_seconds"]
    direction_ok = (means["A"] >= means["B"]
                    and means["P"] >= means["B"] - 0.01
                    and means["H"] >= means["B"] - 0.01)
    check("ablation direction (A >= B; P,H >= B-0.01; < 15 min)",
          direction_ok and wall < 900.0,
          "mean test IC " + " ".join(f"{c}={means[c]:.4f}" for c in "BPHA")
          + f", {wall:.0f}s")


def test_learning_sanity(trained_matrix):
    runs = trained_matrix["results"]["A"]
    best_ics = []
    for run in runs:
        log = run["log"]
        assert len(log.epochs) <= 30
        best_ics.append(max(e.valid_ic for e in log.epochs if e.valid_ic is not None))
    mean_best = float(np.mean(best_ics))
    check("learning sanity: memory-enabled validation IC > 0.3 within 30 epochs",
          mean_best > 0.3, f"mean best valid IC {mean_best:.4f}")


# ---------------------------------------------------------------------------
# determinism & persistence

def test_determinism_and_persistence(tmp_path):
    spec = SyntheticSpec(n_stocks=6, n_concepts=3, n_dates=80, seed=9)
    panel, graph, _ = generate_synthetic(spec)
    train_end, valid_end = fraction_boundaries(panel)
    cfg = TrainConfig(model=mm.ModelConfig(embed_width=6, memory_items=3),
                      learning_rate=0.02, epochs=3, patience=5, seed=2,
                      train_end=train_end, valid_end=valid_end)
    ck1, _ = train(cfg, panel=panel, graph=graph)
    ck2, _ = train(cfg, panel=panel, graph=graph)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(ck1, str(p1))
    save_checkpoint(ck2, str(p2))
    identical = p1.read_bytes() == p2.read_bytes()

    loaded = load_checkpoint(str(p1))
    rep_direct = evaluate(ck1, "test", panel=panel, graph=graph)
    rep_loaded = evaluate(loaded, "test", panel=panel, graph=graph)
    bitwise_eval = (rep_direct.ic_mean == rep_loaded.ic_mean
                    and [d.ic for d in rep_direct.daily] == [d.ic for d in rep_loaded.daily]
                    and [d.precision for d in rep_direct.daily]
                    == [d.precision for d in rep_loaded.daily])
    check("determinism & persistence (bitwise checkpoints and round-trip eval)",
          identical and bitwise_eval,
          f"checkpoint bytes equal: {identical}, eval bitwise: {bitwise_eval}")
