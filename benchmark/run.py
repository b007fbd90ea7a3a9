"""Benchmark of mtmd's file, training, checkpoint, scoring and export paths.

    python3 benchmark/run.py --workload ablate-small --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``mtmd`` from its
``src`` directory.  One run builds the workload's synthetic market from
``--seed``, then repeats rounds of six stages until ``--seconds`` of stage
time are spent (at least one round):

1. write the market's CSV files;  2. load them back;  3. train;
4. save and load each checkpoint;  5. score with frozen banks;
6. export embeddings.

As in the CLI, where train, eval and export-embeddings each read the CSV
files, the files are loaded again before stages 5 and 6.

Each public API call is one operation.  The first round's outputs are
checked (``checks.py``), later rounds must repeat its checkpoint bytes.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` an untraced pass is followed by one
round with layer wrappers installed (``spans.py``) and the JSON holds the
per-layer metrics.  A traced run makes one untraced round, whatever
``--seconds`` says.  See README.md for the workloads and bounds.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so figures do not depend on the core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import checks  # noqa: E402  (found beside this file: the script's directory is on sys.path)
import spans  # noqa: E402

SETUP_REPEATS = 9
# every test IC must reach this share of the factor-oracle IC of the same
# dates; the lowest share seen while choosing the workloads was 0.35
LEARNING_FLOOR = 0.15
SPLITS = ("train", "valid", "test")


@dataclass(frozen=True)
class Workload:
    n_stocks: int
    n_concepts: int
    n_dates: int
    embed_width: int
    memory_items: int
    learning_rate: float
    epochs: int
    train_frac: float
    valid_frac: float
    settings: tuple[str, ...]          # ablation codes, one train call each
    eval_splits: tuple[str, ...]       # scored for every checkpoint
    export_settings: tuple[str, ...]   # checkpoints exported on every export split
    export_splits: tuple[str, ...]


# The two scales of the paper: acceptance and published.  Each stage that
# feeds an end-to-end metric lasts seconds per round and a run of 30 s
# makes at least two rounds, because on a shared host shorter stages vary
# by more than a tenth from run to run.
WORKLOADS = {
    # acceptance scale: Python overhead per GRU step, the tape sweep and the
    # concept and memory stages take their largest share; B skips memory
    "ablate-small": Workload(
        n_stocks=20, n_concepts=4, n_dates=240, embed_width=16, memory_items=8,
        learning_rate=0.05, epochs=1, train_frac=0.6, valid_frac=0.2,
        settings=("B", "P", "H", "A"), eval_splits=SPLITS,
        export_settings=("B", "A"), export_splits=SPLITS),
    # published scale: BLAS-bound GRU forward and backward do most of the
    # work; the concept and memory stages are near zero
    "train-full": Workload(
        n_stocks=100, n_concepts=8, n_dates=110, embed_width=128, memory_items=64,
        learning_rate=0.1, epochs=1, train_frac=0.5, valid_frac=0.15,
        settings=("A",), eval_splits=("test",),
        export_settings=("A",), export_splits=("test",)),
}


@dataclass
class Market:
    """The generated inputs of a workload, with the planted truth behind them."""

    panel: object
    graph: object
    truth: object
    persistence: float


@dataclass
class Stages:
    """Times and counts the public API calls of the rounds of one run."""

    seconds: dict = field(default_factory=lambda: defaultdict(float))
    work: dict = field(default_factory=lambda: defaultdict(int))
    attempted: int = 0
    failed: int = 0
    aborted: bool = False    # an operation raised, so the run stopped mid-round

    def call(self, stage: str, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds[stage] += time.perf_counter() - start
        return result


@dataclass
class Round:
    """Outputs of one round, kept for the checks."""

    wall: float = 0.0
    peak_rss_mb: float = 0.0     # before any output of the round is checked
    panel: object = None
    graph: object = None
    splits: dict = field(default_factory=dict)
    logs: dict = field(default_factory=dict)
    saved: dict = field(default_factory=dict)
    loaded: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    exports: list = field(default_factory=list)


def operations_per_round(wl: Workload) -> int:
    n = len(wl.settings)
    # two writes and three loads, then per setting train, save and load
    return (5 + 3 * n + n * len(wl.eval_splits)
            + len(wl.export_settings) * len(wl.export_splits))


def set_up(wl: Workload, seed: int):
    """Import mtmd and generate the market; setup_s is the import plus the median generation."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    mtmd = importlib.import_module("mtmd")
    import_s = time.perf_counter() - start
    spec = mtmd.data.SyntheticSpec(n_stocks=wl.n_stocks, n_concepts=wl.n_concepts,
                                   n_dates=wl.n_dates, seed=seed)
    generated = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        panel, graph, truth = mtmd.data.generate_synthetic(spec)
        generated.append(time.perf_counter() - start)
    market = Market(panel, graph, truth, spec.factor_persistence)
    return mtmd, import_s + statistics.median(generated), market


def run_round(mtmd, wl: Workload, market: Market, seed: int, workdir: str,
              stages: Stages, progress=None) -> Round:
    data, harness, ckpt_io = mtmd.data, mtmd.harness, mtmd.checkpoint
    before = sum(stages.seconds.values())
    rnd = Round()
    rows = len(market.panel.slices) * wl.n_stocks
    panel_path = os.path.join(workdir, "panel.csv")
    concept_path = os.path.join(workdir, "concepts.csv")

    stages.call("write", data.write_panel_csv, market.panel, panel_path)
    stages.call("write", data.write_concepts_csv, market.graph, concept_path)
    stages.work["write"] += rows

    # the CLI reads the CSV files in each command that needs them (train, eval,
    # export-embeddings), so the round loads them before each of those stages
    def load():
        rnd.panel, rnd.graph = stages.call("load", data.load_panel, panel_path, concept_path)
        stages.work["load"] += rows

    load()
    train_end, valid_end = harness.fraction_boundaries(rnd.panel, wl.train_frac, wl.valid_frac)
    rnd.splits = dict(zip(SPLITS, harness.split_slices(rnd.panel, train_end, valid_end)))
    base = harness.TrainConfig(
        model=mtmd.model.ModelConfig(embed_width=wl.embed_width, memory_items=wl.memory_items),
        learning_rate=wl.learning_rate, epochs=wl.epochs, patience=wl.epochs, seed=seed,
        train_end=train_end, valid_end=valid_end)
    for code in wl.settings:
        config = replace(base, model=base.model.with_ablation(code))
        rnd.saved[code], rnd.logs[code] = stages.call(
            "train", harness.train, config, panel=rnd.panel, graph=rnd.graph, progress=progress)
        stages.work["train"] += len(rnd.logs[code].epochs) * len(rnd.logs[code].date_order)

    for code in wl.settings:
        path = os.path.join(workdir, f"{code}.ckpt")
        stages.call("checkpoint", ckpt_io.save_checkpoint, rnd.saved[code], path)
        with open(path, "rb") as fh:
            rnd.hashes[code] = hashlib.sha256(fh.read()).hexdigest()
        rnd.loaded[code] = stages.call("checkpoint", ckpt_io.load_checkpoint, path)

    load()
    for code in wl.settings:
        for split in wl.eval_splits:
            report = stages.call("evaluate", harness.evaluate, rnd.loaded[code], split,
                                 panel=rnd.panel, graph=rnd.graph)
            rnd.reports[code, split] = report
            stages.work["evaluate"] += len(report.daily)

    load()
    written = []
    for code in wl.export_settings:
        for split in wl.export_splits:
            path = os.path.join(workdir, f"export-{code}-{split}.csv")
            n = stages.call("export", harness.export_embeddings, rnd.loaded[code], split, path,
                            panel=rnd.panel, graph=rnd.graph)
            stages.work["export"] += n
            written.append((code, split, path, n))

    rnd.wall = sum(stages.seconds.values()) - before
    rnd.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for code, split, path, n in written:
        export = checks.read_export(path)
        if not export.well_formed:  # the file breaks its documented number format
            stages.failed += 1
        rnd.exports.append((code, split, export, n))
    return rnd


def check_round(chk: checks.Checker, mtmd, wl: Workload, market: Market, rnd: Round) -> None:
    """Every output check of the benchmark, on one round's outputs."""
    checks.check_round_trip(chk, market.panel, market.truth, rnd.panel, rnd.graph)
    checks.check_labels(chk, rnd.panel, market.truth)
    banks = ("memory.predefined", "memory.hidden")
    oracle = checks.oracle_ic(rnd.splits["test"], market.truth, market.persistence)
    masks = {s.date: rnd.graph.mask_for(s.date, s.stock_ids) for s in rnd.panel.slices}

    def predictions(state, split):
        params, bank_state, cfg = state
        return [mtmd.model.predict(s, masks[s.date], params, bank_state, cfg)
                for s in rnd.splits[split]]

    for code in wl.settings:
        checks.check_checkpoint(chk, f"checkpoint {code}", rnd.saved[code], rnd.loaded[code], banks)
        state = mtmd.harness.state_from_checkpoint(rnd.loaded[code])
        for split in wl.eval_splits:
            preds = predictions(state, split)
            report = rnd.reports[code, split]
            checks.check_report(chk, f"evaluate {code}/{split}", report, rnd.splits[split], preds)
            if split == "test":
                chk.notes.append(f"learning {code}: test IC {report.ic_mean!r}, oracle IC {oracle!r}")
                chk.expect(report.ic_mean is not None and report.ic_mean >= LEARNING_FLOOR * oracle,
                           f"learning {code}: test IC {report.ic_mean} below "
                           f"{LEARNING_FLOOR} x oracle IC {oracle}")
            if code == "B" and split == "test":
                params, bank_state, cfg = state
                rng = np.random.default_rng(0)
                random_banks = {}
                for name, bank in bank_state.items():
                    rows = rng.standard_normal(bank.items.shape)
                    rows /= np.sqrt((rows * rows).sum(axis=1, keepdims=True))
                    random_banks[name] = mtmd.memory.MemoryBank(items=rows, stage=name)
                swapped = predictions((params, random_banks, cfg), split)
                chk.expect(all(checks.same_bits(a, b) for a, b in zip(preds, swapped)),
                           f"baseline {split}: B predictions change with the bank contents")
    for code, split, export, n in rnd.exports:
        checks.check_export(chk, f"export {code}/{split}", export, n, rnd.splits[split],
                            rnd.loaded[code].tensors)


def measure_rounds(mtmd, wl, market, seed, workdir, seconds, stages: Stages,
                   chk: checks.Checker) -> list[Round]:
    """Untraced rounds until ``seconds`` of stage time are spent; checks the first."""
    rounds: list[Round] = []
    while not rounds or sum(stages.seconds.values()) < seconds:
        done = stages.attempted
        try:
            rnd = run_round(mtmd, wl, market, seed, workdir, stages)
        except Exception:  # an operation failed: count the rest of the round and stop
            traceback.print_exc(file=sys.stderr)
            stages.failed += operations_per_round(wl) - (stages.attempted - done - 1)
            stages.attempted = done + operations_per_round(wl)
            stages.aborted = True
            if not rounds:
                chk.expect(False, "no round completed, so no output could be checked")
            break
        if rounds:
            chk.expect(rnd.hashes == rounds[0].hashes,
                       "determinism: a later round saved different checkpoint bytes")
        else:
            check_round(chk, mtmd, wl, market, rnd)
        rounds.append(rnd)
    return rounds


def end_to_end(setup_s: float, stages: Stages, rounds: list[Round]) -> dict[str, tuple[float, str]]:
    rate = lambda stage: stages.work[stage] / stages.seconds[stage]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "write_rows_per_s": (rate("write"), "rows/s"),
        "load_rows_per_s": (rate("load"), "rows/s"),
        "train_dates_per_s": (rate("train"), "dates/s"),
        "infer_dates_per_s": (rate("evaluate"), "dates/s"),
        "export_rows_per_s": (rate("export"), "rows/s"),
        "peak_rss_mb": (rounds[0].peak_rss_mb, "MB"),
    }


def backward_probe(mtmd, wl: Workload, rnd: Round, seed: int) -> tuple[float, float]:
    """Backward-sweep seconds of the encoder alone and of the whole model.

    Over the training steps of a round (every training date, once per epoch
    and setting), it backpropagates a scalar of encode_panel's output alone,
    then the loss of a full forward pass, and times only the two sweeps.
    Taken back to back, the two share the host's speed of the moment, so
    their difference is the sweep outside the encoder.
    """
    ad, encoder, model = mtmd.autodiff, mtmd.encoder, mtmd.model
    encoder_s = full_s = 0.0
    for code in wl.settings:
        config = model.ModelConfig(embed_width=wl.embed_width, memory_items=wl.memory_items,
                                   seed=seed).with_ablation(code)
        params, banks = model.init_parameters(config), model.init_banks(config)
        for _ in range(len(rnd.logs[code].epochs)):
            for s in rnd.splits["train"]:
                scalar = ad.mean_all(encoder.encode_panel(s.features, params.encoder))
                start = time.perf_counter()
                ad.backward(scalar)
                encoder_s += time.perf_counter() - start
                mask = rnd.graph.mask_for(s.date, s.stock_ids)
                trace = model.forward(s, mask, params, banks, config, mode="eval")
                loss = model.mse_loss(trace.predictions, s.labels)
                start = time.perf_counter()
                ad.backward(loss)
                full_s += time.perf_counter() - start
    return encoder_s, full_s


def traced_round(mtmd, wl, market, seed, workdir, stages: Stages,
                 untraced: list[Round], chk: checks.Checker) -> dict[str, tuple[float, str]]:
    tracer = spans.Tracer()
    epochs = 0

    def progress(_record):
        nonlocal epochs
        epochs += 1

    spans.install(tracer, mtmd)
    try:
        rnd = run_round(mtmd, wl, market, seed, workdir, stages, progress=progress)
    finally:
        tracer.uninstall()
    chk.expect(rnd.hashes == untraced[0].hashes,
               "tracing changed the saved checkpoint bytes")
    overhead = rnd.wall - statistics.median(r.wall for r in untraced)
    values = spans.layer_metrics(tracer, epochs, *backward_probe(mtmd, wl, rnd, seed), overhead)
    return {name: (value, "s" if name.endswith("_s") else "count")
            for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    try:
        mtmd, setup_s, market = set_up(wl, args.seed)
    except ImportError as exc:
        print(f"benchmark: cannot import mtmd from {SRC}: {exc}", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    stages, chk = Stages(), checks.Checker()
    try:
        # a traced run needs one untraced round, as the baseline of trace.overhead_s
        seconds = 0.0 if args.trace else args.seconds
        rounds = measure_rounds(mtmd, wl, market, args.seed, workdir, seconds, stages, chk)
        if args.trace and rounds and not stages.aborted:
            metrics = traced_round(mtmd, wl, market, args.seed, workdir, stages, rounds, chk)
        elif rounds:
            metrics = end_to_end(setup_s, stages, rounds)
        else:
            metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    for code, digest in (rounds[0].hashes.items() if rounds else ()):
        print(f"checkpoint {args.workload}/{code} seed={args.seed} sha256={digest}")
    for message in chk.notes:
        print(message)
    for message in chk.failures:
        print(f"CHECK FAILED: {message}")
    print(f"checks: {chk.passed} passed, {len(chk.failures)} failed; "
          f"rounds: {len(rounds)}; operations: {stages.attempted} attempted, {stages.failed} failed")
    for stage, seconds in stages.seconds.items():
        print(f"stage {stage:>10s} {seconds:8.3f} s for {stages.work[stage]} units")
    for name, (value, unit) in metrics.items():
        print(f"{name:>24s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not chk.failures,
        "attempted": stages.attempted,
        "failed": stages.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
