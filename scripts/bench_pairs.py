"""Paired benchmark record: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --out BENCH_9.json \
        --workload train-full=5,6,7 --workload ablate-small=3,11,12 [--seconds 30]

For each workload and seed, the unchanged ``benchmark/run.py`` runs once
from a checkout of ``--parent`` and once from the working tree, alternating
which side runs first.  The parent's checkout is made with ``git archive``
in a temporary directory outside the repository and removed at the end.

The JSON file, rewritten after every pair, holds per workload and
end-to-end metric each side's runs, median and quartiles, the number of
pairs in which the working tree read better (ties count for neither side),
the metric's bound from ``BENCHMARK.json``, the change/parent median ratio,
and an ``unresolved`` flag for a metric whose parent runs spread wider than
its bound;
the seconds per round of each benchmark stage, parsed from the ``stage``
lines, and the rounds of each run; whether the two sides printed the same
checkpoint hashes; and the host's CPU model and core count, the numpy
version and BLAS, and both revisions, each with a SHA-256 of its ``src``
tree.

``previous`` compares the record with the newest ``BENCH_<n>.json`` beside
``--out`` whose ``n`` is lower than its own: for each workload and metric,
this change's median over that file's change median.  The ratios are
``null``, with the reason, when the two hosts differ in CPU model, numpy
or BLAS, and a metric or workload that file lacks reads ``null``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGE_LINE = re.compile(r"^stage\s+(\S+)\s+([0-9.]+) s for (\d+) units$")
HASH_LINE = re.compile(r"^checkpoint (\S+) seed=\d+ sha256=([0-9a-f]+)$")
ROUNDS = re.compile(r"rounds: (\d+);")
BENCH_FILE = re.compile(r"^BENCH_(\d+)\.json$")
COMPARED_HOST_KEYS = ("cpu_model", "numpy", "blas")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def src_digest(tree: str) -> str:
    """SHA-256 over the relative paths and bytes of the ``.py`` files under ``src``."""
    digest = hashlib.sha256()
    base = os.path.join(tree, "src")
    for folder, _, files in sorted(os.walk(base)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def host_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        blas = None
    return {"cpu_model": cpu, "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def run_benchmark(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmark/run.py`` run from ``tree``: metrics, stages, hashes, checks."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    rounds = int(next(m.group(1) for m in map(ROUNDS.search, lines) if m))
    stages = {m.group(1): {"seconds": float(m.group(2)), "units": int(m.group(3))}
              for m in map(STAGE_LINE.match, lines) if m}
    return {
        "metrics": {name: v["value"] for name, v in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "check_failures": [line for line in lines if line.startswith("CHECK FAILED")],
        "rounds": rounds,
        "stage_s_per_round": {k: v["seconds"] / rounds for k, v in stages.items()},
        "hashes": {m.group(1): m.group(2) for m in map(HASH_LINE.match, lines) if m},
    }


def summarize(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def metric_record(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' runs of one metric, the change/parent median ratio, and
    whether the parent's own quartile spread (relative to its median) is
    wider than the metric's bound, so that the pairs cannot tell a change
    within the bound from none: such a metric is ``unresolved`` unless
    every run of the change reads better than every run of the parent."""
    sign = 1.0 if better == "higher" else -1.0
    sides = {"parent": summarize(parent), "change": summarize(change)}
    base = sides["parent"]
    spread = (base["q3"] - base["q1"]) / base["median"]
    all_better = min(change) > max(parent) if better == "higher" else max(change) < min(parent)
    return {"better": better, "bound": bound,
            "pairs_won_by_change": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "ratio": sides["change"]["median"] / base["median"],
            "parent_spread": spread, "unresolved": spread > bound and not all_better,
            **sides}


def workload_record(pairs: list[dict], end_to_end: dict[str, dict]) -> dict:
    sides = ("parent", "change")
    metrics = {name: metric_record([p["parent"]["metrics"][name] for p in pairs],
                                   [p["change"]["metrics"][name] for p in pairs],
                                   spec["better"], spec["bound"])
               for name, spec in end_to_end.items()}
    stages = {}
    for side in sides:
        names = sorted({k for p in pairs for k in p[side]["stage_s_per_round"]})
        stages[side] = {k: statistics.median(p[side]["stage_s_per_round"].get(k, 0.0)
                                             for p in pairs) for k in names}
    return {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "rounds": {side: [p[side]["rounds"] for p in pairs] for side in sides},
        "metrics": metrics,
        "stage_s_per_round_median": stages,
        "checkpoint_hashes_equal": all(p["parent"]["hashes"] == p["change"]["hashes"]
                                       for p in pairs),
        "hashes": {str(p["seed"]): p["change"]["hashes"] for p in pairs},
        "operations": {side: {"attempted": sum(p[side]["attempted"] for p in pairs),
                              "failed": sum(p[side]["failed"] for p in pairs)}
                       for side in sides},
        "check_failures": {side: [f"seed {p['seed']}: {msg}" for p in pairs
                                  for msg in p[side]["check_failures"]] for side in sides},
    }


def previous_bench(out: str) -> str | None:
    """The newest ``BENCH_<n>.json`` beside ``out`` with ``n`` below its own
    (below none if ``out`` is not so named)."""
    folder, name = os.path.split(os.path.abspath(out))
    own = BENCH_FILE.match(name)
    below = int(own.group(1)) if own else float("inf")
    found = [(int(m.group(1)), f) for f in os.listdir(folder)
             if (m := BENCH_FILE.match(f)) and int(m.group(1)) < below]
    return os.path.join(folder, max(found)[1]) if found else None


def versus_previous(record: dict, path: str | None) -> dict:
    """Each workload and metric's change median over that of the record at ``path``."""
    if path is None:
        return {"file": None, "reason": "no earlier BENCH file", "ratios": None}
    with open(path, encoding="utf-8") as fh:
        previous = json.load(fh)
    host = previous.get("host", {})
    differs = [f"{key} {host.get(key)!r} -> {record['host'][key]!r}"
               for key in COMPARED_HOST_KEYS if host.get(key) != record["host"][key]]
    if differs:
        return {"file": os.path.basename(path), "reason": "host differs: " + "; ".join(differs),
                "ratios": None}
    ratios = {}
    for name, workload in record["workloads"].items():
        old = previous.get("workloads", {}).get(name, {}).get("metrics", {})
        ratios[name] = {metric: (values["change"]["median"] / old[metric]["change"]["median"]
                                 if metric in old else None)
                        for metric, values in workload["metrics"].items()}
    return {"file": os.path.basename(path), "reason": None, "ratios": ratios}


def parse_workloads(specs: list[str]) -> list[tuple[str, list[int]]]:
    out = []
    for spec in specs:
        name, _, seeds = spec.partition("=")
        try:
            out.append((name, [int(s) for s in seeds.split(",") if s]))
        except ValueError:
            raise SystemExit(f"--workload wants NAME=SEED,SEED,..., got {spec!r}") from None
        if not out[-1][1]:
            raise SystemExit(f"--workload {spec!r} names no seed")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME=SEED,SEED,... ; one pair of runs per seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="--seconds of each run")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_9.json")
    args = parser.parse_args(argv)
    workloads = parse_workloads(args.workload)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    parent_rev = git("rev-parse", args.parent)
    previous = previous_bench(args.out)
    record = {
        "command": f"python3 benchmark/run.py --workload W --seed S --seconds {args.seconds:g}",
        "host": host_info(),
        "parent": {"revision": parent_rev},
        "change": {"revision": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain", "--", "src")),
                   "src_sha256": src_digest(ROOT)},
        "workloads": {},
    }
    scratch = tempfile.mkdtemp(prefix="bench-parent-")
    try:
        archive = subprocess.run(["git", "archive", parent_rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", scratch], input=archive, check=True)
        record["parent"]["src_sha256"] = src_digest(scratch)
        trees = {"parent": scratch, "change": ROOT}
        index = 0
        for name, seeds in workloads:
            pairs = []
            for seed in seeds:
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                index += 1
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    print(f"{name} seed={seed} {side} ...", file=sys.stderr, flush=True)
                    pair[side] = run_benchmark(trees[side], name, seed, args.seconds)
                pairs.append(pair)
                record["workloads"][name] = workload_record(pairs, end_to_end)
                record["previous"] = versus_previous(record, previous)
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=2, sort_keys=True)
                    fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
