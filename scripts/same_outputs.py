"""Compare the outputs of a parent revision and the working tree, bit for bit.

    python3 scripts/same_outputs.py --parent HEAD \
        --workload ablate-small=3,11 --workload train-full=5

For each workload and seed, one round of the unchanged ``benchmark/run.py``
(write and load the CSV files, train every setting, save and load each
checkpoint, score every eval split, export embeddings) runs from a
``git archive`` checkout of ``--parent`` and from the working tree, each in
a process of its own, writing its files to a temporary directory.  Then
every output file of the two sides is compared:

- a checkpoint by its parts: the format version word, each metadata value
  that differs (by JSON path), and the tensor section, every byte after
  the metadata, which must be identical;
- the ``evaluate`` reports (``MetricReport.to_csv``), export files and CSV
  inputs byte for byte.

Prints one line per file and exits 1 if a tensor section or another file
differs, or if the two sides wrote different file names.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_outputs(tree: str, workload: str, seed: int, out: str) -> None:
    """One benchmark round from ``tree``, its files and reports left in ``out``."""
    sys.path.insert(0, os.path.join(tree, "benchmark"))
    import run  # the tree's benchmark/run.py; it imports mtmd from the tree's src

    wl = run.WORKLOADS[workload]
    mtmd, _, market = run.set_up(wl, seed)
    rnd = run.run_round(mtmd, wl, market, seed, out, run.Stages())
    for (code, split), report in rnd.reports.items():
        report.to_csv(os.path.join(out, f"eval-{code}-{split}.csv"))


def checkpoint_parts(path: str) -> tuple[int, dict, bytes]:
    """Format version, metadata object and tensor section of a checkpoint file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    version, meta_len = struct.unpack("<II", blob[4:12])
    return version, json.loads(blob[12:12 + meta_len]), blob[12 + meta_len:]


def json_diff(a, b, path: str = "") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        return [line for key in sorted(set(a) | set(b))
                for line in json_diff(a.get(key, "<absent>"), b.get(key, "<absent>"),
                                      f"{path}.{key}" if path else key)]
    return [] if a == b else [f"{path}: {a!r} -> {b!r}"]


def compare(parent_dir: str, change_dir: str, label: str) -> bool:
    names = sorted(os.listdir(parent_dir))
    same = names == sorted(os.listdir(change_dir))
    if not same:
        print(f"{label}: file names differ: {names} vs {sorted(os.listdir(change_dir))}")
    for name in names:
        a, b = os.path.join(parent_dir, name), os.path.join(change_dir, name)
        if not os.path.exists(b):
            continue
        if name.endswith(".ckpt"):
            (va, ma, ta), (vb, mb, tb) = checkpoint_parts(a), checkpoint_parts(b)
            digest = hashlib.sha256(ta).hexdigest()[:12]
            tensors = "identical" if ta == tb else "DIFFER"
            same &= ta == tb
            print(f"{label}/{name}: version {va} -> {vb}; tensor section ({len(ta)} bytes, "
                  f"sha256 {digest}…) {tensors}; metadata changes: "
                  f"{'; '.join(json_diff(ma, mb)) or 'none'}")
        else:
            with open(a, "rb") as fa, open(b, "rb") as fb:
                equal = fa.read() == fb.read()
            same &= equal
            print(f"{label}/{name}: {'identical' if equal else 'DIFFER'}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", action="append", default=[],
                        help="NAME=SEED,SEED,... ; one comparison per seed")
    parser.add_argument("--write", nargs=4, metavar=("TREE", "WORKLOAD", "SEED", "OUT"),
                        help=argparse.SUPPRESS)  # one side's outputs, in a child process
    args = parser.parse_args(argv)
    if args.write:
        tree, workload, seed, out = args.write
        write_outputs(tree, workload, int(seed), out)
        return 0
    if not args.workload:
        parser.error("name at least one --workload")

    scratch = tempfile.mkdtemp(prefix="same-outputs-")
    try:
        parent_tree = os.path.join(scratch, "parent")
        os.makedirs(parent_tree)
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_tree], input=archive, check=True)
        same = True
        for spec in args.workload:
            workload, _, seeds = spec.partition("=")
            for seed in seeds.split(","):
                dirs = {}
                for side, tree in (("parent", parent_tree), ("change", ROOT)):
                    dirs[side] = os.path.join(scratch, f"{side}-{workload}-{seed}")
                    os.makedirs(dirs[side])
                    subprocess.run([sys.executable, os.path.abspath(__file__),
                                    "--write", tree, workload, seed, dirs[side]], check=True)
                same &= compare(dirs["parent"], dirs["change"], f"{workload} seed={seed}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("same outputs" if same else "OUTPUTS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
