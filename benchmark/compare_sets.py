#!/usr/bin/env python3
"""Compares end-to-end medians between benchmark sets (run.sh --sets N).

Usage: compare_sets.py BENCHMARK.json SET_DIR SET_DIR...

Each SET_DIR holds one <workload>.json per workload, the JSON result line
pgxd_bench printed. For every workload and end-to-end metric this prints
the first set's median, a later set's median, their ratio and the metric's
bound from BENCHMARK.json, and exits 1 when any pair disagrees by more than
the bound either way, or a set was not correct. Simulated metrics must be
equal: at one seed the simulation is deterministic.
"""
import json
import pathlib
import sys

SIMULATED = {"sim_sort_ms", "imbalance"}


def main(argv):
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(pathlib.Path(argv[1]).read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    first, *later = [pathlib.Path(d) for d in argv[2:]]
    ok = True
    print(f"{'workload':20} {'metric':12} {'set ' + first.name:>12} "
          f"{'other':>12} {'ratio':>8} {'bound':>6}  verdict")
    for path in sorted(first.glob("*.json")):
        base = json.loads(path.read_text())
        for other_dir in later:
            other = json.loads((other_dir / path.name).read_text())
            if not (base["correct"] and other["correct"]):
                print(f"{path.stem:20} not correct in set {first.name} or "
                      f"{other_dir.name}")
                ok = False
            for name, bound in bounds.items():
                a = base["metrics"].get(name, {}).get("value")
                b = other["metrics"].get(name, {}).get("value")
                if a is None or b is None:
                    print(f"{path.stem:20} {name:12} missing")
                    ok = False
                    continue
                ratio = b / a
                if name in SIMULATED:
                    agree = a == b
                else:
                    agree = abs(ratio - 1.0) <= bound
                ok = ok and agree
                print(f"{path.stem:20} {name:12} {a:12.6g} {b:12.6g} "
                      f"{ratio:8.4f} {bound:6.2f}  "
                      f"{'ok' if agree else 'DISAGREE'} (set {other_dir.name})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
