#!/usr/bin/env python3
"""Regenerates perfbench/reference.json from scratch.

The stored values are the minimax losses of the n <= 4 full-side exact
signatures the workloads serve, computed by the benchmark's own
exact-rational LP (oracle.minimax_lp) -- never copied from the daemon.

    python3 perfbench/regen_reference.py           # rewrite the file
    python3 perfbench/regen_reference.py --check   # recompute and compare
"""

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import oracle  # noqa: E402
import run  # noqa: E402

PATH = os.path.join(HERE, "reference.json")


def compute():
    rows = []
    for s in run.prewarm_signatures():
        if s["mode"] != "exact" or s["n"] > 4 or (s["lo"], s["hi"]) != (0, s["n"]):
            continue
        value = oracle.minimax_lp(s["n"], s["alpha"], s["loss"], 0, s["n"])
        rows.append({"n": s["n"], "alpha": "%d/%d" % (s["alpha"].numerator, s["alpha"].denominator),
                     "loss": s["loss"], "loss_value": str(value)})
    return {"minimax_lp": rows}


def main():
    fresh = compute()
    table1 = [r for r in fresh["minimax_lp"] if (r["n"], r["alpha"], r["loss"]) == (3, "1/4", "absolute")]
    if not table1 or Fraction(table1[0]["loss_value"]) != Fraction(168, 415):
        print("the paper's Table 1 instance does not read 168/415", file=sys.stderr)
        return 1
    if "--check" in sys.argv[1:]:
        with open(PATH) as f:
            stored = json.load(f)
        if stored != fresh:
            print("reference.json differs from a fresh computation", file=sys.stderr)
            return 1
        print("reference.json matches (%d LP values)" % len(fresh["minimax_lp"]))
        return 0
    with open(PATH, "w") as f:
        json.dump(fresh, f, indent=1)
        f.write("\n")
    print("wrote %s (%d LP values)" % (PATH, len(fresh["minimax_lp"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
