"""Record the outputs the benchmark's checks are held to.

Run from the repository root, at the commit whose outputs are the
reference::

    python3 perfbench/pin.py --workload fig3_packet --seeds 0-29,7919

For each seed it runs the workload's unit (and, where it differs, the
trace unit) once and writes the outputs into ``perfbench/pins.json``
under the workload's key, leaving other workloads' entries alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 0-29,7919")
    args = p.parse_args(argv)
    workloads = run.import_workloads()
    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(run.OUT_DIR, exist_ok=True)
    os.environ["REPRO_STORE"] = os.path.join(run.OUT_DIR, "store")
    scratch = tempfile.mkdtemp(prefix="pin-", dir=run.OUT_DIR)
    found: dict[str, dict] = {}
    try:
        for seed in parse_seeds(args.seeds):
            wl = cls(seed, scratch)
            wl.setup()
            found.setdefault(wl.name, {})[str(seed)] = wl.unit().output
            if wl.trace_pin_key != wl.name:
                found.setdefault(wl.trace_pin_key, {})[str(seed)] = \
                    wl.trace_unit().output
            print(f"{wl.name} seed {seed} pinned", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(run.PINS) as f:
        pins = json.load(f)
    for key, entries in found.items():
        pins.setdefault(key, {}).update(entries)
    with open(run.PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
