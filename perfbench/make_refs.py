"""Store reference outputs for the benchmark's seeds.

    python3 perfbench/make_refs.py

For every workload and each seed in ``run.REF_SEEDS``, runs the first
``run.REF_ITEMS`` items once and writes their checked fields to
``perfbench/refs/<workload>.json``; the benchmark compares every item
that has a stored reference against it (verdicts exactly, numbers to
1e-9 relative).  Regenerate only from a commit whose outputs are known
to be right: the file is the oracle.
"""

from __future__ import annotations

import json

import run


def stored(value):
    """Floats keep 12 significant digits, well inside the 1e-9 check."""
    return float(f"{value:.12g}") if isinstance(value, float) else value


def main() -> None:
    run.bootstrap()
    from workloads import WORKLOADS

    for name, cls in sorted(WORKLOADS.items()):
        seeds = {}
        for seed in run.REF_SEEDS:
            wl = cls(seed)
            wl.extend(run.REF_ITEMS)
            rows = []
            for k in range(run.REF_ITEMS):
                rec, _ = wl.item(k)
                errs = wl.invariant_errors(rec)
                if errs:
                    raise SystemExit(f"{name} seed {seed} item {k}: {errs}")
                rows.append([stored(rec[f]) for f in cls.fields])
            seeds[str(seed)] = rows
            print(f"{name}: seed {seed} done", flush=True)
        doc = {"fields": list(cls.fields), "items": run.REF_ITEMS, "seeds": seeds}
        with open(run.HERE / "refs" / f"{name}.json", "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


if __name__ == "__main__":
    main()
