"""symbidisc benchmark: a single-process, closed-loop load generator.

    python3 perfbench/run.py --workload vn_batch --seed 1 --seconds 20 --trace 0

One caller drives the package through its public functions; the next
item starts only after the previous one has returned and its output has
been checked.  Run from the root of a checkout: the package is imported
from ``src/`` of that checkout and from nowhere else.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of a separate traced run and
writes its spans to ``.perfbench_out/``.  The last line of standard
output is the result object; the lines before it give the machine facts
and a summary.  The exit code is 0 only when every item's output passed
its check.  See ``perfbench/README.md`` for the workloads and what each
metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# Confirm later claims on this seed too; do not tune against it.
HELD_OUT_SEED = 1310
# Reference outputs are stored for the first REF_ITEMS items of these seeds.
REF_SEEDS = (*range(20), HELD_OUT_SEED)
REF_ITEMS = 100
SETUP_REPEATS = 4
MIN_ITEMS = 120  # twelve samples beyond p90 by rank, so at least ten beyond its estimate
REF_REL_TOL = 1e-9
REF_ABS_TOL = 1e-12  # values at rounding level, such as residuals near 1e-16
OUT_DIR = ROOT / ".perfbench_out"
# Quiet-machine time of ReferenceSolve.time() on the machine the benchmark
# was defined on (2-core Intel Xeon, OpenBLAS 0.3.31, one thread).
REFERENCE_SOLVE_S = 0.53e-3


def bootstrap():
    """Pin BLAS to one thread and import symbidisc from this checkout's src/.

    Must run before numpy is imported.  The matrices are at most 24x24,
    so BLAS threads gain nothing and would only contend with the caller.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    init = SRC / "symbidisc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: no package source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import symbidisc

    if Path(symbidisc.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported symbidisc from {symbidisc.__file__}")


def _blas_threads():
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def machine_facts() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu": _cpu_model(),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class Checker:
    """Per-item output check: the workload's invariants, then the stored
    reference outputs where the seed and item have one."""

    def __init__(self, wl, seed: int) -> None:
        self.wl = wl
        path = HERE / "refs" / f"{wl.name}.json"
        with open(path) as fh:
            refs = json.load(fh)
        self.fields = refs["fields"]
        self.expected = refs["seeds"].get(str(seed), [])
        self.ref_checked = 0
        self.messages: list[str] = []

    def __call__(self, k: int, rec) -> bool:
        if isinstance(rec, Exception):
            errs = [f"raised {type(rec).__name__}: {rec}"]
        else:
            errs = self.wl.invariant_errors(rec)
            if k < len(self.expected):
                self.ref_checked += 1
                errs += self._ref_errors(self.expected[k], rec)
        self.messages.extend(f"item {k}: {e}" for e in errs)
        return not errs

    def _ref_errors(self, want: list, rec: dict) -> list[str]:
        errs = []
        for field, w in zip(self.fields, want):
            have = rec[field]
            if isinstance(w, float) and isinstance(have, float):
                ok = math.isclose(have, w, rel_tol=REF_REL_TOL, abs_tol=REF_ABS_TOL)
            else:
                ok = have == w
            if not ok:
                errs.append(f"{field} = {have!r}, reference {w!r}")
        return errs


class ReferenceSolve:
    """A fixed batch of Hermitian eigensolves, timed next to every item.

    The machine is shared: for seconds at a time another tenant's work
    slows every computation here by up to 1.7x, and how much of a run
    that covers differs from run to run (raw item times of one seed
    spread by 25-35 % between processes).  Dividing each item's wall
    time by the time of this solve, measured just before and just after
    the item, cancels most of that slow-down; multiplying by
    ``REFERENCE_SOLVE_S`` gives the time back in seconds at the quiet
    machine's speed.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((128, 6, 6)) + 1j * rng.standard_normal((128, 6, 6))
        self.stack = a + np.conj(np.swapaxes(a, -1, -2))
        self.eigvalsh = np.linalg.eigvalsh

    def time(self) -> float:
        """Shorter of two back-to-back solves (the second runs on warm caches)."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            self.eigvalsh(self.stack)
            best = min(best, time.perf_counter() - t0)
        return best


def run_items(wl, check, ref, stop, tracer=None, first=0):
    """Closed loop over items ``first``, ``first + 1``, ... until ``stop(count, elapsed)``.

    Returns each item's wall time, the reference-solve times before each
    item and after the last one, and the number of failed items.  With a
    tracer, each item is an item span and the workload's probes run after
    it.  The pool wraps if it runs out.
    """
    from tracing import NULL_TRACER

    lat, cal, failed = [], [], 0
    start = time.perf_counter()
    k = 0
    while not stop(k, time.perf_counter() - start):
        idx = (first + k) % wl.size
        cal.append(ref.time())
        t0 = time.perf_counter()
        sid = tracer.begin("item", None, "item") if tracer else None
        try:
            rec, ctx = wl.item(idx, tracer or NULL_TRACER, sid)
        except Exception as exc:  # counted as a failed item; the run goes on
            rec, ctx = exc, None
        if tracer:
            tracer.end(sid)
        lat.append(time.perf_counter() - t0)
        failed += not check(idx, rec)
        if tracer and ctx is not None:
            wl.probe(sid, ctx, tracer)
        k += 1
    cal.append(ref.time())
    return lat, cal, failed


def at_reference_speed(wall: list[float], cal: list[float]) -> list[float]:
    """Scale each wall time by the mean of the reference solves just before
    and just after it (``cal`` has one entry more than ``wall``).  Items of
    hundreds of milliseconds often see the contention change while they
    run; the pair tracks that better than the solve before alone."""
    return [2 * w * REFERENCE_SOLVE_S / (c0 + c1) for w, c0, c1 in zip(wall, cal, cal[1:])]


def item_percentile(lat: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile of the item times.

    Item times cluster by matrix size, and p50 and p90 fall near the edge
    between two size classes (in ``variety_classify``, p90 lies between
    the largest 4x4 and the smallest 5x5 empirical item).  A plain
    percentile there rests on one or two items and jumps between the
    classes from seed to seed; the Harrell-Davis estimate weights all
    order statistics near the percentile and does not.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(lat, prob=[q / 100])[0])


def pool_size(cls, seconds: float) -> int:
    """Items generated in set-up: ``cls.pool_rate`` items per measured second.

    ``pool_rate`` is four to five times the seed commit's throughput, so a
    faster program still meets fresh items; past the pool the loop wraps
    and repeats items (``pool_wraps`` in the summary says so).
    """
    return max(1, math.ceil(cls.pool_rate * seconds / cls.period)) * cls.period


def whole_periods(wl, seconds: float, min_items: int):
    """Stop at the first whole period past both ``seconds`` and ``min_items``."""
    return lambda k, el: el >= seconds and k >= min_items and k % wl.period == 0


def set_up(cls, seed, pool, ref, tracer=None):
    """Generate and validate ``pool`` items and one more period, then run
    the first item of that extra period as the warm-up.

    Returns the workload and the set-up time, raw and at reference speed;
    each period of generation and the warm-up item are timed against
    their own reference solves, as items are.
    """
    from tracing import NULL_TRACER

    wl = cls(seed, tracer or NULL_TRACER)
    wl.size = pool
    wall, cal = [], []
    for step in range(pool // cls.period + 2):
        cal.append(ref.time())
        t0 = time.perf_counter()
        if step <= pool // cls.period:
            wl.extend(cls.period)
        else:
            wl.item(pool)
        wall.append(time.perf_counter() - t0)
    cal.append(ref.time())
    return wl, sum(wall), sum(at_reference_speed(wall, cal))


def timed_run(cls, seed, seconds, pool):
    import resource
    import statistics

    import numpy as np

    ref = ReferenceSolve()
    setup_wall, setup = [], []
    for _ in range(SETUP_REPEATS):
        wl = None  # drop the previous pool before building the next
        wl, wall_s, ref_s = set_up(cls, seed, pool, ref)
        setup_wall.append(wall_s)
        setup.append(ref_s)
    check = Checker(wl, seed)
    wall, cal, failed = run_items(wl, check, ref, whole_periods(wl, seconds, min(MIN_ITEMS, pool)))
    # Read before anything else is imported (scipy.stats alone adds 25 MB).
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = at_reference_speed(wall, cal)
    n = len(lat)
    metrics = {
        "items_per_s": n / sum(lat),
        "item_p50_ms": 1e3 * item_percentile(lat, 50),
        "item_p90_ms": 1e3 * item_percentile(lat, 90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    summary = {
        "workload": wl.name, "seed": seed, "items": n, "failed": failed,
        "failed_frac": failed / n,
        "beyond_p90": sum(x > metrics["item_p90_ms"] / 1e3 for x in lat),
        "periods": n // wl.period, "pool": wl.size, "pool_wraps": (n - 1) // wl.size,
        "ref_checked": check.ref_checked,
        "wall_items_per_s": n / sum(wall),
        "wall_item_p50_ms": 1e3 * float(np.percentile(wall, 50)),
        "wall_item_p90_ms": 1e3 * float(np.percentile(wall, 90)),
        "wall_setup_s": statistics.median(setup_wall),
        "reference_solve_ms": {q: 1e3 * float(np.percentile(cal, q)) for q in (10, 50, 90)},
    }
    return metrics, summary, check, n, failed


def traced_run(cls, seed, seconds, pool):
    from tracing import Tracer, item_seconds, layer_metrics

    ref = ReferenceSolve()
    tr = Tracer()
    wl, _, _ = set_up(cls, seed, pool, ref, tr)
    check = Checker(wl, seed)
    # Each period runs twice, untraced and traced, and the pass that goes
    # first alternates, so warm-up and drift fall on both passes alike.
    # Periods are added until two thirds of ``seconds`` have gone, which
    # with the probes makes the run about as long as the timed one.
    wall = {False: [], True: []}
    scaled = {False: 0.0, True: 0.0}
    failed = periods = 0
    start = time.perf_counter()
    while periods == 0 or time.perf_counter() - start < 2 * seconds / 3:
        for traced in ((False, True) if periods % 2 == 0 else (True, False)):
            w, c, f = run_items(wl, check, ref, lambda k, el: k >= wl.period,
                                tracer=tr if traced else None, first=periods * wl.period)
            wall[traced] += w
            scaled[traced] += sum(at_reference_speed(w, c))
            failed += f
        periods += 1
    n = len(wall[False])
    m = layer_metrics(tr)
    vn_calls = m.get("von_neumann.vn_report.calls", 0)
    if vn_calls:
        pairs = tr.distinct.get("von_neumann.vn_report.pairs", ())
        m["von_neumann.vn_report.distinct_pair_ratio"] = len(pairs) / vn_calls
        m["von_neumann.vn_report.refined_share"] = m.get("von_neumann.vn_report.refined", 0) / vn_calls
    cd_calls = m.get("varieties.classify_distinguished.calls", 0)
    if cd_calls:
        m["varieties.classify_distinguished.empirical_share"] = (
            m.get("varieties.classify_distinguished.empirical", 0) / cd_calls)
    gc_calls = m.get("gamma_pairs.check_gamma_contraction.calls", 0)
    if gc_calls:
        m["gamma_pairs.check_gamma_contraction.grid_points"] /= gc_calls
    # Both passes at reference speed, so contention does not read as overhead.
    m["trace.overhead_frac"] = scaled[True] / scaled[False] - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{wl.name}-seed{seed}-spans.json"
    tr.write(spans_path)
    summary = {
        "workload": wl.name, "seed": seed, "items_per_pass": n,
        "failed": failed, "ref_checked": check.ref_checked,
        "spans": len(tr.spans), "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_item_wall_s": item_seconds(tr), "plain_item_wall_s": sum(wall[False]),
    }
    return m, summary, check, 2 * n, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = load_spec()
    cls = WORKLOADS[args.workload]
    pool = pool_size(cls, args.seconds)
    print("facts " + json.dumps(machine_facts(), sort_keys=True), flush=True)
    if args.trace:
        values, summary, check, attempted, failed = traced_run(cls, args.seed, args.seconds, pool)
        wanted = spec["per_layer"]
    else:
        values, summary, check, attempted, failed = timed_run(cls, args.seed, args.seconds, pool)
        wanted = spec["end_to_end"]
    print("summary " + json.dumps(summary, sort_keys=True), flush=True)
    for msg in check.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    # A layer this workload never calls reads 0.
    metrics = {w["name"]: {"value": float(values.get(w["name"], 0.0)), "unit": w["unit"]}
               for w in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
