"""Benchmark for the `bethe` library.

    python3 perfbench/run.py --workload {gct,perm,zbm} --seed N --seconds S --trace {0,1}

Run from the repository root. Each run is one process driving the
library from `src/` through its public functions, one op at a time
(closed loop, one client). A run makes a fixed set of inputs from
`--seed` and cycles through it in passes. The first run of each input
is checked outside the timed region; every later run of it must return
the same numbers.

`--trace 0` measures the end-to-end metrics for about `--seconds` of op
time, op time divided by a reference task's time (unit `ref`) so that
the shared host's changing speed cancels. `--trace 1` runs each op
twice, untraced and with every public function of the library's modules
wrapped, for about `--seconds` of op time in all, and reports per-layer
metrics from the traced runs.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it
give the environment and each metric by name with its unit. Results
and, for traced runs, the spans are also written under
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("gct", "perm", "zbm")
LAYERS = ("graphio", "nfg", "contraction", "spa", "covers", "lct", "sst", "perm", "coeffs", "gct")
SETUP_SAMPLES = 5
# `setup_s` is reported for a host on which one `ref` takes this long
# (about the reference's median on the 2-core VM in README.md)
REF_NOMINAL_S = 0.07
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "ops_per_ref": "1/ref",
    "op_p50_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--max-ops", type=int, default=None, help="stop after this many ops (self-test)"
    )
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="import the library, make the run's inputs and exit",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.max_ops is not None and args.max_ops < 1:
        p.error("--max-ops must be at least 1")
    return args


# -- set-up ------------------------------------------------------------------


def load_workload(name, seed):
    """Import the library from `src/` and make the run's inputs; this is
    everything a run does before its first timed op."""
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[name]()
    return wl, [wl.make_input(seed, i) for i in range(wl.round * wl.rounds)]


def measure_setup(args, reference):
    """Time fresh processes that do the set-up and exit, each divided by
    the mean of the reference times before and after it. Returns (the
    median of these in `ref` times `REF_NOMINAL_S`, the median wall
    time)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    walls, costs = [], []
    reference()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        walls.append(time.perf_counter() - start)
        reference()
        costs.append(2 * walls[-1] / sum(reference.times[-2:]))
    return statistics.median(costs) * REF_NOMINAL_S, statistics.median(walls)


# -- the timed loop ------------------------------------------------------------


def _run_op(wl, inp, first_key, tracer=None, after=None):
    """Run one op; return (seconds, list of problems, key of its output).
    The output is checked when `first_key` is None and must equal it
    otherwise. With a tracer, the wrappers are installed around the op
    and removed after it. `after` is called between the op and its
    check."""
    if tracer is not None:
        tracer.install("bethe", LAYERS)
        tracer.recording = True
    start = time.perf_counter()
    try:
        out = wl.run(inp)
        error = None
    except Exception:
        error = traceback.format_exc()
    elapsed = time.perf_counter() - start
    if after is not None:
        after()
    if tracer is not None:
        tracer.recording = False
        tracer.uninstall()
    if error is not None:
        return elapsed, [error], None
    try:
        key = wl.key(out)
        if first_key is None:
            return elapsed, wl.check(inp, out), key
        if key != first_key:
            return elapsed, [f"output {key!r} differs from the checked {first_key!r}"], key
        return elapsed, [], key
    except Exception:
        return elapsed, [traceback.format_exc()], None


class Reference:
    """A fixed task that uses nothing of the library: a pure-Python dict
    loop, a loop of numpy calls on 8-element arrays and a complex numpy
    `tensordot`, the three kinds of work the library's ops are made of,
    about 50 ms in all. Timed between ops, it measures how fast the
    shared host runs at that moment; its time is the unit `ref`. Each
    call appends its time to `times`."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.table = rng.random((96, 96, 32)) + 1j * rng.random((96, 96, 32))
        self.matrix = rng.random((32, 96))
        self.small = rng.random((8, 8)) / 8
        self.vector = rng.random(8)
        self.tanh = np.tanh
        self.tensordot = np.tensordot
        self._task()  # warm-up: the first call allocates
        self.times = []

    def _task(self):
        d = {}
        for k in range(100_000):
            d[k % 97] = d.get(k % 97, 0.0) * 0.5 + k * 1.5
        x = self.vector
        for _ in range(2000):
            x = self.tanh(self.small @ x) * 0.5 + self.vector
        for _ in range(3):
            self.tensordot(self.table, self.matrix, axes=([2], [0]))

    def __call__(self):
        start = time.perf_counter()
        self._task()
        self.times.append(time.perf_counter() - start)


def run_ops(wl, inputs, *, seconds, max_ops=None, tracer=None, reference=None):
    """Run ops 0, 1, ..., op `i` on input `i % len(inputs)`, until
    `seconds` of untraced op time have passed at a round boundary, or
    `max_ops` ops have run. With a tracer, each op also runs traced,
    before or after the untraced run in alternate ops, so the two sets
    of times pair up. With a reference, it is timed before the first op
    and after every op (before the op's output check), so that op `i`
    lies between `reference.times[i]` and `reference.times[i + 1]`.
    Returns (untraced times in op order, traced times, op runs, failed
    runs)."""
    times, traced, keys = [], [], {}
    runs = failed = 0
    if reference is not None:
        reference()
    i = 0
    while max_ops is None or i < max_ops:
        if i % wl.round == 0 and sum(times) >= seconds:
            break
        k = i % len(inputs)
        modes = (None,) if tracer is None else ((None, tracer) if i % 2 else (tracer, None))
        for tr in modes:
            if tr is not None:
                tr.op = i
            elapsed, problems, key = _run_op(wl, inputs[k], keys.get(k), tr, reference)
            (times if tr is None else traced).append(elapsed)
            runs += 1
            if k not in keys and not problems:
                keys[k] = key
            if problems:
                failed += 1
                print(f"op {i} failed: " + "; ".join(problems), file=sys.stderr)
        i += 1
    return times, traced, runs, failed


# -- metrics -------------------------------------------------------------------


def round_means(times, size):
    """Time per op of each whole round of `size` ops; all the ops as one
    round if there is no whole round. A round mixes the workload's op
    kinds, so the median of these is well defined where the median of
    single ops of different kinds is not."""
    rounds = [times[j : j + size] for j in range(0, len(times) - size + 1, size)]
    return [sum(r) / size for r in rounds] or [sum(times) / len(times)]


def _div(a, b):
    return a / b if b else 0.0


def _spa_run_hook(tr, result, args, kwargs, duration):
    report = result[1]
    tr.count("spa.iterations", report.iterations)
    tr.count("spa.rerandomized", report.rerandomized)
    tr.count("spa.near_zero", report.near_zero_normalizers)
    tr.count("spa.converged_ok", int(report.converged and not report.degenerate))


def _zbm_via_pe_hook(tr, result, args, kwargs, duration):
    M = args[1] if len(args) > 1 else kwargs["M"]
    if M == 4:
        tr.count("sst.pe_M4_s", duration)


HOOKS = {
    "spa.spa_run": _spa_run_hook,
    "covers.degree_m_bethe": lambda tr, r, a, k, d: tr.count(
        "covers.covers_evaluated", r.covers_evaluated
    ),
    "perm.perm_sinkhorn_scaled": lambda tr, r, a, k, d: tr.count(
        "perm.sinkhorn_iters", r.aux["iterations"]
    ),
    "sst.zbm_via_pe": _zbm_via_pe_hook,
    "sst.zbm_via_sst_mc": lambda tr, r, a, k, d: tr.count("sst.mc_samples", r.samples),
}


def layer_metrics(tr, ops, overhead):
    """Per-layer metrics of a traced pass. Counts and times are per op
    (`/op` units) so that runs of different length compare; `_ms`
    metrics are means per call; self time excludes wrapped children."""
    c = tr.counters.get
    per_op = lambda x: x / ops  # noqa: E731
    runs = tr.calls("spa.spa_run")
    contractions = tr.calls("contraction.contract_network")
    covers_evaluated = c("covers.covers_evaluated", 0)
    mc_s = tr.total("sst.zbm_via_sst_mc")
    values = {
        "spa.runs": (per_op(runs), "count/op"),
        "spa.iterations": (per_op(c("spa.iterations", 0)), "count/op"),
        "spa.step_ms": (1000 * _div(tr.total("spa.spa_step"), tr.calls("spa.spa_step")), "ms"),
        "spa.run_self_s": (per_op(tr.self_time("spa.spa_run")), "s/op"),
        "spa.best_fixed_point_s": (per_op(tr.total("spa.best_fixed_point")), "s/op"),
        "spa.converged_frac": (_div(c("spa.converged_ok", 0), runs), "frac"),
        "spa.rerandomized": (per_op(c("spa.rerandomized", 0)), "count/op"),
        "spa.near_zero": (per_op(c("spa.near_zero", 0)), "count/op"),
        "contraction.calls": (per_op(contractions), "count/op"),
        "contraction.self_s": (per_op(tr.self_time("contraction.contract_network")), "s/op"),
        "contraction.min_fill_s": (per_op(tr.total("contraction.min_fill_order")), "s/op"),
        "contraction.call_ms": (
            1000 * _div(tr.total("contraction.contract_network"), contractions),
            "ms",
        ),
        "nfg.partition_function_calls": (
            per_op(tr.calls("nfg.partition_function_exact")),
            "count/op",
        ),
        "nfg.partition_function_self_s": (
            per_op(tr.self_time("nfg.partition_function_exact")),
            "s/op",
        ),
        "covers.covers_evaluated": (per_op(covers_evaluated), "count/op"),
        "covers.build_cover_s": (per_op(tr.total("covers.build_cover")), "s/op"),
        "covers.self_s": (per_op(tr.self_time("covers")), "s/op"),
        "covers.per_cover_ms": (
            1000 * _div(tr.total("covers.degree_m_bethe"), covers_evaluated),
            "ms",
        ),
        "lct.transform_s": (per_op(tr.total("lct.lct_transform")), "s/op"),
        "sst.pe_s": (per_op(tr.total("sst.zbm_via_pe")), "s/op"),
        "sst.pe_M4_s": (per_op(c("sst.pe_M4_s", 0.0)), "s/op"),
        "sst.mc_s": (per_op(mc_s), "s/op"),
        "sst.mc_samples_per_s": (_div(c("sst.mc_samples", 0), mc_s), "1/s"),
        "perm.exact_calls": (per_op(tr.calls("perm.perm_exact")), "count/op"),
        "perm.exact_s": (per_op(tr.total("perm.perm_exact")), "s/op"),
        "perm.bethe_self_s": (per_op(tr.self_time("perm.perm_bethe")), "s/op"),
        "perm.sinkhorn_s": (per_op(tr.total("perm.perm_sinkhorn_scaled")), "s/op"),
        "perm.sinkhorn_iters": (per_op(c("perm.sinkhorn_iters", 0)), "count/op"),
        "perm.lift_s": (per_op(tr.total("perm.perm_bethe_degree_m")), "s/op"),
        "perm.kron_s": (per_op(tr.total("perm.perm_sinkhorn_degree_m")), "s/op"),
        "perm.ratio2_s": (per_op(tr.total("perm.perm_ratio_degree2")), "s/op"),
        "coeffs.self_s": (per_op(tr.self_time("coeffs")), "s/op"),
        "graphio.parse_s": (
            per_op(tr.total("graphio.parse_graph_json") + tr.total("graphio.parse_matrix")),
            "s/op",
        ),
        "gct.check_condition_s": (per_op(tr.total("gct.check_condition")), "s/op"),
        "gct.self_s": (per_op(tr.self_time("gct")), "s/op"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


# -- environment -----------------------------------------------------------------


def _git(*args):
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
    }


# -- main ------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bethe" / "__init__.py").is_file():
        sys.exit(f"no library sources at {SRC / 'bethe'}; run from a full checkout")
    # numpy's own threads: one, so that a run is a single thread of work
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.setup_only:
        load_workload(args.workload, args.seed)
        return 0

    if not args.trace:
        reference = Reference()
        setup_s, setup_wall_s = measure_setup(args, reference)
    wl, inputs = load_workload(args.workload, args.seed)
    env = environment()
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(HOOKS)
        times, traced, attempted, failed = run_ops(
            wl, inputs, seconds=args.seconds / 2, max_ops=args.max_ops, tracer=tracer
        )
        overhead = 1.0 - sum(times) / sum(traced)
        metrics = layer_metrics(tracer, len(traced), overhead)
        refs, raw = [], {}
    else:
        reference.times.clear()
        times, _, attempted, failed = run_ops(
            wl, inputs, seconds=args.seconds, max_ops=args.max_ops, reference=reference
        )
        refs = reference.times
        # each op in units of the mean of the reference times around it
        costs = [2 * t / (a + b) for t, a, b in zip(times, refs, refs[1:])]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_ref": len(costs) / sum(costs),
            "op_p50_ref": statistics.median(round_means(costs, wl.round)),
            "setup_s": setup_s,
            "peak_rss_mb": rss_kb / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        raw = {
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(round_means(times, wl.round)), "s"),
            "ref_s": (statistics.median(refs), "s"),
            "setup_wall_s": (setup_wall_s, "s"),
        }

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        record = {"env": env, "result": result, "op_times_s": times, "ref_times_s": refs}
        if not args.trace:
            record["op_costs_ref"] = costs
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(f"{stem}-spans.json")

    print("env " + json.dumps(env, sort_keys=True))
    timed = len(times)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace} "
        f"ops {attempted} inputs {len(inputs)}"
    )
    rounds = f" (median of {len(times) // wl.round} rounds of {wl.round} ops)"
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}{rounds if name == 'op_p50_ref' else ''}")
    for name, (value, unit) in raw.items():
        note = rounds if name == "op_p50_s" else " (wall time, not normalised)"
        print(f"{name} {value!r} {unit}{note}")
    print(f"failed_frac {failed / attempted!r} frac (failed / attempted)")
    print(
        f"no tail percentile: {timed} ops are too few for a p90 with ten "
        "samples beyond it (that needs 100)"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
