"""The hopfkit benchmark: four workloads, end-to-end metrics, a traced run.

Run from the repository root::

    python3 bench/run.py --workload ladder --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Workloads (``workloads.py``): ``catalog``, ``twisted``, ``ladder``, ``cli``.
``BENCHMARK.json`` lists the last three; ``catalog`` runs on request.
One closed-loop client runs a workload's ops one after another, in whole
passes over the same seeded op list: at least ``MIN_PASSES`` passes, and
more while the next pass, timed like the last, still ends within
``--seconds``.  Whole passes keep the op mix, and so every percentile, the
same from run to run.  Every op's observation is compared with the pinned
results in ``expected.py``; an op that raises or deviates counts as failed
(``failed``/``attempted`` is the fail ratio).

``--trace 0`` reports the end-to-end metrics.  Op latencies are given in
reference units (``ref``): an op's wall time divided by the mean wall time
of a fixed pure-Python loop (``reference_s``) timed just before and just
after it.  The run and every process it starts share one CPU, so the loop
runs where the ops run.  On a shared two-vCPU virtual machine whose speed
swung by up to 1.6x within seconds and drifted by a third between minutes,
the spread (IQR/median) over ten seeds of a run's wall-time p50 was
0.09-0.37; in the same runs every end-to-end latency and rate in reference
units spread 0.016-0.069.  A change that makes an op k times faster makes
its reference units k times smaller.  Wall-clock milliseconds are printed
and kept in the result file.

* ``latency_p50_ref``: the median over the workload's ops of each op's
  median latency (Harrell-Davis estimate, as are all the quantiles here; a
  median over all samples moved with the number of passes that ran);
* ``latency_tail_ref``: the highest percentile of op latency with ten
  samples beyond it at ``MIN_PASSES`` passes (fixed per workload, printed),
  estimated with the weights of that many samples;
* ``latency_largest_p50_ref``: the p50 over the ops on the workload's largest
  carrier (order 16 on ``ladder``); the result file has the p50 per order;
* ``ops_per_kref``: successful ops per thousand reference units of op time;
* ``peak_rss_mb``: peak resident memory of this process, or of the largest
  hopfkit process on ``cli``;
* ``setup_s``: import plus input construction in seconds, median of
  ``SETUP_REPS``.

``--trace 1`` is the separate traced run: spans and counters around calls
into every hopfkit layer (``tracing.py``), reported per pass, plus the
fixed-size kernel timings (``kernels.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes a
stamped result file, ``.bench_out/<workload>-seed<seed>-trace<t>.json``; the
traced run writes its spans to ``.bench_out/<workload>-seed<seed>-spans.jsonl``
and, when the untraced result of the same seed is there, the tracing overhead.
Self-tests: ``python3 -m pytest bench``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MODULES = ("fields", "linmap", "solve", "structures", "truss", "post_hopf",
           "rota_baxter", "groups", "factories", "storage")
SETUP_REPS = 5
# enough passes that the tail percentile has ten samples beyond it
MIN_PASSES = {"catalog": 2, "twisted": 2, "ladder": 4, "cli": 2}
TAIL_BEYOND = 10
STEPS = 16
# iterations of the reference loop, 4-7 ms on a 2-vCPU Xeon VM; a loop three
# times longer did not make the op latencies steadier
REFERENCE_N = 1500

END_TO_END = (
    ("latency_p50_ref", "ref"),
    ("latency_tail_ref", "ref"),
    ("latency_largest_p50_ref", "ref"),
    ("ops_per_kref", "1/kref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (metric, span): the span's calls, or its self seconds, per pass
SPAN_CALLS = (
    ("linmap.tensor_calls", "linmap.tensor"),
    ("linmap.compose_calls", "linmap.compose"),
    ("linmap.first_mismatch_calls", "linmap.first_mismatch"),
    ("solve.rref_calls", "solve.rref"),
    ("structures.convolution_inverse_calls", "structures.convolution_inverse"),
)
SPAN_SELF = (
    ("linmap.tensor_s", "linmap.tensor"),
    ("linmap.compose_s", "linmap.compose"),
    ("linmap.first_mismatch_s", "linmap.first_mismatch"),
    ("solve.rref_s", "solve.rref"),
    ("structures.convolution_inverse_s", "structures.convolution_inverse"),
    ("truss.check_truss_s", "truss.check_truss"),
    ("truss.check_truss_derived_s", "truss.check_truss_derived"),
    ("post_hopf.check_twisted_s", "post_hopf.check_twisted"),
    ("post_hopf.derived_antipode_suite_s", "post_hopf.derived_antipode_suite"),
    ("post_hopf.post_hopf_from_truss_s", "post_hopf.post_hopf_from_truss"),
    ("post_hopf.truss_from_post_hopf_s", "post_hopf.truss_from_post_hopf"),
    ("rota_baxter.rota_baxter_from_truss_s", "rota_baxter.rota_baxter_from_truss"),
    ("storage.loads_s", "storage.loads"),
    ("storage.dumps_s", "storage.dumps"),
    ("cli.import_s", "cli.import"),
)
COUNTS = (
    ("fields.mul_calls", "count"),
    ("linmap.nnz_built", "count"),
    ("structures.laws_checked", "count"),
    ("structures.laws_failed", "count"),
    ("storage.bytes_read", "B"),
    ("storage.bytes_written", "B"),
)
# self time per set-up, from the traced set-ups
SETUP_SELF = (
    ("groups.idempotent_endos_s", "groups.idempotent_endos"),
    ("groups.semidirect_group_s", "groups.semidirect_group"),
    ("factories.group_algebra_s", "factories.group_algebra"),
    ("rota_baxter.truss_from_idempotent_s", "rota_baxter.truss_from_idempotent"),
)
KERNELS = (
    ("kernel.field_mul_q_ns", "ns"),
    ("kernel.field_mul_gf5_ns", "ns"),
    ("kernel.tensor_i1_c_i1_n8_ms", "ms"),
    ("kernel.compose_delta_mu_n8_ms", "ms"),
    ("kernel.first_mismatch_equal_n8_ms", "ms"),
    ("kernel.convolution_inverse_n8_ms", "ms"),
)
PER_LAYER = (
    [(name, "count") for name, _ in SPAN_CALLS]
    + [(name, "s") for name, _ in SPAN_SELF]
    + list(COUNTS)
    + [("fields.mul_trivial_ratio", "ratio"), ("linmap.max_cols", "count"),
       ("solve.max_unknowns", "count"), ("cli.process_s", "s"),
       ("trace.pass_s", "s")]
    + [(name, "s") for name, _ in SETUP_SELF]
    + list(KERNELS)
)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quantile(xs, p, width=None):
    """Harrell-Davis estimate of the ``p``-quantile, ``p`` in (0, 1).

    A mean of all order statistics weighted by the Beta(p(m+1), (1-p)(m+1))
    density, where ``m`` is ``width`` or, by default, the sample count.  A
    plain quantile jumps when it falls between two op sizes; this one moves
    smoothly, which keeps mixed workloads steady from run to run.  A fixed
    ``width`` also keeps the weights' spread from changing with the number
    of passes that ran.  The density is integrated with the trapezoid rule,
    ``STEPS`` per sample.
    """
    xs = sorted(xs)
    n = len(xs)
    m = n if width is None else width
    a, b = p * (m + 1) - 1, (1 - p) * (m + 1) - 1
    if a < 0 or b < 0:  # too few samples for the density to be bounded
        return xs[min(n - 1, int(p * n))]
    steps = STEPS * n
    logs = [a * math.log(k / steps) + b * math.log1p(-k / steps)
            for k in range(1, steps)]
    top = max(logs)
    dens = [0.0] + [math.exp(v - top) for v in logs] + [0.0]
    weights = [sum(dens[i * STEPS:(i + 1) * STEPS + 1])
               - (dens[i * STEPS] + dens[(i + 1) * STEPS]) / 2 for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(n):
    """The highest whole percentile with ``TAIL_BEYOND`` of ``n`` samples
    above its rank.  It is fixed per workload from the guaranteed sample count
    (``MIN_PASSES`` passes), so every run reports the same percentile."""
    for p in range(99, 0, -1):
        if n - 1 - int((n - 1) * p / 100) >= TAIL_BEYOND:
            return p
    return 50


def exact(x, passes):
    """A total per pass, kept an int when the division is exact."""
    return x // passes if x % passes == 0 else x / passes


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def import_hopfkit():
    """Import hopfkit afresh from this checkout; set-up time includes it."""
    for name in [m for m in sys.modules if m == "hopfkit" or m.startswith("hopfkit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hopfkit")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"hopfkit imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"hopfkit.{m}") for m in MODULES})


def reference_s():
    """Wall seconds of a fixed pure-Python loop: the unit of op latency.

    It exercises what hopfkit's kernels spend their time on (``Fraction``
    arithmetic, dict updates) but imports nothing from hopfkit, so no change
    to the program can change it.  Callers run it with the collector off."""
    t0 = time.perf_counter()
    acc, total = {}, Fraction(0)
    for i in range(1, REFERENCE_N):
        acc[i % 97] = acc.get(i % 97, 0) + i * 3
        total += Fraction(i % 7, i % 5 + 1)
    sorted(acc.items())
    return time.perf_counter() - t0


def measure(ops, seconds, min_passes, tracer=None):
    """Run whole passes over ``ops``; return latencies and failures.

    Each successful op is kept as ``(name, order, wall seconds, reference
    units)``, the units being its wall time over the mean of the reference
    loops timed right before and right after it (one loop sits between two
    ops, so each serves both).

    The cyclic garbage collector is off while an op runs and a full
    collection runs before each op, outside the timed region.  hopfkit's
    data holds no reference cycles, so the collector frees nothing during an
    op; left on, its pauses land at arbitrary points and made the same op's
    time vary by +-13% instead of +-3%.
    """
    done, failures, refs = [], [], []
    attempted = passes = 0
    busy = last = 0.0
    clock = time.perf_counter
    start = clock()
    gc.disable()
    before = reference_s()
    gc.enable()
    while passes < min_passes or clock() - start + last <= seconds:
        pass_start = clock()
        for op in ops:
            gc.collect()
            if tracer is not None:
                tracer.begin_op(f"{passes}/{op.name}")
            gc.disable()
            t0 = clock()
            try:
                got = op.run()
                ok = got == op.expected
            except Exception:
                got, ok = traceback.format_exc(limit=3), False
            dt = clock() - t0
            if tracer is not None:
                tracer.end_op()
            after = reference_s()
            gc.enable()
            refs.append(after)
            attempted += 1
            busy += dt
            if ok:
                done.append((op.name, op.order, dt, 2 * dt / (before + after)))
            else:
                failures.append((op.name, repr(got)[:2000]))
            before = after
        passes += 1
        last = clock() - pass_start
    return SimpleNamespace(done=done, failures=failures, attempted=attempted,
                           passes=passes, busy=busy, refs=refs)


def op_medians(done, col):
    """``{op name: (order, median of column col over its runs)}``."""
    runs = {}
    for row in done:
        runs.setdefault(row[0], (row[1], []))[1].append(row[col])
    return {name: (order, statistics.median(v)) for name, (order, v) in runs.items()}


def p50_at(medians, order=None):
    """The median over ops (those on carriers of ``order``, if given) of
    each op's own median: the typical op, unmoved by how many passes ran."""
    return quantile([m for o, m in medians.values() if order in (None, o)], 0.5)


def end_to_end(workload, run, n_ops, setup_times):
    units = [u for _, _, _, u in run.done]
    wall = [dt for _, _, dt, _ in run.done]
    op_units, op_wall = op_medians(run.done, 3), op_medians(run.done, 2)
    orders = sorted({order for order, _ in op_units.values()})
    largest = orders[-1]
    tail_n = MIN_PASSES[workload] * n_ops
    tail_p = tail_percentile(tail_n)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    n = len(units)
    metrics = {
        "latency_p50_ref": (p50_at(op_units), n),
        "latency_tail_ref": (quantile(units, tail_p / 100, tail_n), n),
        "latency_largest_p50_ref": (p50_at(op_units, largest),
                                    sum(1 for _, o, _, _ in run.done if o == largest)),
        "ops_per_kref": (1e3 * n / sum(units), n),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, 1),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
    }
    extra = {"tail_percentile": tail_p, "largest_order": largest,
             "reference_ms": {"p50": statistics.median(run.refs) * 1e3,
                              "min": min(run.refs) * 1e3,
                              "max": max(run.refs) * 1e3,
                              "samples": len(run.refs)},
             "wall": {"latency_p50_ms": p50_at(op_wall) * 1e3,
                      "latency_tail_ms": quantile(wall, tail_p / 100, tail_n) * 1e3,
                      "latency_largest_p50_ms": p50_at(op_wall, largest) * 1e3,
                      "ops_per_s": n / run.busy},
             "p50_by_op": {name: {"ref": m, "wall_s": op_wall[name][1]}
                           for name, (_, m) in op_units.items()},
             "p50_by_order": {
                 f"n{order}": {"ref": p50_at(op_units, order),
                               "wall_s": p50_at(op_wall, order),
                               "ops": sum(1 for o, _ in op_units.values() if o == order)}
                 for order in orders}}
    return metrics, extra


def per_layer(tracer, passes, setup_tracers, kernels, pass_s):
    table = tracer.layer_table()
    counts = tracer.counts
    metrics = {}
    for name, span in SPAN_CALLS:
        metrics[name] = (exact(table.get(span, (0, 0.0, 0.0))[0], passes), passes)
    for name, span in SPAN_SELF:
        metrics[name] = (table.get(span, (0, 0.0, 0.0))[1] / passes, passes)
    for name, _ in COUNTS:
        metrics[name] = (exact(counts[name], passes), passes)
    muls = counts["fields.mul_calls"]
    metrics["fields.mul_trivial_ratio"] = (
        counts["fields.mul_trivial"] / muls if muls else 0.0, passes)
    metrics["linmap.max_cols"] = (counts["linmap.max_cols"], passes)
    metrics["solve.max_unknowns"] = (counts["solve.max_unknowns"], passes)
    metrics["cli.process_s"] = (table.get("cli.process", (0, 0.0, 0.0))[2] / passes, passes)
    metrics["trace.pass_s"] = (pass_s, passes)
    setup_tables = [t.layer_table() for t in setup_tracers]
    for name, span in SETUP_SELF:
        metrics[name] = (statistics.median(t.get(span, (0, 0.0, 0.0))[1]
                                           for t in setup_tables), len(setup_tables))
    metrics.update(kernels)
    return metrics, table


def git_commit():
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args):
    from tracing import Tracer
    from workloads import WORKLOADS, CliRunner

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    cli = CliRunner(str(SRC), str(workdir))
    try:
        setup_times, setup_tracers = [], []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            hk = import_hopfkit()
            tracer = Tracer() if args.trace else None
            if tracer is not None:
                tracer.install()
                tracer.begin_op(f"setup/{rep}", "setup")
            try:
                ops = WORKLOADS[args.workload](hk, args.seed, cli)
            finally:
                if tracer is not None:
                    tracer.end_op()
                    tracer.uninstall()
                    setup_tracers.append(tracer)
            setup_times.append(time.perf_counter() - t0)

        tracer = None
        if args.trace:
            tracer = cli.tracer = Tracer()
            tracer.install()
        t_origin = time.perf_counter()
        try:
            # the traced run reports per pass and needs no tail, so one pass will do
            run = measure(ops, args.seconds,
                          1 if args.trace else MIN_PASSES[args.workload], tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
                cli.tracer = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    doc = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": git_commit(),
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "passes": run.passes, "ops_per_pass": len(ops),
        "attempted": run.attempted, "failed": len(run.failures),
        "fail_ratio": len(run.failures) / run.attempted,
        "pass_s": run.busy / run.passes,
        "pass_ref": sum(u for _, _, _, u in run.done) / run.passes,
        "failures": [{"op": name, "got": got} for name, got in run.failures[:20]],
    }
    if args.trace:
        from kernels import run_kernels
        metrics, table = per_layer(tracer, run.passes, setup_tracers,
                                   run_kernels(hk), doc["pass_s"])
        doc["layers"] = {name: {"calls": exact(calls, run.passes),
                                "self_s": self_s / run.passes}
                         for name, (calls, self_s, _) in sorted(table.items())}
        untraced = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())
            doc["trace_overhead_s_per_pass"] = doc["pass_s"] - base["pass_s"]
            # the wall-time difference carries the host's drift between the runs
            doc["trace_overhead_ref_per_pass"] = doc["pass_ref"] - base["pass_ref"]
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", t_origin)
        units = dict(PER_LAYER)
    else:
        if not run.done:
            raise RuntimeError("every op failed; no latency to report")
        metrics, extra = end_to_end(args.workload, run, len(ops), setup_times)
        doc.update(extra)
        units = dict(END_TO_END)
    doc["metrics"] = {name: {"value": value, "unit": units[name], "samples": samples}
                      for name, (value, samples) in metrics.items()}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    report(doc)
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, (value, _) in metrics.items()}}


def report(doc):
    print(f"workload {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}  "
          f"passes {doc['passes']} x {doc['ops_per_pass']} ops  "
          f"failed {doc['failed']}/{doc['attempted']} "
          f"(fail_ratio {doc['fail_ratio']:.4f})  pass {doc['pass_s']:.3f} s")
    for f in doc["failures"]:
        print(f"  FAILED {f['op']}: {f['got'][:300]}")
    if "tail_percentile" in doc:
        ref = doc["reference_ms"]
        print(f"  tail = p{doc['tail_percentile']}; largest carrier n = {doc['largest_order']}; "
              f"reference loop {ref['p50']:.3f} ms (min {ref['min']:.3f}, "
              f"max {ref['max']:.3f}, {ref['samples']} samples)")
        for order, m in doc["p50_by_order"].items():
            print(f"  p50 at {order:<4} {m['ref']:10.4f} ref  {m['wall_s']:.6f} s  "
                  f"({m['ops']} ops)")
        for name, value in sorted(doc["wall"].items()):
            print(f"  wall {name:<33} {value:>16.6f}")
    if "layers" in doc:
        wall = doc["pass_s"]
        print(f"  {'span':<38} {'calls/pass':>12} {'self s/pass':>12} {'share':>7}")
        for name, row in sorted(doc["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<38} {row['calls']:>12} {row['self_s']:>12.6f} "
                  f"{row['self_s'] / wall:>7.1%}")
        if "trace_overhead_s_per_pass" in doc:
            print(f"  tracing overhead per pass: {doc['trace_overhead_s_per_pass']:.3f} s, "
                  f"{doc['trace_overhead_ref_per_pass']:.1f} ref")
    for name, m in sorted(doc["metrics"].items()):
        print(f"  {name:<38} {m['value']:>16.6f} {m['unit']:<6} ({m['samples']} samples)")


def run_all(args):
    """Every workload, each in its own process; exit 1 if any is not correct."""
    from workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        ok = ok and proc.returncode == 0 and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["catalog", "twisted", "ladder", "cli", "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "hopfkit" / "__init__.py").is_file():
        print(f"error: no hopfkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for this process and every hopfkit process it starts, so that
    # the reference loop runs where the ops run
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
