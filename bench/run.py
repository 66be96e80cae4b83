"""plumbcalc benchmark: four seeded workloads, checked answers, traced layers.

    python3 bench/run.py [--workload words|forms|dense|cli|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout; plumbcalc is imported from ./src
and nothing is installed.  Each workload is a closed loop with one client,
pinned to one CPU: operations are issued one at a time, each is timed alone
under a per-operation deadline, and each answer is compared with an
independent oracle outside the timed region.  Inputs are made round by
round from the seed; every round has the same shape, and whole rounds run
until ``--seconds`` have passed and at least 100 operations were attempted
(at least one round: a ``forms`` round spends 30 s in missed deadlines
alone, so on code that hangs a ``forms`` run is one round).  A round runs in one or more fresh worker processes, one after
another (see :func:`run_round`), and each worker first warms up on a few
operations of each function, untimed.

Times are CPU time (of the worker, or for ``cli`` of the plumbcalc
processes it starts), scaled to a fixed host speed by a reference
computation timed between operations (see REFERENCE_NOMINAL_S); the report
lines above the JSON also print them unscaled, and in wall-clock time.
The deadline counts CPU time too, except for ``cli``.

``--trace 0`` prints the end-to-end metrics:

* ``ops_per_s``  correct operations per second spent inside operations,
  a failure counting at the deadline (oracle checks and round generation
  are left out of the time);
* ``p50_ms``, ``p90_ms``  per-operation latency, a failure counting at the
  deadline;
* ``ok_ratio``  correct operations over attempted ones (1 - fail_ratio; the
  report lines also print fail_ratio and the failure kinds);
* ``setup_s``  median over repeats of importing plumbcalc (each in a fresh
  interpreter) plus the median over repeats of building the first round's
  plumbcalc objects;
* ``peak_rss_mb``  peak resident memory of a round, median over rounds: the
  largest peak of the round's worker processes (for ``cli``, of the
  plumbcalc processes they started).

``--trace 1`` runs the workload twice, for half the time each: untraced,
then with spans around every public plumbcalc function, and prints the
per-layer metrics from the traced half, with ``trace.ops_ratio`` (traced
over untraced ops_per_s) as the tracing overhead.  Per layer: calls, busy
and self seconds and failed calls, each per round; mean milliseconds per
call on each ladder rung, with the growth factor per doubling of size.
Span times are wall time, unscaled.  For ``cli`` both halves call
``cli.main`` in process, since spans cannot cross into a child.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when an
answer was wrong or an operation raised an unexpected exception; a missed
deadline is a failure but not a wrong answer.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from math import log2
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "plumbcalc-bench"
WORKLOADS = ("words", "forms", "dense", "cli")
SETUP_REPEATS = 5
# At least this many operations a run, so that ten lie beyond the 90th
# percentile (a cli round is 11 processes, about 2.5 s).
MIN_OPS = 100
IMPORT_PROBE = (
    "import time; t = time.thread_time(); import plumbcalc, plumbcalc.cli; "
    "print(time.thread_time() - t)"
)

END_TO_END = (
    ("ops_per_s", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms"),
    ("ok_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


class Deadline(BaseException):
    """Raised by SIGPROF or SIGALRM inside an operation that ran past its deadline."""


def _on_alarm(signum, frame):
    raise Deadline


def _import_plumbcalc():
    """Import plumbcalc from this checkout's src/, and nowhere else."""
    if not (SRC / "plumbcalc" / "__init__.py").is_file():
        sys.exit(f"bench: no plumbcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import plumbcalc

    if Path(plumbcalc.__file__).resolve().parent != SRC / "plumbcalc":
        sys.exit(f"bench: imported plumbcalc from {plumbcalc.__file__}, not {SRC}")


# ---------------------------------------------------------------- host speed

# On a shared host the speed of the same computation drifts, by up to a
# factor of two over minutes, in CPU time as well as in wall time
# (neighbours on the same cores and caches), and a run lasts less than one
# such phase.  So every time is scaled to a fixed host speed: a fixed
# computation in the benchmark's own code, close in kind to plumbcalc's work
# (exact integer elimination, 2x2 integer products, tuple keys in a dict, a
# sort), is timed every REFERENCE_EVERY_S while operations run, and each
# time a worker measures is multiplied by REFERENCE_NOMINAL_S over the
# median time of the reference in that worker.  Over four minutes in one
# process, this cut the spread (IQR over median) of 20-second windows from
# 0.08 to 0.01 for small dense operations and from 0.08 to 0.04 for words
# operations.  REFERENCE_NOMINAL_S is the reference's typical CPU time on a
# 2-vCPU Xeon VM with Python 3.11.7, so that the scaled times read as times
# on that host.  plumbcalc's code takes no part in the reference, so a
# change to plumbcalc moves the scaled times as it moves the raw ones.
REFERENCE_NOMINAL_S = 0.0055
REFERENCE_EVERY_S = 0.25
WARM_UP_S = 0.01
WARM_UP_CALLS = 3
WORKER_TIMEOUT_S = 170


def _reference_inputs():
    rng = random.Random("reference")
    rows = [[rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
    word = tuple(rng.choice((2, 3, 4)) for _ in range(300))
    return rows, word


REFERENCE_INPUTS = _reference_inputs()


def reference_s():
    """CPU seconds of the fixed reference computation."""
    from oracles import det_exact, word_matrix

    rows, word = REFERENCE_INPUTS
    enabled = gc.isenabled()
    gc.disable()  # a collection would scan the caller's heap, not the reference's
    try:
        start = thread_time()
        for _ in range(3):
            det_exact(rows)
            word_matrix(word)
            table = {(i, i * 7 % 13): i for i in range(2000)}
            sorted(table.items(), key=lambda kv: kv[0][1])
        return thread_time() - start
    finally:
        if enabled:
            gc.enable()


class Reference:
    """Reference times taken while operations run, at most every
    REFERENCE_EVERY_S of wall time."""

    def __init__(self):
        self.times = []
        self.last = perf_counter()

    def tick(self):
        if perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.times.append(reference_s())
            self.last = perf_counter()


def host_scale(reference_times):
    return REFERENCE_NOMINAL_S / statistics.median(reference_times)


# ---------------------------------------------------------------- running


def pin_to_one_cpu():
    """Pin this process, and the processes it starts, to the lowest-numbered
    allowed CPU.  On a shared host two virtual CPUs can differ in speed by
    1.5x for minutes at a time; left to the scheduler, runs would split into
    a fast and a slow group by where they happened to land."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def round_rng(name, seed, index):
    return random.Random(f"{name}:{seed}:{index}")


def tally(name, result):
    """Counts taken from a correct answer, for the per-layer metrics."""
    if name == "intmat.snf":
        return {"bits": max(abs(x).bit_length() for x in result.u.entries + result.v.entries)}
    if name == "kirby.dualize_procedure":
        return {"blowups": result.blow_ups}
    if name.startswith("ledger."):
        return {"decided": result.status != "unknown"}
    return {}


def children_cpu_s():
    """CPU seconds of the processes this one started and has waited for."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def run_op(op, deadline, tracer, index, children=False):
    """Time one operation under the deadline, then check its answer.

    The time is CPU time: of this thread, or with ``children`` of the
    processes the operation started.  On a shared host the wall time of a
    CPU-bound call also holds the time the process waited for a CPU, which
    measures the other tenants, not the program.  For the same reason the
    deadline counts this process's CPU time (ITIMER_PROF), except with
    ``children``, where this process only waits and the deadline is on the
    wall clock."""
    from plumbcalc.errors import DomainError

    clock = children_cpu_s if children else thread_time
    timer = signal.ITIMER_REAL if children else signal.ITIMER_PROF
    kind, result, stop = None, None, None
    if tracer:
        tracer.begin(index)
    wall, start = perf_counter(), clock()
    try:
        signal.setitimer(timer, deadline)
        try:
            result = op.call()
        finally:
            stop = clock()
            signal.setitimer(timer, 0)
    except Deadline:
        kind = "timeout"
    except DomainError as exc:
        result = exc
    except Exception as exc:
        kind = f"exception:{type(exc).__name__}"
    elapsed = (stop or clock()) - start
    wall = perf_counter() - wall
    if tracer:
        tracer.end()
    counts = {}
    if kind is None:
        try:
            ok = op.check(result)
        except Exception:  # a malformed answer is a wrong one
            ok = False
        if not ok:
            kind = "wrong"
        elif not isinstance(result, DomainError):
            counts = tally(op.name, result)
    return {"name": op.name, "rung": op.rung, "elapsed": elapsed, "wall": wall, "kind": kind,
            "counts": counts}


def make_workload(name, in_process=False):
    import workloads

    if name == "cli":
        return workloads.Cli(WORK, SRC, in_process)
    return {"words": workloads.Words, "forms": workloads.Forms, "dense": workloads.Dense}[name]()


def run_shard(job):
    """In a worker process: build the round's operations from its spec, take
    every ``count``-th call of each function from the ``index``-th on (so
    that each function's calls spread over all the round's workers), warm up
    on them, then run them
    one after another with the reference timed between them, and scale
    their times by the reference's median (see REFERENCE_NOMINAL_S).
    Returns the records, the peak memory of the worker (or of the processes
    it started) and the spans."""
    workload = make_workload(job["workload"], job["in_process"])
    index, count = job["shard"]
    seen, mine = Counter(), []
    for i, op in enumerate(workload.build(job["spec"])):
        if seen[op.name] % count == index:
            mine.append((i, op))
        seen[op.name] += 1
    tracer = None
    if job["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    warm_up([op for _, op in mine], workload.spawns)
    # Put every live benchmark-side object (inputs, expected answers,
    # records) out of the collector's reach, so that a collection inside
    # a timed operation scans what the operation allocated, as it would
    # in a program holding only its own data.
    gc.collect()
    gc.freeze()
    ref, records = Reference(), []
    for i, op in mine:
        ref.tick()
        record = run_op(op, workload.deadline_s, tracer, job["first"] + i, workload.spawns)
        records.append(dict(record, index=i))
    ref.times.append(reference_s())
    scale = host_scale(ref.times)
    for r in records:
        r["scale"] = scale
    return records, peak_rss_mb(workload.spawns), tracer.spans if tracer else []


def worker_main():
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGPROF, _on_alarm)
    job = pickle.load(sys.stdin.buffer)
    pickle.dump(run_shard(job), sys.stdout.buffer)


def run_round(workload, spec, first, trace):
    """Run one round, split into ``workload.shards`` interleaved shards, each
    in a fresh worker process, one after another.  A process's layout in
    memory and its hash seed move the time of the same operations against
    the reference (over eight processes, small dense operations took 7.0 to
    9.3 times as long as the reference), so a run averages over many
    processes, not one.  A fresh
    process also gives each shard its own peak memory, where one process
    running every round would report the largest blow-up of any timed-out
    operation in the run.  Returns the round's records in operation order,
    its peak memory (the largest of its shards') and each shard's spans."""
    records, peaks, spans = [], [], []
    for index in range(workload.shards):
        job = {"workload": workload.name, "in_process": getattr(workload, "in_process", False),
               "spec": spec, "shard": (index, workload.shards), "first": first, "trace": trace}
        out = subprocess.run([sys.executable, __file__, "--worker"], input=pickle.dumps(job),
                             capture_output=True, timeout=WORKER_TIMEOUT_S)
        if out.returncode:
            sys.stderr.write(out.stderr.decode(errors="replace"))
            sys.exit(f"bench: a worker process ended with status {out.returncode}")
        got, peak_mb, got_spans = pickle.loads(out.stdout)
        records += got
        peaks.append(peak_mb)
        spans.append(got_spans)
    records.sort(key=lambda r: r["index"])
    return records, max(peaks), spans


def warm_up(ops, children):
    """Run the first WARM_UP_CALLS operations of each function once, untimed,
    each cut off after WARM_UP_S of CPU time.  The first calls of a function
    in a fresh process run before the interpreter has specialised its code
    and before the heap has grown, and the reference warms up too."""
    for _ in range(2):
        reference_s()
    if children:
        return
    seen = Counter()
    for op in ops:
        seen[op.name] += 1
        if seen[op.name] > WARM_UP_CALLS:
            continue
        try:
            signal.setitimer(signal.ITIMER_PROF, WARM_UP_S)
            try:
                op.call()
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
        except (Deadline, Exception):
            pass


def peak_rss_mb(children):
    """Peak resident memory in MB of this process, or with ``children`` of
    the largest process it started."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def measure(workload, seed, seconds, spec, tracer=None):
    """Whole rounds until ``seconds`` of wall time have passed and at least
    MIN_OPS operations were attempted; round 0's spec is given, later rounds
    are generated between rounds, outside any timed region.  Returns the records, the number of rounds and the median
    over rounds of their peak memory; with a tracer, its spans are those of
    every shard, renumbered."""
    records, peaks = [], []
    start = perf_counter()
    while True:
        got, peak_mb, spans = run_round(workload, spec, len(records), tracer is not None)
        if tracer:
            for shard in spans:
                tracer.extend(shard)
        records += got
        peaks.append(peak_mb)
        if perf_counter() - start >= seconds and len(records) >= MIN_OPS:
            return records, len(peaks), statistics.median(peaks)
        spec = workload.generate(round_rng(workload.name, seed, len(peaks)), len(peaks))


def _spawn_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def probe_import_s():
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_spawn_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def probe_interp_ms():
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=120)
    return (perf_counter() - start) * 1000


def setup(workload, seed):
    """Benchmark-side inputs for round 0 (not timed), then the median import
    time and the median time to build round 0's plumbcalc objects, both
    scaled by the reference timed between the repeats."""
    spec = workload.generate(round_rng(workload.name, seed, 0), 0)
    refs, imports, builds = [], [], []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_s())
        imports.append(probe_import_s())
        start = thread_time()
        workload.build(spec)
        builds.append(thread_time() - start)
    scale = host_scale(refs)
    import_s = statistics.median(imports) * scale
    return spec, import_s, import_s + statistics.median(builds) * scale


# ---------------------------------------------------------------- metrics


def latencies_ms(records, deadline):
    """Per-operation latency, scaled to the reference host speed; a failed
    operation counts at the deadline."""
    return [r["elapsed"] * r["scale"] * 1000 if r["kind"] is None else deadline * 1000
            for r in records]


def end_to_end(records, deadline, setup_s, peak_mb):
    ok = sum(r["kind"] is None for r in records)
    lat = latencies_ms(records, deadline)
    return {
        "ops_per_s": ops_per_s(records, deadline),
        "p50_ms": statistics.median(lat),
        "p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "ok_ratio": ok / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }


def ops_per_s(records, deadline):
    """Correct operations per second of (scaled) time spent in operations."""
    return sum(r["kind"] is None for r in records) * 1000 / sum(latencies_ms(records, deadline))


def _ladders():
    from workloads import CYCLE_NS, DENSE_NS, TREE_NS, WORD_LENS

    return (
        # (metric label, span name, input family, rung prefix, rungs)
        ("intmat.det", "intmat.det", "cycle", "cycle_n", CYCLE_NS),
        ("intmat.group", "intmat.abelian_group_of", "cycle", "cycle_n", CYCLE_NS),
        ("intmat.group", "intmat.abelian_group_of", "tree", "tree_n", TREE_NS),
        ("intmat.signature", "intmat.signature", "cycle", "cycle_n", CYCLE_NS),
        ("plumbing.parse", "plumbing.parse_graph", "cycle", "cycle_n", CYCLE_NS),
        ("intmat.det", "intmat.det", "dense", "dense_n", DENSE_NS),
        ("intmat.snf", "intmat.snf", "dense", "dense_n", DENSE_NS),
        ("intmat.signature", "intmat.signature", "dense", "dense_n", DENSE_NS),
        ("kirby.dualize", "kirby.dualize_procedure", "len", "len", WORD_LENS),
        ("strings.recognize", "strings.recognize_family", "len", "len", WORD_LENS),
        ("ledger.word", "ledger.evaluate_word", "len", "len", WORD_LENS),
    )


def per_layer_names():
    """(name, unit) of every per-layer metric, in output order."""
    from tracing import LAYERS
    from workloads import DENSE_NS

    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.busy_s", "s"),
                  (f"{layer}.self_s", "s"), (f"{layer}.fail", "count")]
    for label, _, family, prefix, rungs in _ladders():
        names += [(f"{label}.{prefix}{n}_ms", "ms") for n in rungs]
        names.append((f"{label}.{family}.doubling", "ratio"))
    names += [(f"intmat.snf.dense_n{n}_bits", "bits") for n in DENSE_NS]
    names.append(("intmat.snf.dense_bits.doubling", "ratio"))
    names += [("kirby.blowups", "count"), ("ledger.decided_ratio", "ratio"),
              ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.main_ms", "ms"),
              ("trace.ops_ratio", "ratio")]
    return names


def doubling(values, rungs):
    """Growth factor per doubling of size between the first and last rung;
    0 when either end has no measurement."""
    first, last = values[0], values[-1]
    if first <= 0 or last <= 0:
        return 0.0
    return (last / first) ** (1 / log2(rungs[-1] / rungs[0]))


def per_layer(tracer, records, rounds, untraced, deadline, interp_ms, import_s, main_ms):
    """Layer totals and counts are per round, so that they compare across
    versions that fit a different number of rounds into the run."""
    from tracing import DOMAIN, layer_totals
    from workloads import DENSE_NS

    spans = tracer.closed()
    out = {}
    for layer, t in layer_totals(spans).items():
        for key, value in t.items():
            out[f"{layer}.{key}"] = value / rounds
    durations = {}
    for _, s in spans:
        if s[5] != DOMAIN:
            durations.setdefault((s[0], records[s[4]]["rung"]), []).append(s[2] - s[1])
    for label, span, family, prefix, rungs in _ladders():
        means = [statistics.fmean(durations.get((span, f"{prefix}{n}"), [0.0])) * 1000 for n in rungs]
        out.update({f"{label}.{prefix}{n}_ms": m for n, m in zip(rungs, means)})
        out[f"{label}.{family}.doubling"] = doubling(means, rungs)
    bits = [max((r["counts"].get("bits", 0) for r in records if r["rung"] == f"dense_n{n}"), default=0)
            for n in DENSE_NS]
    out.update({f"intmat.snf.dense_n{n}_bits": b for n, b in zip(DENSE_NS, bits)})
    out["intmat.snf.dense_bits.doubling"] = doubling(bits, DENSE_NS)
    out["kirby.blowups"] = sum(r["counts"].get("blowups", 0) for r in records) / rounds
    verdicts = [r for r in records if r["name"].startswith("ledger.")]
    out["ledger.decided_ratio"] = (
        sum(r["counts"].get("decided", False) for r in verdicts) / len(verdicts) if verdicts else 0.0
    )
    out["cli.interp_ms"] = interp_ms
    out["cli.import_ms"] = import_s * 1000
    out["cli.main_ms"] = main_ms
    out["trace.ops_ratio"] = ops_per_s(records, deadline) / ops_per_s(untraced, deadline)
    return out


# ---------------------------------------------------------------- report


def report(args, workload, records, rounds, metrics, units):
    kinds = Counter(r["kind"] for r in records if r["kind"])
    rungs = Counter(r["rung"] for r in records if r["rung"])
    failed = sum(kinds.values())
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} seconds={args.seconds} "
          f"deadline_s={workload.deadline_s}")
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} pinned_cpu={args.cpu} "
          f"rounds={rounds} samples={len(records)} failed={failed} "
          f"fail_ratio={failed / len(records):.4f}")
    scales = sorted({r["scale"] for r in records})
    raw = [dict(r, scale=1.0) for r in records]
    raw_lat = latencies_ms(raw, workload.deadline_s)
    print(f"# host scale: median {statistics.median(scales):.4f}, range {scales[0]:.4f}.."
          f"{scales[-1]:.4f} over {len(scales)} workers (reference "
          f"{REFERENCE_NOMINAL_S * 1000:g} ms over its median time in the worker)")
    print(f"# unscaled CPU time: ops_per_s={ops_per_s(raw, workload.deadline_s):.6g} "
          f"p50_ms={statistics.median(raw_lat):.6g} "
          f"p90_ms={statistics.quantiles(raw_lat, n=10, method='inclusive')[-1]:.6g}")
    wall = sum(r["wall"] for r in records)
    print(f"# wall clock: {sum(r['kind'] is None for r in records) / wall:.6g} correct ops/s, "
          f"{wall:.3f} s inside operations")
    print("# failures: " + (" ".join(f"{k}={v}" for k, v in sorted(kinds.items())) or "none"))
    by_op = Counter(f"{r['name']}@{r['rung']}" for r in records if r["kind"])
    if by_op:
        print("# failed ops: " + " ".join(f"{k}={v}" for k, v in sorted(by_op.items())))
    print("# attempted per rung: " + " ".join(f"{k}={v}" for k, v in sorted(rungs.items())))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    wrong = kinds.get("wrong", 0) + sum(v for k, v in kinds.items() if k.startswith("exception:"))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def run_workload(args):
    from tracing import Tracer

    WORK.mkdir(parents=True, exist_ok=True)
    args.cpu = pin_to_one_cpu()
    workload = make_workload(args.workload)
    spec, import_s, setup_s = setup(workload, args.seed)

    if not args.trace:
        records, rounds, peak_mb = measure(workload, args.seed, args.seconds, spec)
        metrics = end_to_end(records, workload.deadline_s, setup_s, peak_mb)
        report(args, workload, records, rounds, metrics, dict(END_TO_END))
        return

    interp_ms = statistics.median(probe_interp_ms() for _ in range(SETUP_REPEATS))
    if args.workload == "cli":
        workload = make_workload("cli", in_process=True)
    half = args.seconds / 2
    untraced, _, _ = measure(workload, args.seed, half, spec)
    main_ms = 0.0
    if args.workload == "cli":
        main_ms = statistics.fmean(r["elapsed"] for r in untraced) * 1000
    tracer = Tracer()
    records, rounds, _ = measure(workload, args.seed, half, spec, tracer)
    tracer.write(WORK / f"spans-{workload.name}-seed{args.seed}.jsonl")
    metrics = per_layer(tracer, records, rounds, untraced, workload.deadline_s, interp_ms,
                        import_s, main_ms)
    report(args, workload, records, rounds, metrics, dict(per_layer_names()))


def run_all(args):
    """Each workload in its own process, one after another; the final line
    combines them, with metric names prefixed by the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if out.returncode:
            sys.stderr.write(out.stderr)
            sys.exit(f"bench: workload {name} exited with {out.returncode}")
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_plumbcalc()
    if args.worker:
        worker_main()
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
