"""lieforge benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 15 --trace 0

Run from a source checkout; the package is imported from ``src/`` beside this
directory, and the run fails without printing a result when it is missing.

``--trace 0`` sets up the workload (imports, inputs made from the seed, one
warm-up op of each kind), then runs its fixed batch round(seconds / nominal
batch time) times, at least twice, and checks every op's output outside the
timed region. It prints the end-to-end metrics. ``setup_s`` is the median over
this process and four more fresh ones that only set up, started between the
batches.

``--trace 1`` runs one traced batch of every workload, so that each per-layer
metric is measured on the workload it moves. A traced op makes the same
library calls inside spans around each layer; right after it, the op runs
untraced outside the spans, and the two outcomes must agree. It also times cold imports and the
first SVD in fresh processes, and a single-threaded BLAS pass of sample-large
and crosscheck. Spans are written to ``.bench_out/`` at the end.

The last line of stdout is the JSON result. An op fails when it raises, fails
its output check, or gives another verdict than the expected one; the failed
count includes known defects, which ``baseline.json`` lists. ``correct`` is
false when a failure is not one of those defects, when a class fails more
often than the baseline counts allow for the seed, or when a traced outcome
differs from the untraced one.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sample-large", "archive", "audit", "crosscheck")
SETUP_CHILDREN = 4
COLD_CHILDREN = 3
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="lieforge benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes for the smoke test")
    # fresh-process probes started by the benchmark itself
    parser.add_argument("--child", choices=("setup", "cold", "single-thread"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- measurement -----------------------------------------------------------------


def setup(name: str, seed: int, size: str):
    """Make the workload's inputs and run one warm-up op of each kind."""
    import workloads

    ops = workloads.OPS_BY_WORKLOAD[name](seed, size)
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.check(op.run())
    return ops


def _call(fn):
    begin = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, exc
    return time.perf_counter() - begin, out, err


def _failures(op, out, err) -> list:
    reason = f"raised {type(err).__name__}: {err}" if err else op.check(out)
    return [(op.cls, reason, op.label, op.dim)] if reason else []


def run_ops(ops):
    """One untraced batch: op latencies and (class, reason, label, dim) failures."""
    times, failures = [], []
    for op in ops:
        t, out, err = _call(op.run)
        times.append(t)
        failures += _failures(op, out, err)
        del out
    return times, failures


def run_traced(ops, tracer, compare=True):
    """One traced batch: traced latencies, untraced latencies, failures, mismatches.

    With ``compare`` set, each op runs untraced right after its traced run,
    outside the spans, and the two outcomes must agree. Timing the pair back
    to back gives the tracing overhead.
    """
    traced_t, plain_t, failures, mismatches = [], [], [], []
    for op in ops:
        def traced():
            with tracer.span("op"):
                return op.traced(tracer)

        t, out, err = _call(traced)
        traced_t.append(t)
        failures += _failures(op, out, err)
        if compare:
            t, ref, ref_err = _call(op.run)
            plain_t.append(t)
            if type(err) is not type(ref_err) or (err is None and not op.same(out, ref)):
                mismatches.append(op.label)
            del ref
        del out
    return traced_t, plain_t, failures, mismatches


def batch_count(workload: str, seconds: int) -> int:
    from workloads import NOMINAL_BATCH_S

    return max(2, round(seconds / NOMINAL_BATCH_S[workload]))


def measure(ops, batches: int, setup_child):
    """Run the batch `batches` times, with SETUP_CHILDREN set-ups spread between them.

    Each set-up is a fresh process, started outside the timed batches. Spread
    over the run, a slow spell of a shared box sets fewer of them.
    """
    times, failures, batch_s, setups = [], [], [], []
    for i in range(batches):
        t, f = run_ops(ops)
        times += t
        failures += f
        batch_s.append(sum(t))
        while len(setups) < round((i + 1) * SETUP_CHILDREN / batches):
            setups.append(setup_child())
    return times, failures, batch_s, setups


def tail(times):
    """Highest percentile with at least 10 ops beyond it, and its level."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def child(args, kind: str, extra_env=None) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--child", kind,
    ] + (["--tiny"] if args.tiny else [])
    env = {**os.environ, **(extra_env or {})}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- known defects and environment -------------------------------------------------


def by_class(ops, failures, batches: int) -> dict:
    out = {}
    for op in ops:
        out.setdefault(op.cls, {"attempted": 0, "failed": 0})["attempted"] += batches
    for cls, *_ in failures:
        out[cls]["failed"] += 1
    return out


def unknown_failures(workload: str, seed: int, ops, failures, batches: int, size: str) -> list:
    """Failures that baseline.json does not explain.

    A failure is known when its (workload, class, reason) is listed and the
    op's N is at least the defect's ``min_dim``. At full size, a class may also
    fail no more often per batch than the baseline counts record for this
    seed, or than their maximum for a seed outside the record.
    """
    with open(HERE / "baseline.json", encoding="utf-8") as fh:
        data = json.load(fh)
    min_dim = {(d["workload"], d["class"], d["reason"]): d["min_dim"] for d in data["known_defects"]}
    out = sorted({
        f"{cls}: {reason} ({label})" for cls, reason, label, dim in failures
        if dim < min_dim.get((workload, cls, reason), float("inf"))
    })
    if size == "full":
        record = data["counts"]["per_class"][workload]
        for cls, c in by_class(ops, failures, batches).items():
            by_seed = record[cls]["failed_by_seed"]
            allowed = by_seed[seed - 1] if 1 <= seed <= len(by_seed) else max(by_seed)
            if c["failed"] > allowed * batches:
                out.append(f"{cls}: {c['failed']} failures in {batches} batches, "
                           f"the baseline allows {allowed} a batch")
    return out


def _blas_threads() -> dict:
    import numpy
    import scipy

    found = {}
    for mod in (numpy, scipy):
        libs = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for symbol in (
                "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads",
            ):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    found[f"{mod.__name__}:{lib.name}"] = fn()
                    break
    return found


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": dep.get("name"), "version": dep.get("version")}

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "machine": platform.machine(),
    }


def emit(args, lines, report, correct, attempted, failed, metrics) -> None:
    for line in lines:
        print(line)
    print("REPORT " + json.dumps({"environment": environment(args), **report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# --- the two kinds of run ------------------------------------------------------------


def end_to_end(args, ops, own_setup_s: float) -> None:
    times, failures, batches, child_setups = measure(
        ops, batch_count(args.workload, args.seconds), lambda: child(args, "setup")["setup_s"]
    )
    op_median_s = [statistics.median(times[i::len(ops)]) for i in range(len(ops))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [own_setup_s] + child_setups
    tail_s, level = tail(times)
    attempted, failed = len(times), len(failures)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # the fastest batch: co-tenant load on a shared box can slow a whole
        # batch by half, and the fastest one is the figure that stays put
        "batch_s": (min(batches), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    classes = by_class(ops, failures, len(batches))
    unknown = unknown_failures(args.workload, args.seed, ops, failures, len(batches), size(args))
    lines = [f"workload {args.workload}, seed {args.seed}: {len(batches)} batches of "
             f"{len(ops)} ops, {attempted} ops"]
    lines += [f"  {k:<12} {v:>12.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"  {'fail_ratio':<12} {failed / attempted:>12.6g} ratio ({failed} of {attempted} ops)")
    lines.append(f"  op_tail_s is p{level:.1f} of {attempted} ops; setup_s is the median of {setups}")
    for cls, c in classes.items():
        lines.append(f"  class {cls}: {c['failed']} of {c['attempted']} failed")
    for f in unknown:
        lines.append(f"  UNKNOWN FAILURE {f}")
    report = {
        "batches": len(batches),
        "ops_per_batch": len(ops),
        "op_tail_level": level,
        "fail_ratio": failed / attempted,
        "setup_runs_s": setups,
        "batch_runs_s": batches,
        "op_median_s": [[op.kind, op.label, t] for op, t in zip(ops, op_median_s)],
        "classes": classes,
        "failure_reasons": sorted(set(failures)),
    }
    emit(args, lines, report, not unknown, attempted, failed, metrics)


def traced(args, own_ops) -> None:
    from spans import Tracer
    from workloads import AUDIT_CLASSES

    tracer = Tracer()
    labels, unknown, mismatches, overhead = [], [], [], {}
    wrong = {}
    own = None
    for name in (args.workload,) + tuple(w for w in WORKLOADS if w != args.workload):
        ops = own_ops if name == args.workload else setup(name, args.seed, size(args))
        traced_t, plain_t, traced_f, mism = run_traced(ops, tracer)
        labels += [f"{name}: {op.label}" for op in ops]
        overhead[name] = sum(traced_t) / sum(plain_t)
        unknown += [f"{name}: {u}" for u in
                    unknown_failures(name, args.seed, ops, traced_f, 1, size(args))]
        mismatches += [f"{name}: {m}" for m in mism]
        if name == "audit":
            for cls, *_ in traced_f:
                wrong[cls] = wrong.get(cls, 0) + 1
        if name == args.workload:
            own = (len(traced_t), len(traced_f))
        del ops

    cold = [child(args, "cold") for _ in range(COLD_CHILDREN)]
    st = child(args, "single-thread", {k: "1" for k in THREAD_VARS})
    self_s = tracer.self_times()
    counts = tracer.counts
    peaks = tracer.maxima
    write_s, read_s = self_s["serialize.write"], self_s["serialize.read"]
    first_svd = [c["linalg.first_svd_s"] for c in cold]
    metrics = {
        "rng.draw_s": (self_s["rng.draw"], "s"),
        "rng.deviates": (counts["rng.deviates"], "count-computed"),
        "linalg.svd_s": (self_s["linalg.svd"], "s"),
        "linalg.first_svd_s": (statistics.median(first_svd), "s"),
        "linalg.svd_st_s": (st["linalg.svd"], "s"),
        "sampler.build_s": (self_s["sampler.build"], "s"),
        "sampler.first_touch_s": (self_s["sampler.first_touch"], "s"),
        "sampler.adjoint_mb": (counts["sampler.adjoint_bytes"] / 1e6, "MB-computed"),
        "sampler.attempts": (counts["sampler.attempts"], "count"),
        "sampler.accept_ratio": (counts["sampler.accepted"] / counts["sampler.attempts"], "ratio"),
        "serialize.write_s": (write_s, "s"),
        "serialize.read_s": (read_s, "s"),
        "serialize.doc_mb": (counts["serialize.write_bytes"] / 1e6, "MB"),
        "serialize.write_mb_s": (counts["serialize.write_bytes"] / 1e6 / write_s, "MB/s"),
        "serialize.read_mb_s": (counts["serialize.read_bytes"] / 1e6 / read_s, "MB/s"),
        **{f"analysis.{c}_s": (self_s[f"analysis.{c}"], "s") for c in
           ("jacobi", "closure", "derived", "killing", "series", "tproduct")},
        "analysis.jacobi_tuples": (counts["analysis.jacobi_tuples"], "count"),
        "analysis.worst_margin": (peaks["analysis.worst_margin"], "ratio"),
        "analysis.wrong_verdicts": (sum(wrong.values()), "count"),
        **{f"analysis.wrong_verdicts.{c}": (wrong.get(c, 0), "count") for c in AUDIT_CLASSES},
        "oracle.assemble_s": (self_s["oracle.assemble"], "s"),
        "oracle.solve_s": (self_s["oracle.solve"], "s"),
        "oracle.compare_s": (self_s["oracle.compare"], "s"),
        "oracle.unknowns": (counts["oracle.unknowns"], "count"),
        "oracle.solve_gflops": (counts["oracle.solve_flops"] / 1e9 / self_s["oracle.solve"],
                                "GFLOP/s-computed"),
        "oracle.cond_max": (peaks["oracle.cond_max"], "ratio"),
        "oracle.diff_ratio_max": (peaks["oracle.diff_ratio_max"], "ratio"),
        "oracle.solve_st_s": (st["oracle.solve"], "s"),
        "cli.import_s": (statistics.median(c["cli.import_s"] for c in cold), "s"),
        "bench.glue_s": (self_s["op"], "s"),
        "trace.overhead_ratio": (overhead[args.workload], "ratio"),
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "ops": labels})
    lines = [f"traced run, seed {args.seed}: one traced batch of every workload"]
    lines += [f"  {k:<34} {v:>12.6g} {u}" for k, (v, u) in metrics.items()]
    lines += [f"  UNKNOWN FAILURE {f}" for f in unknown]
    lines += [f"  TRACED OUTCOME DIFFERS {m}" for m in mismatches]
    report = {
        "overhead_by_workload": overhead,
        "first_svd_runs_s": first_svd,
        "unknown_failures": unknown,
        "mismatches": mismatches,
    }
    attempted, failed = own
    emit(args, lines, report, not unknown and not mismatches, attempted, failed, metrics)


def cold_probe(seed: int) -> None:
    begin = time.perf_counter()
    import lieforge.cli  # noqa: F401

    import_s = time.perf_counter() - begin
    from lieforge import NormalStream, sample_parameter_matrix, validate_parameter_matrix

    pm = sample_parameter_matrix(100, NormalStream(seed), "real")
    begin = time.perf_counter()
    validate_parameter_matrix(pm)
    print(json.dumps({"cli.import_s": import_s, "linalg.first_svd_s": time.perf_counter() - begin}))


def single_thread(args) -> None:
    from spans import Tracer

    tracer = Tracer()
    for name in ("sample-large", "crosscheck"):
        run_traced(setup(name, args.seed, size(args)), tracer, compare=False)
    self_s = tracer.self_times()
    print(json.dumps({"linalg.svd": self_s["linalg.svd"], "oracle.solve": self_s["oracle.solve"]}))


def size(args) -> str:
    return "tiny" if args.tiny else "full"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lieforge" / "__init__.py").is_file():
        print(f"lieforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child == "cold":
        cold_probe(args.seed)
        return 0
    if args.child == "single-thread":
        single_thread(args)
        return 0
    ops = setup(args.workload, args.seed, size(args))
    setup_s = time.perf_counter() - START
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
    elif args.trace:
        traced(args, ops)
    else:
        end_to_end(args, ops, setup_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
