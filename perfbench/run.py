"""kaf benchmark: online KRLS/KLMS training, prediction and `kaf run`, timed from outside.

    python3 perfbench/run.py --workload krls_large_k|krls_small_k|klms_growing \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a kaf checkout; it imports kaf from ./src and
nothing else. Each run sets up nine times in fresh processes (setup_s),
then makes round(S / round_s) rounds of online training, held-out
prediction and an in-process `kaf run`, each round on a stream of its own,
then checks every output against numpy computations made apart from kaf.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.

--trace 0 reports the end-to-end metrics. --trace 1 runs one untraced and
one traced round, then the fixed-size per-layer rows, and reports the
per-layer metrics. --smoke runs short streams through every phase and check.
See perfbench/README.md for the metrics and the reference figures.
"""

import os
import sys

# One BLAS thread in this process and in its set-up children: the benchmark,
# not OpenBLAS, decides which CPUs the work runs on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# `kaf run` must use the program's default worker count.
os.environ.pop("KAF_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from refclock import CallTimer, RefClock  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, build, prepare, round_seed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9
OUT_DIR = ".perfbench_out"


def load_kaf(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kaf", "__init__.py")):
        raise SystemExit(f"perfbench: no kaf package under {src}; "
                         "run from the root of a kaf checkout")
    sys.path.insert(0, src)
    import kaf
    import kaf.cli
    if not os.path.abspath(kaf.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"perfbench: imported kaf from {kaf.__file__}, not from {src}")
    return kaf


def machine_block(kaf, bench_cpu: int, all_cpus: set, clock: RefClock) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(line.split(":", 1)[1].strip()
                             for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(all_cpus), "affinity": sorted(all_cpus), "pinned_cpu": bench_cpu,
        "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "kaf_run_workers": kaf.cli._workers(), "ref_unit_s": clock.unit_s,
    }


def measure_setup(root: str, workload: str, seed: int, smoke: bool,
                  probes: int) -> tuple[float, list]:
    """Median set-up time in wall seconds, with every probe's time.

    Each probe is a fresh process that sets up as the benchmark does; its time
    runs from just before the process starts to the end of its warm-up.
    """
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), root, workload,
            str(seed), "1" if smoke else "0"]
    times = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=root)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return float(np.median(times)), times


@dataclass
class Bench:
    """What every round of one run shares."""

    kaf: object
    workload: object
    clock: RefClock
    heldout: tuple                # (X, d) held-out block
    passes: int                   # passes over the held-out block per round
    trials: int                   # `kaf run` trials: one per CPU
    out_dir: str
    all_cpus: set
    bench_cpu: int


@dataclass
class Round:
    """What one round produced and how long each phase took."""

    seed: int
    U: np.ndarray                 # the samples the online phase consumed
    d: np.ndarray
    y: np.ndarray
    e: np.ndarray
    dict_size: np.ndarray
    grew: np.ndarray
    coeffs: np.ndarray
    centers: np.ndarray
    preds: np.ndarray
    step_s: np.ndarray            # per step, reference seconds
    step_raw_s: np.ndarray        # per step, wall seconds
    predict_s: float              # reference seconds, all predictions
    predict_raw_s: float
    predictions: int
    run_s: float                  # reference seconds of the `kaf run` call
    run_raw_s: float
    run_samples: int
    run_exit: int
    run_csv: str
    run_summary: str
    failed: int
    wall_s: float


def train(kaf, w, clock: RefClock, U: np.ndarray, d: np.ndarray):
    """The online phase: a fresh filter fed sample by sample through `step`,
    each call timed, until the stream ends or K reaches the workload's target.

    Returns the filter, the samples used, y, e, K and `grew` per sample, the
    call timer and the number of failed steps.
    """
    filt = build(kaf, w, U, d)
    timer = CallTimer(clock)
    n = U.shape[0]
    y, e = np.zeros(n), np.zeros(n)
    ks, grew = np.ones(n, dtype=int), np.ones(n, dtype=bool)
    e[0] = d[0]
    used, failed = n, 0
    for i in range(1, n):
        t0 = time.perf_counter()
        try:
            out = filt.step(U[i], d[i])
        except kaf.KafError:
            timer.add(time.perf_counter() - t0)
            failed += 1
            y[i] = e[i] = np.nan
            continue
        timer.add(time.perf_counter() - t0)
        y[i], e[i], ks[i], grew[i] = out.y, out.e, out.dict_size, out.grew
        if w.k_target is not None and out.dict_size >= w.k_target:
            used = i + 1
            break
    return filt, used, y, e, ks, grew, timer, failed


def run_round(b: Bench, seed: int, U: np.ndarray, d: np.ndarray, tag: str) -> Round:
    """Online training, held-out prediction and `kaf run` on one stream."""
    kaf, w = b.kaf, b.workload
    t_round = time.perf_counter()

    filt, used, y, e, ks, grew, timer, failed = train(kaf, w, b.clock, U, d)
    step_s, step_raw_s = timer.normalized(), np.array(timer.raw)

    # held-out prediction through the public `predict`
    X = b.heldout[0]
    timer = CallTimer(b.clock)
    preds = np.empty(X.shape[0])
    for _ in range(b.passes):
        for j in range(X.shape[0]):
            t0 = time.perf_counter()
            try:
                preds[j] = filt.predict(X[j])
            except kaf.KafError:
                failed += 1
                preds[j] = np.nan
            timer.add(time.perf_counter() - t0)
    predict_s = float(timer.normalized().sum())
    predict_raw_s = float(np.sum(timer.raw))

    # `kaf run` of the same stream config, in process, on every CPU, under
    # the default worker count; scaled by pooled reference runs on either side
    stem = os.path.join(b.out_dir, f"run_{tag}")
    with open(stem + ".json", "w") as f:
        json.dump({"filter": w.filter, "stream": w.stream(seed, used),
                   "trials": b.trials, "out": stem + ".csv"}, f)
    os.sched_setaffinity(0, b.all_cpus)
    try:
        ref = b.clock.pooled(b.trials)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = kaf.cli.main(["run", "--config", stem + ".json"])
        run_raw_s = time.perf_counter() - t0
        ref = 0.5 * (ref + b.clock.pooled(b.trials))
    finally:
        os.sched_setaffinity(0, {b.bench_cpu})
    failed += code != 0

    return Round(
        seed=seed, U=U[:used], d=d[:used], y=y[:used], e=e[:used], dict_size=ks[:used],
        grew=grew[:used], coeffs=np.array(filt.alpha if hasattr(filt, "alpha") else filt.coeffs),
        centers=np.array(filt.dict.centers if hasattr(filt, "dict") else filt.centers),
        preds=preds, step_s=step_s, step_raw_s=step_raw_s,
        predict_s=predict_s, predict_raw_s=predict_raw_s, predictions=b.passes * X.shape[0],
        run_s=run_raw_s * b.clock.pooled_nominal(b.trials) / ref, run_raw_s=run_raw_s,
        run_samples=b.trials * used, run_exit=code, run_csv=stem + ".csv",
        run_summary=stem + ".summary.json", failed=failed,
        wall_s=time.perf_counter() - t_round,
    )


def run_checks(b: Bench, r: Round) -> list:
    """Every correctness check on one round's outputs."""
    fc = b.kaf.FilterConfig.from_json(b.workload.filter)
    sigma = fc.kernel.sigma
    out = []
    if fc.kind == "krls-ald-reg":
        alpha_ref, d2 = checks.krls_reference(r.U, r.d, r.grew, sigma, fc.lam)
        out.append(checks.check_krls_coefficients(r.coeffs, alpha_ref))
        out.append(checks.check_krls_admissions(r.grew, d2, fc.delta))
    else:
        out.append(checks.check_klms(r.U, r.d, r.y, r.e, r.coeffs, fc.eta, sigma))
    X, dh = b.heldout
    out.append(checks.check_heldout(X, dh, r.preds, r.centers, r.coeffs, r.U, r.d, sigma))
    out.append(checks.check_kaf_run(r.run_exit, r.run_csv, r.run_summary, b.trials,
                                    r.U.shape[0], int(r.dict_size[-1])))
    return out


def end_to_end(rounds: list, setup: tuple, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics in reference units, and the same figures in wall units."""
    step_s = np.concatenate([r.step_s for r in rounds])
    step_raw = np.concatenate([r.step_raw_s for r in rounds])
    preds = sum(r.predictions for r in rounds)
    run_samples = sum(r.run_samples for r in rounds)
    metrics = {
        "samples_per_s": (step_s.size / float(step_s.sum()), "1/ref-s"),
        "step_us_p50": (1e6 * float(np.median(step_s)), "ref-us"),
        "predict_per_s": (preds / sum(r.predict_s for r in rounds), "1/ref-s"),
        "run_samples_per_s": (run_samples / sum(r.run_s for r in rounds), "1/ref-s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup[0], "s"),
    }
    reference = {
        "rounds": len(rounds), "steps": int(step_s.size),
        "final_K": [int(r.dict_size[-1]) for r in rounds],
        "round_wall_s": [r.wall_s for r in rounds],
        "step_us_p99": 1e6 * float(np.percentile(step_s, 99)),
        "samples_per_s_wall": step_raw.size / float(step_raw.sum()),
        "step_us_p50_wall": 1e6 * float(np.median(step_raw)),
        "step_us_p99_wall": 1e6 * float(np.percentile(step_raw, 99)),
        "predict_per_s_wall": preds / sum(r.predict_raw_s for r in rounds),
        "run_samples_per_s_wall": run_samples / sum(r.run_raw_s for r in rounds),
        "setup_s_probes": setup[1],
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, reference


def per_layer(b: Bench, tracer: Tracer, plain: Round, traced: Round) -> tuple[dict, dict]:
    """Per-layer metrics from the traced round and the fixed-size rows."""
    kaf = b.kaf
    metrics: dict[str, tuple] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s.get(layer, 0.0), "s")
    metrics["cli.run_self_s"] = (float(np.median(tracer.cli_main_self)), "s")
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")

    is_krls = b.workload.filter["kind"] == "krls-ald-reg"
    grow = int(plain.grew[1:].sum()) if is_krls else 0
    metrics["krls.grow_steps"] = (grow, "count")
    metrics["krls.unchanged_steps"] = ((plain.grew.size - 1 - grow) if is_krls else 0, "count")
    metrics.update(layers.measure(kaf, plain.U.shape[1], tracer))

    sc = kaf.StreamConfig.from_json(b.workload.stream(plain.seed, plain.U.shape[0]))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        kaf.generate(sc)
        times.append(time.perf_counter() - t0)
    metrics["experiments.generate_ms"] = (1e3 * float(np.median(times)), "ms")

    curve = kaf.LearningCurve(
        n=np.arange(1, plain.y.size + 1), y=plain.y, d=plain.d, e=plain.e,
        e2=plain.e * plain.e, dict_size=plain.dict_size, step_seconds=np.zeros(plain.y.size))
    rates = []
    for _ in range(3):
        writer = csv.writer(io.StringIO(), lineterminator="\n")
        t0 = time.perf_counter()
        curve.append_csv_rows(writer)
        rates.append(len(curve) / (time.perf_counter() - t0))
    metrics["experiments.csv_rows_per_s"] = (float(np.median(rates)), "1/s")

    fc = kaf.FilterConfig.from_json(b.workload.filter)
    workers = kaf.cli._workers()
    os.sched_setaffinity(0, b.all_cpus)
    try:
        t0 = time.perf_counter()
        kaf.run_trials(fc, sc, b.trials, workers=1)
        serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        kaf.run_trials(fc, sc, b.trials, workers=workers)
        pooled = time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, {b.bench_cpu})
    metrics["experiments.pool_speedup"] = (serial / pooled, "ratio")
    reference = {"pool": {"trials": b.trials, "workers": workers, "serial_s": serial,
                          "pooled_s": pooled}}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, reference


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="short streams, one round: exercises every phase and check")
    args = p.parse_args(argv)

    root = os.getcwd()
    kaf = load_kaf(root)
    clock = RefClock(WORKLOADS[args.workload].ref_matrix)
    all_cpus = os.sched_getaffinity(0)
    bench_cpu = max(all_cpus)
    print("machine: " + json.dumps(machine_block(kaf, bench_cpu, all_cpus, clock)), flush=True)
    os.sched_setaffinity(0, {bench_cpu})
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, OUT_DIR))
    try:
        return _run(kaf, args, root, out_dir, clock, all_cpus, bench_cpu)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, OUT_DIR))


def _run(kaf, args, root, out_dir, clock, all_cpus, bench_cpu) -> int:
    w = WORKLOADS[args.workload]
    rounds = 1 if args.trace else w.rounds(args.seconds, args.smoke)
    setup = None if args.trace else measure_setup(root, w.name, args.seed, args.smoke,
                                                  2 if args.smoke else SETUP_PROBES)
    for _ in range(50):
        clock.unit()
    streams, heldout = prepare(kaf, w, args.seed, args.smoke, rounds)
    b = Bench(kaf=kaf, workload=w, clock=clock, heldout=heldout,
              passes=1 if args.smoke else w.predict_passes, trials=len(all_cpus),
              out_dir=out_dir, all_cpus=all_cpus, bench_cpu=bench_cpu)

    done = [run_round(b, round_seed(args.seed, r), *streams[r], str(r)) for r in range(rounds)]
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_round(b, round_seed(args.seed, 0), *streams[0], "traced")
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics, reference = per_layer(b, tracer, done[0], traced)
    else:
        metrics, reference = end_to_end(done, setup, peak_rss_mb)
    print("reference: " + json.dumps(reference), flush=True)

    results = [c for r in done for c in run_checks(b, r)]
    if args.trace:
        same = all(np.array_equal(getattr(done[0], f), getattr(traced, f))
                   for f in ("y", "coeffs", "preds"))
        results.append(checks.Check("traced_round_identical", same,
                                    "the traced round reproduces the untraced one bit for bit"))
    for c in results:
        print(f"check {c.name}: {'PASS' if c.ok else 'FAIL'} ({c.detail})", flush=True)
    all_rounds = done + ([traced] if args.trace else [])
    attempted = sum(r.step_s.size + r.predictions + 1 for r in all_rounds) + len(results)
    failed = sum(r.failed for r in all_rounds) + sum(not c.ok for c in results)
    print(json.dumps({"correct": all(c.ok for c in results), "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
