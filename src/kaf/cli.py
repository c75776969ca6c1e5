"""Command-line harness: run experiments, sweep grids, verify, benchmark.

Commands
--------
run     feed a generated stream through a filter; write learning-curve CSV
        plus a summary JSON
sweep   grid over the delta / lambda / sigma / eta the filter kind reads; one
        summary row per point
verify  run an oracle-equivalence suite; exit 0 iff within tolerance
bench   median step time at a kernel filter's fixed sizes; log-log slope

Configuration comes from a JSON file with flag overrides; precedence is
flags > file > defaults. Each config object is read once: unknown keys are
refused, numbers must be JSON numbers (integral for ints), flags JSON bools,
paths strings. A filter kind takes only the settings it reads
(`experiments.FILTER_KEYS`), from the file, a flag or a grid alike: any
other exits 1 before anything runs. Exit codes: 0 success, 1 validation
error (a malformed command line included), 2 numerical failure, 3 I/O error.
A numerical failure includes a trial whose squared error or steady-state
MSE is not finite, and a mean MSE over trials that overflows: `kaf run`
exits 2 and writes nothing, and `kaf sweep` records it in the point's row.
KAF_THREADS bounds the worker processes that run trials (`kaf run`, where
each worker also formats its trial's CSV rows) or grid points (`kaf sweep`)
at once; runs are serial where the platform cannot fork.

Every command runs numpy's bundled OpenBLAS at one thread, restored on
return; its forked workers inherit that. Outputs are deterministic given
config and seed, and identical for every KAF_THREADS and BLAS thread count.
Where numpy links another BLAS (MKL, Accelerate, numpy 1.x), the threads
are left as they are, and a KRLS run at embed_L >= 2 can differ in the last
digits between that BLAS's thread counts. CSV floats are printed with
17 significant digits, and the curves' per-step wall times are zeros for
every filter kind unless the config sets "record_timings": true, which also
adds "mean_step_seconds" to the summary (real timings differ between runs).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import shutil
import sys
import time
from dataclasses import replace

from ._blas import one_thread
from .base import check_object, convert, fmt17, scalar_field
from .bench import BENCH_KINDS, run_bench
from .exceptions import KafError, NumericalError, ValidationError
from .experiments import (
    CSV_HEADER,
    FILTER_KEYS,
    FilterConfig,
    StreamConfig,
    pool_map,
    run_trial,
    run_trials,
)
from .verify import SUITES, run_suite

# Each override flag and grid key, and the filter config key it sets.
SWEEP_KEYS = {"delta": "delta", "lambda": "lambda", "sigma": "kernel", "eta": "eta"}
CONFIG_KEYS = ("filter", "stream", "trials", "out", "summary_out", "record_timings", "grid")


def _workers() -> int:
    raw = os.environ.get("KAF_THREADS")
    if raw:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValidationError(f"KAF_THREADS must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValidationError(f"KAF_THREADS must be >= 1, got {n}")
        return n
    return min(4, os.cpu_count() or 1)


def _read_config(args: argparse.Namespace) -> dict:
    """The config file under the flag overrides (flags > file > defaults), read
    once: an object of CONFIG_KEYS, each field by the one field rule, "filter"
    and "stream" as FilterConfig and StreamConfig, "grid" as nonempty lists of
    floats. A flag or grid key the filter kind does not read is refused, and
    sigma on a kernel other than the Gaussian; a grid's values are read
    before its keys are checked against the filter."""
    try:
        with open(args.config) as f:
            cfg = check_object(json.load(f), CONFIG_KEYS, "config")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {args.config} is not valid JSON: {exc}") from exc
    out = scalar_field(cfg, "out", str, "", "config")
    out = out if args.out is None else args.out
    if not out:
        raise ValidationError(f"config key 'out' (CSV path) is required for {args.command}")
    grid = check_object(cfg.get("grid", {}), SWEEP_KEYS, "grid")
    for key, values in grid.items():
        if not (isinstance(values, list) and values):
            raise ValidationError(f"grid {key!r} is not a nonempty list of numbers: {values!r}")
    grid = {key: [convert(v, float, f"grid {key!r} entry in {grid[key]!r}") for v in grid[key]]
            for key in SWEEP_KEYS if key in grid}
    sc = StreamConfig.from_json(cfg.get("stream", {}))
    trials = scalar_field(cfg, "trials", int, 1, "config")
    if trials < 1:
        raise ValidationError(f"config 'trials' must be >= 1, got {trials!r}")
    flags = {k: v for k, v in vars(args).items() if k in SWEEP_KEYS and v is not None}
    fc = FilterConfig.from_json(cfg.get("filter", {}))
    kernel = fc.kernel
    if "sigma" in {**flags, **grid} and kernel is not None and kernel.family != "gaussian":
        raise ValidationError(f"a {kernel.family} kernel does not read sigma, the Gaussian width")
    fc = _set_hyperparameters(fc, flags)
    check_object(grid, [key for key, sets in SWEEP_KEYS.items() if sets in FILTER_KEYS[fc.kind]],
                 f"{fc.kind} grid")
    return {
        "filter": fc,
        "stream": sc if args.seed is None else replace(sc, seed=args.seed),
        "trials": trials,
        "out": out,
        "summary_out": (scalar_field(cfg, "summary_out", str, "", "config")
                        or f"{os.path.splitext(out)[0]}.summary.json"),
        "record_timings": scalar_field(cfg, "record_timings", bool, False, "config"),
        "grid": grid,
    }


def _set_hyperparameters(fc: FilterConfig, values: dict) -> FilterConfig:
    """`fc` with the SWEEP_KEYS `values` set, read as a config file's filter
    object is. A value lands where SWEEP_KEYS says: sigma in the kernel
    object, when the kind has one; a kind refuses a key it does not read."""
    obj = fc.to_json()
    for key, value in values.items():
        if SWEEP_KEYS[key] == "kernel" and "kernel" in obj:
            obj["kernel"] = {**obj["kernel"], key: value}
        else:
            obj[key] = value
    return FilterConfig.from_json(obj)


class _OutputSet:
    """Temp-file writes with atomic rename, so failures leave no partial output.

    Used as a context manager: a clean exit renames every temp file into
    place; an exception, including one raised by a rename, deletes the temp
    files that remain and propagates. Part files are deleted on every exit.
    """

    def __init__(self):
        self._pending: list[tuple[str, str]] = []
        self._parts: list[str] = []

    def open(self, path: str):
        tmp = f"{self._checked(path)}.tmp.{os.getpid()}"
        self._pending.append((tmp, path))
        return open(tmp, "w", newline="")

    def parts(self, path: str, count: int) -> list[str]:
        """`count` paths beside `path` for pieces of it, which another process
        may write; registered before they exist."""
        stem = f"{self._checked(path)}.tmp.{os.getpid()}.part"
        self._parts += [f"{stem}{i}" for i in range(count)]
        return self._parts[-count:]

    @staticmethod
    def _checked(path: str) -> str:
        if os.path.isdir(path):  # refused before a rename could put any output in place
            raise IsADirectoryError(f"output path {path} is a directory")
        return path

    def __enter__(self) -> "_OutputSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                for tmp, path in self._pending:
                    os.replace(tmp, path)
                self._pending.clear()
        finally:
            for tmp in [tmp for tmp, _ in self._pending] + self._parts:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            self._pending.clear()
            self._parts.clear()


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_csv(path: str, header: list, rows) -> None:
    """Write `header` and then `rows` to the CSV file `path`, atomically."""
    with _OutputSet() as outputs, outputs.open(path) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _trial_part(fc: FilterConfig, record_timings: bool,
                job: tuple[StreamConfig, str]) -> tuple[dict, float | None]:
    """Run the trial of `job`, a (stream config, part file path) pair, and
    write its CSV rows to the part file. Returns the trial's summary and, if
    it was timed, its mean step time: all that goes back to the parent from
    a worker."""
    sc, path = job
    curve = run_trial(fc, sc, record_timings)
    with open(path, "w", newline="") as f:
        f.writelines(curve.csv_blocks())
    seconds = curve.step_seconds
    return curve.summary(), (float(seconds.mean()) if seconds.any() else None)


def _mean_mse(mses: list[float]) -> float:
    """The trials' mean steady-state MSE, or NumericalError when it is not
    finite: a sum of finite MSEs can overflow."""
    mean = sum(mses) / len(mses)
    if not math.isfinite(mean):
        raise NumericalError(f"the mean steady-state MSE of {len(mses)} trials, {mean!r}, "
                             "is not finite")
    return mean


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _read_config(args)
    fc, sc, trials = cfg["filter"], cfg["stream"], cfg["trials"]
    out_path, summary_path = cfg["out"], cfg["summary_out"]
    workers = _workers()
    streams = [replace(sc, seed=sc.seed + i) for i in range(trials)]

    with _OutputSet() as outputs:
        # Each trial's rows are formatted by the process that ran it, into a
        # part file; the parent joins the parts in seed order.
        parts = outputs.parts(out_path, trials)
        results = pool_map(functools.partial(_trial_part, fc, cfg["record_timings"]),
                           list(zip(streams, parts)), workers)
        with outputs.open(out_path) as f:
            f.write(",".join(CSV_HEADER) + "\n")
            for part in parts:
                with open(part, newline="") as p:
                    shutil.copyfileobj(p, f)
        per_trial = [dict(seed=s.seed, **summary) for s, (summary, _) in zip(streams, results)]
        summary = {
            "config": {"filter": fc.to_json(), "stream": sc.to_json(), "trials": trials},
            "trials": per_trial,
            "mean_steady_state_mse": _mean_mse([t["steady_state_mse"] for t in per_trial]),
            "mean_final_dict_size": sum(t["final_dict_size"] for t in per_trial) / trials,
            "csv": out_path,
        }
        step_means = [mean for _, mean in results if mean is not None]
        if step_means:  # timed trials
            summary["mean_step_seconds"] = sum(step_means) / trials
        with outputs.open(summary_path) as f:
            f.write(_dump_json(summary))
    print(f"wrote {out_path} ({trials} trial(s) x {per_trial[0]['steps']} steps) "
          f"and {summary_path}")
    return 0


def _sweep_point(base: FilterConfig, sc: StreamConfig, trials: int,
                 point: dict) -> dict:
    row = dict(point)
    t0 = time.perf_counter()
    try:
        curves = run_trials(_set_hyperparameters(base, point), sc, trials)
        row["steady_state_mse"] = _mean_mse([c.steady_state_mse() for c in curves])
        row["final_dict_size"] = sum(int(c.dict_size[-1]) for c in curves) / trials
        row["error"] = ""
    except KafError as exc:
        row["steady_state_mse"] = ""
        row["final_dict_size"] = ""
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["total_seconds"] = time.perf_counter() - t0
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _read_config(args)
    grid, out_path = cfg["grid"], cfg["out"]
    if not grid:
        raise ValidationError("sweep config requires a nonempty 'grid' object")
    points = [dict(zip(grid, combo)) for combo in itertools.product(*grid.values())]

    point_fn = functools.partial(_sweep_point, cfg["filter"], cfg["stream"], cfg["trials"])
    rows = pool_map(point_fn, points, _workers())

    # deterministic: submission order, not completion
    _write_csv(out_path, list(grid) + ["steady_state_mse", "final_dict_size",
                                       "total_seconds", "error"],
               ([fmt17(row[k]) for k in grid]
                + [fmt17(row["steady_state_mse"]) if row["error"] == "" else "",
                   fmt17(row["final_dict_size"]) if row["error"] == "" else "",
                   fmt17(row["total_seconds"]), row["error"]] for row in rows))
    failures = sum(1 for r in rows if r["error"])
    print(f"wrote {out_path} ({len(rows)} grid points, {failures} failed)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    res = run_suite(args.suite)
    status = "PASS" if res.passed else "FAIL"
    print(f"suite={res.suite} max_deviation={res.max_deviation:.6e} "
          f"tolerance={res.tolerance:.1e} {status}")
    for key, val in sorted(res.details.items()):
        print(f"  {key}={val}")
    if not res.passed:
        print(_dump_json({"first_failure": res.first_failure}), end="")
        return 2
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    res = run_bench(args.filter)
    if args.out:
        _write_csv(args.out, ["size", "median_step_seconds", "rel_iqr"],
                   ([row.size, fmt17(row.median_step_seconds), fmt17(row.rel_iqr)]
                    for row in res.rows))
    print(json.dumps({"filter": res.kind, "slope": res.slope,
                      "unstable_timings": res.unstable}, sort_keys=True))
    if res.unstable:
        print("warning: timing instability (relative IQR > 50%) in at least one bucket",
              file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValidationError (exit 1);
    argparse's own exit code for them, 2, means a numerical failure here."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="kaf", description="Online kernel adaptive filtering harness")
    sub = p.add_subparsers(dest="command", required=True)

    def add_overrides(sp):
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--delta", type=float, default=None,
                        help="ALD admission threshold, compared against the "
                             "squared residual d2 (pass delta**2 if yours is "
                             "a residual norm)")
        sp.add_argument("--lambda", type=float, default=None,
                        help="ridge regularizer")
        sp.add_argument("--sigma", type=float, default=None,
                        help="Gaussian kernel width (enters as sigma^2)")
        sp.add_argument("--eta", type=float, default=None, help="LMS step size")
        sp.add_argument("--seed", type=int, default=None, help="base stream seed")
        sp.add_argument("--out", default=None, help="output CSV path")

    add_overrides(sub.add_parser("run", help="run trials, write curve CSV + summary"))
    add_overrides(sub.add_parser("sweep", help="hyperparameter grid sweep"))

    v = sub.add_parser("verify", help="oracle-equivalence suites")
    v.add_argument("--suite", required=True, choices=SUITES)

    b = sub.add_parser("bench", help="per-iteration cost scaling over a fixed recipe")
    b.add_argument("--filter", required=True, choices=BENCH_KINDS)
    b.add_argument("--out", default=None, help="optional CSV output path")
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        with one_thread():  # the command's BLAS products, in this process and its workers
            code = _dispatch(argv)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone (`kaf verify ... | head -1`): what is left
        # to print, the interpreter's final flush included, goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


def _dispatch(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return {"run": cmd_run, "sweep": cmd_sweep,
                "verify": cmd_verify, "bench": cmd_bench}[args.command](args)
    except ValidationError as exc:
        print(_dump_json({"error": {"type": "validation", "message": str(exc)}}), end="")
        return 1
    except KafError as exc:
        print(_dump_json({"error": {"type": "numerical", "message": str(exc)}}), end="")
        return 2
    except BrokenPipeError:
        raise  # no JSON can reach a closed stdout
    except OSError as exc:
        print(_dump_json({"error": {"type": "io", "message": str(exc)}}), end="")
        return 3


if __name__ == "__main__":
    sys.exit(main())
