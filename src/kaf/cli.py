"""Command-line harness: run experiments, sweep grids, verify, benchmark.

Commands
--------
run     feed a generated stream through a filter; write learning-curve CSV
        plus a summary JSON
sweep   grid over delta / lambda / sigma / eta; one summary row per point
verify  run an oracle-equivalence suite; exit 0 iff within tolerance
bench   median per-step time versus model size plus fitted log-log slope

Configuration comes from a JSON file with flag overrides; precedence is
flags > file > defaults. Exit codes: 0 success, 1 validation error,
2 numerical failure, 3 I/O error. KAF_THREADS bounds the worker pool.

Outputs are deterministic given config + seed: CSV floats are printed with
17 significant digits and per-step wall times are zeroed unless the config
sets "record_timings": true (real timings differ between runs by nature).
"""

from __future__ import annotations

import argparse
import copy
import csv
import itertools
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from .base import fmt17, scalar_field
from .bench import BENCH_KINDS, run_bench
from .exceptions import KafError, ValidationError
from .experiments import (
    CSV_HEADER,
    FilterConfig,
    StreamConfig,
    average_curves,
    run_trials,
)
from .verify import SUITES, run_suite

SWEEP_KEYS = ("delta", "lambda", "sigma", "eta")


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


def _load_config(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc


def _set_hyperparameters(filt: dict, values: dict) -> None:
    """Write SWEEP_KEYS values into a filter config dict in place. sigma goes
    under "kernel", which defaults to a Gaussian kernel."""
    for key, val in values.items():
        if key == "sigma":
            filt.setdefault("kernel", {"family": "gaussian"})["sigma"] = val
        else:
            filt[key] = val


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(cfg)
    flags = vars(args)
    _set_hyperparameters(cfg.setdefault("filter", {}),
                         {k: flags[k] for k in SWEEP_KEYS if flags[k] is not None})
    if args.seed is not None:
        cfg.setdefault("stream", {})["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    return cfg


class _OutputSet:
    """Temp-file writes with atomic rename, so failures leave no partial output.

    Used as a context manager: a clean exit renames every temp file into
    place; an exception, including one raised by a rename, deletes the temp
    files that remain and propagates.
    """

    def __init__(self):
        self._pending: list[tuple[str, str]] = []

    def open(self, path: str):
        tmp = f"{path}.tmp.{os.getpid()}"
        self._pending.append((tmp, path))
        return open(tmp, "w", newline="")

    def __enter__(self) -> "_OutputSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                for tmp, path in self._pending:
                    os.replace(tmp, path)
                self._pending.clear()
        finally:
            for tmp, _ in self._pending:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            self._pending.clear()


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    fc = FilterConfig.from_json(cfg.get("filter", {}))
    sc = StreamConfig.from_json(cfg.get("stream", {}))
    trials = scalar_field(cfg, "trials", int, 1, "config")
    out_path = cfg.get("out")
    if not out_path:
        raise ValidationError("config key 'out' (CSV path) is required for run")
    summary_path = cfg.get("summary_out") or f"{os.path.splitext(out_path)[0]}.summary.json"
    timings = scalar_field(cfg, "record_timings", bool, False, "config")

    curves = run_trials(fc, sc, trials, workers=_workers())

    with _OutputSet() as outputs:
        with outputs.open(out_path) as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(CSV_HEADER)
            for curve in curves:
                curve.append_csv_rows(w, include_timings=timings)
        per_trial = [dict(seed=sc.seed + i, **c.summary()) for i, c in enumerate(curves)]
        summary = {
            "config": {"filter": fc.to_json(), "stream": sc.to_json(), "trials": trials},
            "trials": per_trial,
            "mean_steady_state_mse": sum(t["steady_state_mse"] for t in per_trial) / trials,
            "mean_final_dict_size": sum(t["final_dict_size"] for t in per_trial) / trials,
            "csv": out_path,
        }
        if timings:
            summary["mean_step_seconds"] = float(
                average_curves(curves).step_seconds.mean())
        with outputs.open(summary_path) as f:
            f.write(_dump_json(summary))
    print(f"wrote {out_path} ({trials} trial(s) x {len(curves[0])} steps) and {summary_path}")
    return 0


def _sweep_point(base_filter: dict, sc: StreamConfig, trials: int,
                 point: dict) -> dict:
    row = dict(point)
    t0 = time.perf_counter()
    try:
        fdict = copy.deepcopy(base_filter)
        _set_hyperparameters(fdict, point)
        fc = FilterConfig.from_json(fdict)
        curves = run_trials(fc, sc, trials)
        row["steady_state_mse"] = sum(c.steady_state_mse() for c in curves) / trials
        row["final_dict_size"] = sum(int(c.dict_size[-1]) for c in curves) / trials
        row["error"] = ""
    except KafError as exc:
        row["steady_state_mse"] = ""
        row["final_dict_size"] = ""
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["total_seconds"] = time.perf_counter() - t0
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    base_filter = cfg.get("filter", {})
    sc = StreamConfig.from_json(cfg.get("stream", {}))
    trials = scalar_field(cfg, "trials", int, 1, "config")
    grid = cfg.get("grid")
    if not isinstance(grid, dict) or not grid:
        raise ValidationError("sweep config requires a nonempty 'grid' object")
    unknown = set(grid) - set(SWEEP_KEYS)
    if unknown:
        raise ValidationError(f"grid keys must be among {SWEEP_KEYS}, got {sorted(unknown)}")
    out_path = cfg.get("out")
    if not out_path:
        raise ValidationError("config key 'out' (CSV path) is required for sweep")

    keys = [k for k in SWEEP_KEYS if k in grid]
    points = [dict(zip(keys, combo))
              for combo in itertools.product(*(grid[k] for k in keys))]

    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        rows = list(pool.map(
            lambda p: _sweep_point(base_filter, sc, trials, p), points))

    with _OutputSet() as outputs, outputs.open(out_path) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(list(keys) + ["steady_state_mse", "final_dict_size",
                                 "total_seconds", "error"])
        for row in rows:  # deterministic: submission order, not completion
            w.writerow([fmt17(row[k]) for k in keys]
                       + [fmt17(row["steady_state_mse"]) if row["error"] == "" else "",
                          fmt17(row["final_dict_size"]) if row["error"] == "" else "",
                          fmt17(row["total_seconds"]), row["error"]])
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
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    res = run_bench(args.filter, sizes)
    if args.out:
        with _OutputSet() as outputs, outputs.open(args.out) as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["size", "median_step_seconds", "rel_iqr"])
            for row in res.rows:
                w.writerow([row.size, fmt17(row.median_step_seconds),
                            fmt17(row.rel_iqr)])
    print(json.dumps({"filter": res.kind, "slope": res.slope,
                      "unstable_timings": res.unstable}, sort_keys=True))
    if res.unstable:
        print("warning: timing instability (relative IQR > 50%) in at least one bucket",
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kaf",
                                description="Online kernel adaptive filtering harness")
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

    b = sub.add_parser("bench", help="per-iteration cost scaling")
    b.add_argument("--filter", required=True, choices=BENCH_KINDS)
    b.add_argument("--sizes", required=True,
                   help="comma-separated increasing sizes, e.g. 50,100,200")
    b.add_argument("--out", default=None, help="optional CSV output path")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": cmd_run, "sweep": cmd_sweep,
               "verify": cmd_verify, "bench": cmd_bench}[args.command]
    try:
        return handler(args)
    except ValidationError as exc:
        print(_dump_json({"error": {"type": "validation", "message": str(exc)}}), end="")
        return 1
    except KafError as exc:
        print(_dump_json({"error": {"type": "numerical", "message": str(exc)}}), end="")
        return 2
    except OSError as exc:
        print(_dump_json({"error": {"type": "io", "message": str(exc)}}), end="")
        return 3


if __name__ == "__main__":
    sys.exit(main())
