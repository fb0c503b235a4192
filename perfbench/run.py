"""Benchmark driver: one workload, one seed, one process.

    python3 perfbench/run.py --workload kacmoody --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; tateops is imported from ./src.
Load is a closed loop: one thread issues the workload's fixed call list, each
call after the previous one returns, pass after pass until --seconds have
elapsed.  Every output is checked against a value computed without the
engine.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  A
results file with every measured figure and the machine goes to
perfbench/out/; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import calibrated  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 5


def load_api():
    """The tateops layer modules, imported if need be (cli imports them all)."""
    importlib.import_module("tateops.cli")
    return SimpleNamespace(**{m: sys.modules[f"tateops.{m}"] for m in LAYERS})


def fresh_import():
    """Import tateops again from scratch, so that set-up pays for the import."""
    for name in [n for n in sys.modules if n == "tateops" or n.startswith("tateops.")]:
        del sys.modules[name]
    return load_api()


def set_up(args, workdir: Path):
    """Import, generate and write the inputs, warm up; returns (api, calls)."""
    api = fresh_import()
    calls, warm = workloads.build(args.workload, api, args.seed, workdir,
                                  tiny=args.size == "tiny")
    for run in warm:
        try:
            run()
        except Exception:  # the same call fails, and is counted, in the passes
            pass
    return api, calls


def run_pass(calls, speed=None, tracer=None):
    """Issue every call once; returns per-call (kind, wall s, cpu s, ok,
    error), without the time the speedometer's samples took."""
    outputs = []
    spent = speed.spent if speed else lambda: (0.0, 0.0)
    for call in calls:
        span = tracer.open(f"call.{call.kind}") if tracer else None
        (sw0, sc0), w0, c0 = spent(), perf_counter(), process_time()
        try:
            out, err = call.run(), None
        except Exception as exc:  # a failing call is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        w1, c1, (sw1, sc1) = perf_counter(), process_time(), spent()
        if tracer:
            tracer.close(span)
        outputs.append((call.kind, w1 - w0 - (sw1 - sw0), c1 - c0 - (sc1 - sc0), out, err))
    if tracer:
        tracer.on = False
    records = []
    for call, (kind, wall, cpu, out, err) in zip(calls, outputs):
        if err is None:
            try:
                if not call.check(out, call.expected):
                    err = "wrong output"
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        records.append((kind, wall, cpu, err is None, err))
    return records


def percentile_metrics(latencies_ms: list) -> dict:
    """Median and 90th percentile, each only with at least ten samples beyond it."""
    out = {}
    n = len(latencies_ms)
    if n >= 20:
        out["call_p50_ms"] = statistics.median(latencies_ms)
    if n >= 100:
        out["call_p90_ms"] = statistics.quantiles(latencies_ms, n=10)[8]
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tateops").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": git_commit(), "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def git_commit():
    """HEAD of ./.git when the checkout is a git work tree, else None."""
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
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small calls, for the smoke test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tateops" / "__init__.py").is_file():
        print(f"error: no tateops sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    out_dir = HERE / "out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = out_dir / f"{stem}-inputs"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            (api, calls), raw, scale = calibrated(lambda speed: set_up(args, workdir))
            setups.append((raw, scale))
        if not Path(api.cli.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: tateops was imported from {api.cli.__file__}", file=sys.stderr)
            return 2

        budget = args.seconds / 2 if args.trace else args.seconds
        passes = []
        gc.collect()
        t_start = perf_counter()
        while not passes or perf_counter() - t_start < budget:
            passes.append(calibrated(lambda speed: run_pass(calls, speed)))
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            gc.collect()
            tracer.on = True
            passes.append(calibrated(lambda speed: run_pass(calls, speed, tracer)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p, _, _ in passes for r in p]
    failed = sum(1 for r in records if not r[3])
    untraced = passes[:-1] if tracer else passes
    raw_wall = [sum(r[1] for r in p) for p, _, _ in untraced]
    raw_cpu = [sum(r[2] for r in p) for p, _, _ in untraced]
    pass_wall = [w * scale for w, (_, _, scale) in zip(raw_wall, untraced)]
    pass_cpu = [c * scale for c, (_, _, scale) in zip(raw_cpu, untraced)]
    latencies = [r[1] * scale * 1e3 for p, _, scale in untraced for r in p]
    e2e = {
        "run_s": (statistics.median(pass_wall), "s"),
        "run_cpu_s": (statistics.median(pass_cpu), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(raw * scale for raw, scale in setups), "s"),
        "fail_ratio": (failed / len(records), "ratio"),
        "raw_run_s": (statistics.median(raw_wall), "s"),
        "raw_run_cpu_s": (statistics.median(raw_cpu), "s"),
        "raw_setup_s": (statistics.median(raw for raw, _ in setups), "s"),
    }
    e2e.update({k: (v, "ms") for k, v in percentile_metrics(latencies).items()})

    layers = {}
    spans = {}
    if tracer:
        spans = tracer.aggregate()
        counts = tracer.counts
        traced, _, scale = passes[-1]
        layers = layer_metrics(spans, counts, scale)
        traced_wall = sum(r[1] for r in traced) * scale
        layers["tracing.overhead_ratio"] = (traced_wall / statistics.median(pass_wall), "ratio")
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"{stem}.spans.gz")

    chosen = layers if args.trace else e2e
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit = chosen[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']} is measured in {unit}, not {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    errors = [f"{kind}: {err}" for p, _, _ in passes for kind, _, _, ok, err in p if not ok]
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine(),
        "load": "closed loop, 1 process, 1 thread, 1 client",
        "passes": len(passes), "calls_per_pass": len(calls),
        "attempted": len(records), "failed": failed, "errors": errors[:20],
        "latency_samples": len(latencies),
        "speed_scale": {"setups": [scale for _, scale in setups],
                        "passes": [scale for _, _, scale in passes]},
        "raw_setup_s": [raw for raw, _ in setups], "raw_pass_wall_s": raw_wall,
        "pass_wall_s": pass_wall, "pass_cpu_s": pass_cpu,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "spans": spans,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(results, indent=1), encoding="utf-8")

    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"{args.workload} samples={len(latencies)} passes={len(passes)} "
          f"attempted={len(records)} failed={failed}", file=sys.stderr)
    for line in errors[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


SPAN_METRICS = {
    "operators.init": ("calls", "self_s"),
    "operators.mul": ("calls", "self_s"),
    "operators.eq": ("calls", "self_s"),
    "operators.evseq_of": ("self_s",),
    "operators.entry": ("calls", "self_s"),
    "trace.trace": ("self_s",),
    "trace.certificate": ("calls",),
    "cocycles.block_cocycle": ("calls",),
    "cocycles.corner": ("calls",),
    "cocycles.blockop_mul": ("self_s",),
    "cocycles.tate_cocycle": ("self_s",),
    "laurent.parse_laurent": ("self_s",),
    "cubical.split_i": ("self_s",),
    "cubical.good_idempotents": ("calls",),
    "cubical.trace_n": ("self_s",),
    "cubical.cubical_membership": ("self_s",),
    "serial.load_op": ("self_s",),
    "cli.main": ("self_s",),
}

COUNTS = ("fields.scalar_ops.qq", "fields.scalar_ops.fp", "operators.mul.calls.l1",
          "operators.mul.calls.l2", "operators.mul.calls.l3", "trace.window_cells",
          "trace.diag_cells", "serial.bytes_read")


def layer_metrics(spans: dict, counts, scale: float) -> dict:
    """Per-layer figures of one traced pass, self times in reference seconds;
    a ratio with a zero base reads 0."""
    out = {}
    for name, fields in SPAN_METRICS.items():
        row = spans.get(name, {"calls": 0, "self_s": 0.0})
        for f in fields:
            out[f"{name}.{f}"] = (row[f], "count") if f == "calls" else (row[f] * scale, "s")
    for name in COUNTS:
        out[name] = (counts[name], "count")

    def ratio(a, b):
        return a / b if b else 0.0
    out["trace.window_cells_per_diag_cell"] = (
        ratio(counts["trace.window_cells"], counts["trace.diag_cells"]), "ratio")
    out["cocycles.corner_calls_per_cell"] = (
        ratio(out["cocycles.corner.calls"][0], out["cocycles.block_cocycle.calls"][0]), "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
