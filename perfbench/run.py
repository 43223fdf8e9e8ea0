"""coverify benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload safe-proof --seed 1 --seconds 20 --trace 0

Run from the root of a coverify checkout; the program is imported from its
``src/``.  Set-up (input generation, expected-answer cross-checks, replay
inputs, warm-up) runs several times and its median is reported; then whole
passes over the workload's CLI calls repeat until ``--seconds`` have gone by,
and at least twice.  A host-speed kernel runs between calls (``hostspeed``);
each call's time is the median over passes of its scaled time, and a
workload's timings are sums of those.  Every pass goes through the
correctness gate in ``workloads.py``.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` one more pass runs under the tracer and
the result carries the per-layer metrics.  The last line of standard output
is the JSON result; the lines above it print the same figures, and the ones
the result has no room for, by name and unit.  Spans and per-call figures
are written to ``.bench_work/<workload>-seed<seed>/``.
"""

import os

# Before numpy is imported: one BLAS/OpenMP thread, like the CLI in one process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

UNITS = {
    "verdict_s": "s", "verify_s": "s", "verify_s_max": "s", "classify_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s", "error_ratio": "1",
}
END_TO_END = ("verdict_s", "peak_rss_mb", "setup_s")
SETUP_SAMPLE_REPEATS = 3


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "1" if name.endswith("_share") else "count"


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from its files; None if there is none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import numpy

    return {
        "git_revision": git_revision(ROOT),
        "src_sha256": source_digest(SRC),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 import_s: float = 0.0) -> dict:
    """Set up, measure and check one workload; returns the full record.

    `tiny` (the self-test's setting) shrinks the instances and sets up once.
    """
    from coverify import cli

    import hostspeed
    import tracing
    import workloads

    wl = workloads.Workload(name, seed, WORK / f"{name}-seed{seed}", tiny)
    # Each set-up is scaled by the host-speed samples taken right before and
    # right after it, and the imports by the first; a sample is a median of a
    # few kernel runs, because a set-up has only these two (hostspeed).
    setup_raw, setup_times = [], []
    before = first = hostspeed.sample(SETUP_SAMPLE_REPEATS)
    for _ in range(1 if tiny else workloads.SETUP_REPEATS):
        t = time.perf_counter()
        setup_checks = wl.setup()
        setup_raw.append(time.perf_counter() - t)
        after = hostspeed.sample(SETUP_SAMPLE_REPEATS)
        setup_times.append(setup_raw[-1] * hostspeed.factor([before, after], "setup"))
        before = after
    checks = list(setup_checks)

    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        p = wl.run_pass()
        passes.append(p)
        checks += wl.check_pass(p)

    # Each call's time is the median over passes of its host-speed-scaled
    # time (README, "Bounds and noise"); the workload's figures sum those.
    calls = {c.id: statistics.median(p.scaled()[c.id] for p in passes) for c in wl.calls}
    metrics = wl.call_metrics(calls)
    metrics["setup_s"] = import_s * hostspeed.factor([first], "setup") + statistics.median(setup_times)
    figures = {}
    for p in passes:
        for key, value in wl.call_metrics(p.times).items():
            figures.setdefault(key, []).append(value)

    record = {
        "workload": name,
        "provenance": provenance(seed),
        "passes": len(passes),
        "setup_runs_s": setup_times,
        "setup_runs_raw_s": setup_raw,
        "import_s": import_s,
        "raw_quartiles": {key: quartiles(v) for key, v in figures.items()},
        "scales": [p.scales for p in passes],
        "calls": calls,
        "pass_times": [p.times for p in passes],
        "why": {inst.id: inst.why for inst in wl.instances},
        "horizons": wl.horizons,
    }

    if trace:
        tracer = tracing.Tracer()
        with tracer:
            traced = wl.run_pass(main=lambda call, argv: tracer.root(call.id, cli.main, argv),
                                 calibrate=False)
        checks += wl.check_pass(traced)
        tracing.assert_layers(tracer, {c.id: c.layers for c in wl.calls})
        sizes = tracer.sizes_by_call()
        for call in wl.calls:
            if call.kind == "verify":
                direct = wl.direct_sizes(call.instance)
                if sizes.get(call.id) != direct:
                    raise RuntimeError(f"{call.id}: traced sizes {sizes.get(call.id)} "
                                       f"differ from a direct encode {direct}")
        untraced_wall = statistics.median(p.wall for p in passes)
        record["layers"] = tracing.layer_metrics(tracer, traced.wall, untraced_wall)
        record["sizes"] = sizes
        (wl.workdir / "spans.json").write_text(json.dumps(tracer.spans_json()), encoding="utf-8")

    failed = [c for c in checks if not c.ok]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["error_ratio"] = len(failed) / len(checks)
    record.update(metrics=metrics, attempted=len(checks),
                  failures=[(c.call, c.reason) for c in failed])
    (wl.workdir / "result.json").write_text(json.dumps(record, indent=1, default=sorted),
                                           encoding="utf-8")
    return record


def result_line(record: dict, trace: bool) -> dict:
    """The result line: end-to-end metrics untraced, per-layer metrics traced."""
    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in record["layers"].items()}
    else:
        metrics = {k: {"value": record["metrics"][k], "unit": UNITS[k]} for k in END_TO_END}
    failed = len(record["failures"])
    return {"correct": failed == 0, "attempted": record["attempted"], "failed": failed,
            "metrics": metrics}


def report_lines(record: dict) -> list[str]:
    prov = record["provenance"]
    lines = [
        f"workload {record['workload']}  seed {prov['seed']}  passes {record['passes']}  "
        f"calls/pass {len(record['calls'])}",
        "provenance " + json.dumps(prov, sort_keys=True),
    ]
    m, q = record["metrics"], record["raw_quartiles"]
    scales = quartiles([f for per_call in record["scales"] for f in per_call.values()])
    for key in ("verdict_s", "verify_s", "verify_s_max", "classify_s", "peak_rss_mb", "setup_s"):
        if key in m:
            note = ""
            if key in q:
                note = (f"  median of {record['passes']} passes per call, host-speed scaled; "
                        f"raw whole passes {q[key][0]:.4f}..{q[key][2]:.4f} (quartiles)")
            elif key == "setup_s":
                note = (f"  scaled imports (raw {record['import_s']:.4f}) + median of "
                        f"{len(record['setup_runs_s'])} scaled set-ups")
            lines.append(f"  {key:<14} {m[key]:12.4f} {UNITS[key]:<3}{note}")
    lines.append(f"  host speed: {scales[1]:.4f} reference s per wall s "
                 f"(quartiles over calls {scales[0]:.4f}..{scales[2]:.4f})")
    failed = len(record["failures"])
    lines.append(f"  {'error_ratio':<14} {m['error_ratio']:12.4f} 1    "
                 f"{failed} failed of {record['attempted']} checks")
    for call, reason in record["failures"][:20]:
        lines.append(f"  FAILED {call}: {reason}")
    lines.append("  per call, median scaled pass, s:")
    for call, seconds in record["calls"].items():
        lines.append(f"    {call:<44} {seconds:9.4f}")
    if "layers" in record:
        lines.append("  per layer (traced pass):")
        for key, value in record["layers"].items():
            lines.append(f"    {key:<32} {value:14.6g} {per_layer_unit(key)}")
        lines.append("  sizes per call:")
        for call, sizes in record["sizes"].items():
            lines.append(f"    {call:<32} " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's src/ first on the import path; refuse anything else."""
    if not (SRC / "coverify" / "__init__.py").is_file():
        raise SystemExit(f"error: no coverify sources under {SRC}; "
                         "run from the root of a coverify checkout")
    sys.path.insert(0, str(SRC))
    import coverify

    if SRC not in Path(coverify.__file__).resolve().parents:
        raise SystemExit(f"error: imported coverify from {coverify.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          import_s=import_s)
    print("\n".join(report_lines(record)))
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
