"""The three workloads: their CLI calls, set-up, timed passes and correctness gate.

A workload is a list of calls to ``coverify.cli.main(argv)``, run in order in
one process and one thread.  Each call knows the exit code it must return and
what its output must contain; none of those answers comes from the SAT path:

* verdicts are known by construction (``scenarios``) and, where the instance
  is small enough, cross-checked by ``exhaustive_verify`` during set-up;
* a counterexample trace must re-read, satisfy the model under the reference
  evaluator and carry a hazard instant over the threshold;
* a classify row's verdict follows from the cell geometry (every hazard is a
  same-cell contact), and a POSSIBLE row's Monte Carlo probability must sit
  within 6 standard errors of the closed-form same-box value;
* every output file is byte-identical across the passes of one run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import heapq
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from coverify import bundled_scenario_path, cli
from coverify.encode import encode
from coverify.exhaustive import exhaustive_verify
from coverify.logic import conjoin, evaluate
from coverify.traceio import read_trace
from coverify.world import CompiledModel, Scenario, compile_scenario, load_scenario

import hostspeed
import scenarios
import tracing

WORKLOADS = ("safe-proof", "counterexample", "replay")

EXIT_SAFE, EXIT_COUNTEREXAMPLE, EXIT_UNCONFIRMED = 0, 1, 3
COUNTEREXAMPLE_SAMPLES = 100_000  # classify's default
REPLAY_SAMPLES = 2_000_000
REPLAY_SEEDS = 3
TINY_SAMPLES = 20_000
MC_TOLERANCE_SE = 6.0
SETUP_REPEATS = 3

# Layers a call must cross; the traced run fails when one records no span.
VERIFY_LAYERS = frozenset({"cli", "world", "encode", "sat"})
COUNTEREXAMPLE_LAYERS = VERIFY_LAYERS | {"logic", "traceio"}
CLASSIFY_LAYERS = frozenset({"cli", "world", "traceio", "replay", "reports"})
EXPORT_LAYERS = frozenset({"cli", "world", "traceio", "reports"})


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass and the answers it must produce."""

    id: str
    kind: str  # verify | classify | export
    instance: scenarios.Instance
    argv: tuple[str, ...]
    expected_rc: int
    out: Path | None  # file the call writes (trace, CSV or SVG); None for SAFE
    trace: Path | None  # trace the call writes (verify) or reads (classify, export)
    fmt: str = ""
    samples: int = 0

    @property
    def layers(self) -> frozenset[str]:
        if self.kind == "verify":
            return COUNTEREXAMPLE_LAYERS if self.out else VERIFY_LAYERS
        if self.kind == "export":
            return EXPORT_LAYERS
        if self.instance.verdicts - {"CONFIRMED"}:
            return CLASSIFY_LAYERS | {"geometry"}
        return CLASSIFY_LAYERS


@dataclass(frozen=True)
class Check:
    call: str
    ok: bool
    reason: str = ""


@dataclass(frozen=True)
class Pass:
    wall: float  # the pass without its calibration samples
    times: dict[str, float]  # raw wall time per call
    rcs: dict[str, int | None]
    # Per call, reference seconds per wall second (hostspeed); empty if not calibrated.
    scales: dict[str, float] = field(default_factory=dict)

    def scaled(self) -> dict[str, float]:
        return {call: t * self.scales[call] for call, t in self.times.items()}


def invoke(argv: tuple[str, ...], main=cli.main) -> int | None:
    """Run one CLI call with its console output swallowed; None if it raised."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(list(argv))
    except Exception:  # a crash is a failed check, not the end of the run
        traceback.print_exc(file=sys.stderr)
        return None


def invoke_in_child(argvs: list[tuple[str, ...]]) -> list[int | None]:
    """Run CLI calls in order in one fresh interpreter; their exit codes.

    `replay` makes its traces this way.  The SAT work of making them then
    leaves nothing in this process's heap, so its peak RSS is the timed
    classify calls' over a baseline that does not depend on the seed's grids.
    """
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, __file__, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"trace-making child exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def task_horizon(s: Scenario) -> int:
    """Fewest instants until the last task step can be done.

    Each step's POI (and a handover's partner) walks the layout by shortest
    path, edges weighted by their travel time; a POI without a start cell
    may begin anywhere, so its first goal costs nothing.
    """
    graph = {loc.id: [(o, s.travel_time(loc.id, o)) for o in loc.adjacent] for loc in s.layout.locations}

    def dist(a: str, b: str) -> int:
        best = {a: 0}
        queue = [(0, a)]
        while queue:
            d, here = heapq.heappop(queue)
            if here == b:
                return d
            if d > best[here]:
                continue
            for nxt, w in graph[here]:
                if d + w < best.get(nxt, math.inf):
                    best[nxt] = d + w
                    heapq.heappush(queue, (d + w, nxt))
        raise ValueError(f"{b} unreachable from {a}")

    at = {poi: (cell, 0) for poi, cell in s.starts}
    done = 0
    for step in s.task:
        arrive = done
        for poi in (step.poi, step.partner) if step.partner else (step.poi,):
            if poi in at:
                cell, t = at[poi]
                arrive = max(arrive, t + dist(cell, step.goal))
        done = arrive
        for poi in (step.poi, step.partner) if step.partner else (step.poi,):
            at[poi] = (step.goal, done)
    return done


def same_box_contact(edges: tuple[float, float, float], r: float) -> float:
    """P(|X - Y| <= r) for X, Y uniform in one a x b x c box, r <= min(a, b, c)."""
    a, b, c = edges
    v = a * b * c
    return (
        v * (4 * math.pi / 3) * r**3
        - (a * b + b * c + c * a) * (math.pi / 2) * r**4
        + (a + b + c) * (8 / 15) * r**5
        - r**6 / 6
    ) / v**2


class Workload:
    """Instances, calls and checks of one workload for one seed."""

    def __init__(self, name: str, seed: int, workdir: Path, tiny: bool = False):
        self.name, self.seed, self.workdir, self.tiny = name, seed, workdir, tiny
        self.instances: list[scenarios.Instance] = []
        self.calls: list[Call] = []
        self.horizons: dict[str, int] = {}
        self._scenarios: dict[str, Scenario] = {}
        self._models: dict[str, CompiledModel] = {}
        self._digests: dict[str, str] = {}
        self._trace_checks: dict[tuple[str, bytes], tuple[list[str], list]] = {}

    # Set-up ---------------------------------------------------------------

    def setup(self) -> list[Check]:
        """Generate inputs, cross-check expected answers, make replay traces, warm up."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        generate = {"safe-proof": scenarios.safe_proof, "counterexample": scenarios.counterexample,
                    "replay": scenarios.replay}[self.name]
        self.instances = generate(self.seed, tiny=self.tiny)
        self._digests, self._trace_checks = {}, {}
        checks = []
        paths = {}
        for inst in self.instances:
            if inst.text is not None:
                path = self.workdir / f"{inst.id}.scn"
                path.write_text(inst.text, encoding="utf-8")
            else:
                path = Path(str(bundled_scenario_path(inst.bundled)))
            paths[inst.id] = path
            s = replace(load_scenario(path), bound=inst.bound)
            self._scenarios[inst.id] = s
            self._models[inst.id] = compile_scenario(s)
            self.horizons[inst.id] = task_horizon(s)
            if inst.expected == scenarios.SAFE and inst.bound < self.horizons[inst.id] + 1:
                # A stop reaction needs an instant after the last contact;
                # below that the task cannot finish and SAFE is vacuous.
                raise ValueError(f"{inst.id}: bound {inst.bound} cannot finish the task")
            if inst.enumerable:
                safe = exhaustive_verify(s)
                ok = safe == (inst.expected == scenarios.SAFE)
                checks.append(Check(f"exhaustive:{inst.id}", ok, "" if ok else "enumeration disagrees"))
        self.calls = self._make_calls(paths)
        if self.name == "replay":  # the traces the timed passes classify
            makers = [self._verify_call(inst, str(paths[inst.id])) for inst in self.instances]
            rcs = invoke_in_child([call.argv for call in makers])
            checks += [self._check(call, rc) for call, rc in zip(makers, rcs)]
        self._warm_up()
        return checks

    def _warm_up(self) -> None:
        """One small verify and classify, so lazy imports are not timed."""
        mini = str(bundled_scenario_path("handover_mini"))
        trace = str(self.workdir / "warmup.trace")
        invoke(("verify", mini, "--out", trace))
        invoke(("classify", mini, trace, "--format", "csv", "--samples", "1000",
                "--out", str(self.workdir / "warmup.csv")))

    def _verify_call(self, inst: scenarios.Instance, scn: str) -> Call:
        # --out even where SAFE is expected: a wrong UNSAFE must not write
        # its trace outside the work directory.
        trace = self.workdir / f"{inst.id}.trace"
        argv = ("verify", scn, "--bound", str(inst.bound), "--out", str(trace))
        if inst.expected == scenarios.SAFE:
            return Call(f"verify:{inst.id}", "verify", inst, argv, EXIT_SAFE, None, None)
        return Call(f"verify:{inst.id}", "verify", inst, argv, EXIT_COUNTEREXAMPLE, trace, trace)

    def _classify_call(self, inst: scenarios.Instance, scn: str, fmt: str, samples: int,
                       mc_seed: int | None = None) -> Call:
        trace = self.workdir / f"{inst.id}.trace"
        seed = () if mc_seed is None else ("--seed", str(mc_seed))
        suffix = "" if mc_seed is None else f":s{mc_seed}"
        out = self.workdir / f"{inst.id}{suffix.replace(':', '_')}.{fmt}"
        expected_rc = EXIT_SAFE if inst.verdicts == {"CONFIRMED"} else EXIT_UNCONFIRMED
        return Call(f"classify:{inst.id}:{fmt}{suffix}", "classify", inst,
                    ("classify", scn, str(trace), "--bound", str(inst.bound), "--format", fmt,
                     "--samples", str(samples), *seed, "--out", str(out)),
                    expected_rc, out, trace, fmt, samples)

    def _make_calls(self, paths: dict[str, Path]) -> list[Call]:
        calls = []
        mc_seeds = random.Random(f"replay:{self.seed}")
        for inst in self.instances:
            scn = str(paths[inst.id])
            if self.name == "safe-proof":
                calls.append(self._verify_call(inst, scn))
            elif self.name == "counterexample":
                calls.append(self._verify_call(inst, scn))
                if inst.expected == scenarios.UNSAFE:
                    samples = TINY_SAMPLES if self.tiny else COUNTEREXAMPLE_SAMPLES
                    calls.append(self._classify_call(inst, scn, "csv", samples))
            else:
                samples = TINY_SAMPLES if self.tiny else REPLAY_SAMPLES
                for _ in range(1 if self.tiny else REPLAY_SEEDS):
                    mc_seed = mc_seeds.randrange(2**31)
                    for fmt in ("csv", "svg"):
                        calls.append(self._classify_call(inst, scn, fmt, samples, mc_seed))
                trace = self.workdir / f"{inst.id}.trace"
                out = self.workdir / f"{inst.id}_timeline.svg"
                calls.append(Call(f"export:{inst.id}:timeline", "export", inst,
                                  ("export", scn, "timeline", "--bound", str(inst.bound),
                                   "--trace", str(trace), "--out", str(out)),
                                  EXIT_SAFE, out, trace, "timeline"))
        return calls

    # Timed pass -----------------------------------------------------------

    def run_pass(self, main=None, calibrate: bool = True) -> Pass:
        """Every call once, in order; main(call, argv) replaces cli.main when given.

        With `calibrate`, the host-speed kernel runs before the first call
        and after each one, and each call is scaled by the two samples
        around it.
        """
        times: dict[str, float] = {}
        rcs: dict[str, int | None] = {}
        scales: dict[str, float] = {}
        before = hostspeed.sample() if calibrate else None
        calibration = 0.0
        start = time.perf_counter()
        for call in self.calls:
            runner = cli.main if main is None else (lambda argv, call=call: main(call, argv))
            t = time.perf_counter()
            rcs[call.id] = invoke(call.argv, runner)
            times[call.id] = time.perf_counter() - t
            if calibrate:
                after = hostspeed.sample()
                scales[call.id] = hostspeed.factor([before, after], call.kind)
                before = after
                calibration += after
        return Pass(time.perf_counter() - start - calibration, times, rcs, scales)

    # Correctness gate -----------------------------------------------------

    def check_pass(self, p: Pass) -> list[Check]:
        return [self._check(call, p.rcs[call.id]) for call in self.calls]

    def _check(self, call: Call, rc: int | None) -> Check:
        reasons = [] if rc == call.expected_rc else [f"exit {rc}, expected {call.expected_rc}"]
        if not reasons and call.out is not None:
            if not call.out.is_file():
                reasons.append(f"{call.out.name} was not written")
            else:
                reasons += self._check_output(call)
                digest = hashlib.sha256(call.out.read_bytes()).hexdigest()
                if self._digests.setdefault(call.id, digest) != digest:
                    reasons.append(f"{call.out.name} differs from the first pass")
        return Check(call.id, not reasons, "; ".join(reasons))

    def _check_output(self, call: Call) -> list[str]:
        reasons, hazards = self._check_trace(call.instance, call.trace)
        if call.kind == "verify" or reasons:
            return reasons
        text = call.out.read_text(encoding="utf-8")
        instants = sorted({t for _, t, _ in hazards})
        if call.fmt == "csv":
            return self._check_csv(call, text, hazards)
        if not (text.startswith("<svg") and text.endswith("</svg>\n")):
            return ["not an SVG document"]
        markers = text.count("<circle")
        wanted = len(instants) if call.fmt == "svg" else 0
        if markers != wanted:
            return [f"{markers} hazard markers, expected {wanted}"]
        return []

    def _check_trace(self, inst: scenarios.Instance, path: Path):
        """Reasons the trace is wrong, and its (hazard, instant, cell edges) over threshold.

        Remembered per trace content: replay classifies one trace many times.
        """
        try:
            key = (inst.id, hashlib.sha256(path.read_bytes()).digest())
        except OSError as exc:
            return [f"trace unreadable: {exc}"], []
        if key not in self._trace_checks:
            self._trace_checks[key] = self._read_and_check_trace(inst, path)
        return self._trace_checks[key]

    def _read_and_check_trace(self, inst: scenarios.Instance, path: Path):
        s, model = self._scenarios[inst.id], self._models[inst.id]
        try:
            trace = read_trace(path.read_text(encoding="utf-8"), model.symbols)
        except (OSError, ValueError) as exc:
            return [f"trace does not re-read: {exc}"], []
        if trace.bound != inst.bound:
            return [f"trace bound {trace.bound}, expected {inst.bound}"], []
        if not evaluate(conjoin(model.formulas), trace, 0):
            return ["trace violates the model"], []
        hazards, reasons = [], []
        for t in range(trace.bound + 1):
            for h in s.hazards:
                if int(trace.var_value(s.risk_name(h.id), t)) <= s.threshold:
                    continue
                human, robot = trace.var_value(h.human_poi, t), trace.var_value(h.robot_poi, t)
                if human != robot:
                    reasons.append(f"hazard {h.id} at {t} with POIs in {human} and {robot}")
                hazards.append((h.id, t, s.layout.location(human).box.edges))
        if not hazards:
            reasons.append("counterexample without a hazard instant over the threshold")
        return reasons, hazards

    def _check_csv(self, call: Call, text: str, hazards) -> list[str]:
        s = self._scenarios[call.instance.id]
        rows = list(csv.DictReader(io.StringIO(text)))
        got = [(r["hazard"], int(r["instant"]), r["verdict"]) for r in rows]
        expected = []
        for hazard_id, t, edges in hazards:
            h = s.hazard(hazard_id)
            threshold = s.poi(h.human_poi).radius + s.poi(h.robot_poi).radius
            verdict = "CONFIRMED" if math.dist(edges, (0, 0, 0)) <= threshold else "POSSIBLE"
            expected.append((hazard_id, t, verdict, edges, threshold))
        if got != [e[:3] for e in expected]:
            return [f"rows {got}, expected {[e[:3] for e in expected]}"]
        if {v for _, _, v in got} != call.instance.verdicts:
            return [f"verdicts {sorted({v for _, _, v in got})}, expected {sorted(call.instance.verdicts)}"]
        for row, (_, t, verdict, edges, threshold) in zip(rows, expected):
            if verdict != "POSSIBLE":
                continue
            exact = same_box_contact(edges, threshold)
            se = math.sqrt(exact * (1 - exact) / call.samples)
            if abs(float(row["probability"]) - exact) > MC_TOLERANCE_SE * se:
                return [f"instant {t}: probability {row['probability']} vs exact {exact:.6f}"]
        return []

    # Results --------------------------------------------------------------

    def direct_sizes(self, inst: scenarios.Instance) -> dict[str, int]:
        """Sizes of encoding the instance directly, outside the CLI and the tracer."""
        model = self._models[inst.id]
        formula = conjoin(model.formulas)
        cnf, _ = encode(formula, model.symbols, inst.bound)
        nodes, distinct = tracing.formula_nodes(formula)
        return {**tracing.cnf_sizes(cnf), "formula_nodes": nodes, "formula_nodes_distinct": distinct}

    def call_metrics(self, times: dict[str, float]) -> dict[str, float]:
        """Workload figures from per-call times; a figure is absent where it does not apply."""
        verify = [times[c.id] for c in self.calls if c.kind == "verify"]
        replay = [times[c.id] for c in self.calls if c.kind != "verify"]
        out = {"verdict_s": sum(verify) + sum(replay)}
        if verify:
            out["verify_s"] = sum(verify)
            out["verify_s_max"] = max(verify)
        if replay:
            out["classify_s"] = sum(replay)
        return out


if __name__ == "__main__":  # invoke_in_child's child
    print(json.dumps([invoke(tuple(argv)) for argv in json.loads(sys.argv[1])]))
