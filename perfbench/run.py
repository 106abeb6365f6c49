#!/usr/bin/env python3
"""ibetrust benchmark: seeded workloads through parse_scenario, Simulation
and SimReport.to_json, timed from outside the program.

    python3 perfbench/run.py --workload ta_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

--trace 0 prints the end-to-end metrics; --trace 1 instead traces every
layer and prints the per-layer metrics, the exact op-count table and the
layer probes.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0
only when every op and every correctness check passed.

The load is closed-loop, one process, one thread: the simulator handles
each queue item after the previous one, with no rate limit.  A run
repeats the seed's scenario until --seconds have passed and enough op
samples are in; every repeat must produce the same report digest.
`--workload all` runs each workload in its own process, one at a time.
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
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ta_sweep", "ake_mesh", "reject_flood", "churn_toy")

MIN_SAMPLES = 100   # so that at least 10 op samples lie beyond p90
MIN_SETUPS = 7
TIME_CAP_S = 120    # stop repeating even if MIN_SAMPLES is not reached

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("ops_per_s", "1/s"), ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"), ("peak_rss_mb", "MB"),
)


def import_program():
    """Import ibetrust from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ibetrust
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ibetrust from {src}: {exc}")
    if src.resolve() not in Path(ibetrust.__file__).resolve().parents:
        raise SystemExit(f"perfbench: ibetrust imported from {ibetrust.__file__}, "
                         f"not from {src}")
    return ibetrust


def machine_note() -> str:
    return (f"python {platform.python_version()} ({platform.python_implementation()}), "
            f"nproc {len(os.sched_getaffinity(0))}, {platform.platform()}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def repeat_until(seconds: float, step, enough=lambda results: True) -> list:
    """Call step() at least twice, until `seconds` have passed and
    enough(results) holds, or the time cap is hit."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if len(results) >= 2 and elapsed >= seconds and enough(results):
            return results
        if elapsed >= TIME_CAP_S:
            return results


class Gate:
    """Correctness bookkeeping shared by the timed and traced runs."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops = 0
        self.problems: list[str] = []
        self.checks = 0

    def add_repeat(self, rep, checks_per_repeat: int) -> None:
        self.attempted += rep.clock.attempted
        self.failed_ops += rep.clock.failed
        self.checks += checks_per_repeat
        self.problems.extend(rep.problems)

    def check(self, ok: bool, problem: str) -> None:
        self.checks += 1
        if not ok:
            self.problems.append(problem)

    @property
    def failed(self) -> int:
        return min(self.attempted, self.failed_ops + len(self.problems))

    @property
    def correct(self) -> bool:
        return self.failed_ops == 0 and not self.problems


def gate_repeats(gate: Gate, repeats, measure) -> None:
    for rep in repeats:
        gate.add_repeat(rep, measure.CHECKS_PER_REPEAT)
    digests = {rep.digest for rep in repeats}
    gate.check(len(digests) == 1, f"report digest differs across repeats: {sorted(digests)}")


def print_gate(gate: Gate, repeats) -> None:
    first = repeats[0]
    status = "PASS" if gate.correct else "FAIL"
    print(f"correctness: {status}, {gate.checks} checks over {len(repeats)} repeats, "
          f"{gate.failed_ops} failed ops of {gate.attempted}")
    print(f"  report digest sha256:{first.digest}")
    print(f"  total billed {first.billed_mj:.6f} mJ")
    print(f"  rejections {json.dumps(first.rejection_counts, sort_keys=True)}")
    for problem in gate.problems[:20]:
        print(f"  problem: {problem}")


def timed_run(wl, seconds: float, measure) -> tuple[Gate, dict]:
    repeats = repeat_until(
        seconds, lambda: measure.run_repeat(wl),
        lambda rs: sum(len(r.clock.samples_ns) for r in rs) >= MIN_SAMPLES)
    setups = [r.setup_ns for r in repeats]
    while len(setups) < MIN_SETUPS:
        setups.append(measure.setup_only(wl))
    gate = Gate()
    gate_repeats(gate, repeats, measure)
    samples = [ns for r in repeats for ns in r.clock.samples_ns]
    run_s = statistics.median(r.run_ns for r in repeats) / 1e9
    completed = repeats[0].clock.attempted - repeats[0].clock.failed
    metrics = {
        "setup_s": statistics.median(setups) / 1e9,
        "run_s": run_s,
        "ops_per_s": completed / run_s,
        "op_ms.p50": statistics.median(samples) / 1e6,
        "op_ms.p90": percentile(samples, 90) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    print_gate(gate, repeats)
    print(f"repeats: {len(repeats)}, {completed} ops each; setup samples {len(setups)}; "
          f"op samples {len(samples)}")
    print("end-to-end metrics:")
    notes = {"setup_s": f"median of {len(setups)}", "run_s": f"median of {len(repeats)}",
             "op_ms.p50": f"n={len(samples)}", "op_ms.p90": f"n={len(samples)}"}
    for name, unit in END_TO_END:
        print(f"  {name:<12} {metrics[name]:>14.6f} {unit:<4} {notes.get(name, '')}")
    error_rate = gate.failed / max(gate.attempted, 1)
    print(f"  {'error_rate':<12} {error_rate:>14.6f} ratio "
          f"({gate.failed} failed / {gate.attempted} attempted)")
    return gate, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(wl, seconds: float, seed: int, measure, layers, probes) -> tuple[Gate, dict]:
    untraced = []
    tracer = None  # only the last traced repeat's spans are kept

    def step():
        nonlocal tracer
        untraced.append(measure.run_repeat(wl))
        tracer = layers.Tracer()
        tracer.install()
        try:
            rep = measure.run_repeat(wl, tracer=tracer)
        finally:
            tracer.restore()
        return rep, layers.layer_metrics(tracer, rep), tracer.step_counts(rep.setup_lo,
                                                                          rep.run_hi)

    traced = repeat_until(seconds, step)
    gate = Gate()
    gate_repeats(gate, untraced + [t[0] for t in traced], measure)
    counts = [t[2] for t in traced]
    gate.check(all(c == counts[0] for c in counts),
               "op counts differ between traced repeats of one seed")
    print_gate(gate, untraced + [t[0] for t in traced])

    names = list(traced[0][1])
    metrics = {n: statistics.median(t[1][n] for t in traced) for n in names}
    metrics["trace.overhead"] = (statistics.median(t[0].run_ns for t in traced)
                                 / statistics.median(r.run_ns for r in untraced) - 1)
    print(f"traced repeats: {len(traced)}, untraced repeats: {len(untraced)}")
    print("op counts per protocol step (one repeat, set-up and run, exact):")
    columns = ["calls"] + [c for c, _ in layers.COUNT_COLUMNS]
    print("  " + f"{'step':<28}" + "".join(f"{c:>15}" for c in columns))
    for step_name, row in counts[0].items():
        print("  " + f"{step_name:<28}" + "".join(f"{row.get(c, 0):>15}" for c in columns))
    print("per-layer metrics (medians over traced repeats):")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6f} {layers.unit_of(name)}")
    print("layer probes (demo profile, fixed inputs; context only):")
    for name, ms, note in probes.layer_probes() + probes.bundled_runs():
        print(f"  {name:<32} {ms:>12.4f} ms  {note}")
    out_dir = ROOT / "perfbench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans_{wl.name}_seed{seed}.jsonl"
    tracer.write_spans(span_file, traced[-1][0].setup_lo)
    print(f"spans of the last traced repeat: {span_file.relative_to(ROOT)} "
          f"({len(tracer.spans)} spans)")
    return gate, {n: {"value": v, "unit": layers.unit_of(n)} for n, v in metrics.items()}


def run_one(args) -> int:
    import_program()
    import layers
    import measure
    import probes
    import workloads

    wl = workloads.generate(args.workload, args.seed)
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine: {machine_note()}")
    print(f"why: {workloads.WHY[wl.name]}")
    print(f"op: {workloads.OP_DEFINITION[wl.op_kind]}")
    print(f"scenario: {json.dumps(wl.summary, sort_keys=True)}")
    print("load: closed loop, 1 process, 1 thread, no rate limit")
    if args.trace:
        gate, metrics = traced_run(wl, args.seconds, args.seed, measure, layers, probes)
    else:
        gate, metrics = timed_run(wl, args.seconds, measure)
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        print()
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}/{metric}"] = entry
    print("summary:")
    for key, entry in combined.items():
        print(f"  {key:<44} {entry['value']:>14.6f} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
