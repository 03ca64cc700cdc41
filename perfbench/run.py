"""Closed-loop benchmark of the umtree CLI.

One client calls ``umtree.cli.main([...])`` in-process, one command at a
time, on Newick files generated from the seed during set-up, and checks
every output. Run from the repository root:

    python3 perfbench/run.py --workload build-small --seed 1 --seconds 25 --trace 0

``--trace 0`` loops over the workload's command pool for ``--seconds`` of
wall time and reports the end-to-end metrics. ``--trace 1`` replays a
fixed prefix of the pool twice, untraced and then with layer tracing
installed (see tracing.py), and reports the per-layer metrics and the
tracing overhead; its spans go to
``.perfbench_work/trace-<workload>-<seed>.tsv``. Times are process CPU
time; the summary line also gives wall-clock figures.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a summary
with sample counts, per-kind medians and the failure fraction.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3


def import_umtree():
    """Import umtree from the checkout's src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "umtree" or m.startswith("umtree.")]:
        del sys.modules[name]
    um = importlib.import_module("umtree")
    importlib.import_module("umtree.cli")
    return um


class Runner:
    """Runs commands through the CLI and tallies failures."""

    def __init__(self, um) -> None:
        self.um = um
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def run(self, cmd: workloads.Command, tracer: tracing.Tracer | None = None):
        """Call main() once and check its output.

        Returns the call's process CPU time and wall time, in seconds. A
        crash, an unexpected exit code or a failed check counts as one
        failed command; none of them stops the run.
        """
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = tracer.command() if tracer is not None else contextlib.nullcontext()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                try:
                    code = self.um.cli.main(cmd.argv)
                except SystemExit as e:  # argparse usage errors
                    code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash
            code = None
            self._fail(cmd)
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        if code is not None:
            try:
                workloads.check(self.um, cmd, code, out.getvalue(), err.getvalue())
            except Exception:  # a wrong answer, or output the check cannot parse
                self._fail(cmd)
        return cpu, wall

    def _fail(self, cmd: workloads.Command) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"{' '.join(cmd.argv)}\n{traceback.format_exc()}"


def set_up(workload: str, seed: int, workdir: Path, repeats: int = SETUP_REPEATS):
    """Import, generate and write the inputs, and warm up, `repeats` times;
    return the last repeat's module, commands, runner and the time of
    each repeat."""
    times = []
    for _ in range(repeats):
        t0 = time.process_time()
        um = import_umtree()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        commands = workloads.make_commands(um, workload, seed, workdir)
        runner = Runner(um)
        warm = workloads.warmup_commands(um, workdir)
        for cmd in warm:
            workloads.record_reference(um, cmd)
            runner.run(cmd)
        times.append(time.process_time() - t0)
    return um, commands, runner, times


def _p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def measure(runner: Runner, commands, seconds: float):
    """Closed loop over the pool for `seconds` of wall time.

    A command's reference answer is recorded just before its first run;
    that time is not part of the `seconds`. Returns per-command CPU and
    wall times, CPU times by command kind and the reference CPU time.
    """
    cpu: list[float] = []
    wall: list[float] = []
    kinds: dict[str, list[float]] = {}
    reference_s = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        cmd = commands[i % len(commands)]
        if cmd.ref is None:
            w0, c0 = time.perf_counter(), time.process_time()
            workloads.record_reference(runner.um, cmd)
            reference_s += time.process_time() - c0
            deadline += time.perf_counter() - w0
        c, w = runner.run(cmd)
        cpu.append(c)
        wall.append(w)
        kinds.setdefault(cmd.kind, []).append(c)
        i += 1
        if time.perf_counter() >= deadline:
            return cpu, wall, kinds, reference_s


def _p90_ms(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] * 1e3


def end_to_end(workload, seed, seconds, commands, runner, setup_times):
    cpu, wall, kinds, reference_s = measure(runner, commands, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "cpu_ops_per_s": (len(cpu) / sum(cpu), "1/s"),
        "cpu_p50_ms": (_p50_ms(cpu), "ms"),
        "cpu_p90_ms": (_p90_ms(cpu), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    summary = {
        "workload": workload,
        "seed": seed,
        "commands": len(cpu),
        "fail_frac": runner.failed / runner.attempted,
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_p50_ms": _p50_ms(wall),
        "wall_p90_ms": _p90_ms(wall),
        "setup_repeats_cpu_s": setup_times,
        "reference_cpu_s": reference_s,
        "cpu_p50_ms_by_kind": {k: _p50_ms(v) for k, v in sorted(kinds.items())},
        "commands_by_kind": {k: len(v) for k, v in sorted(kinds.items())},
    }
    return metrics, summary


def traced_pass(um, commands, runner: Runner, spans_path: Path | None = None):
    """Replay `commands` untraced, then traced; return the per-layer metrics."""
    for cmd in commands:
        workloads.record_reference(um, cmd)
    untraced = sum(runner.run(cmd)[0] for cmd in commands)
    tracer = tracing.Tracer(um)
    tracer.install()
    try:
        traced = sum(runner.run(cmd, tracer)[0] for cmd in commands)
    finally:
        tracer.uninstall()
    if spans_path is not None:
        tracer.write_spans(spans_path)
    metrics = tracer.metrics()
    metrics["trace.commands"] = (len(commands), "count")
    metrics["trace.overhead_ms"] = ((traced - untraced) * 1e3 / len(commands), "ms")
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "frac")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "umtree" / "__init__.py").is_file():
        print(f"error: umtree sources not found under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        um, commands, runner, setup_times = set_up(args.workload, args.seed, workdir)
        if args.trace:
            n = workloads.TRACE_COMMANDS[args.workload]
            spans = WORK / f"trace-{args.workload}-{args.seed}.tsv"
            metrics = traced_pass(um, commands[:n], runner, spans)
            summary = {"workload": args.workload, "seed": args.seed, "spans": str(spans)}
        else:
            metrics, summary = end_to_end(
                args.workload, args.seed, args.seconds, commands, runner, setup_times
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if runner.first_failure:
        print(f"first failure: {runner.first_failure}", file=sys.stderr)
    print("summary: " + json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
