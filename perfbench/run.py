"""Two-clock job benchmark: wall, CPU and memory end to end, per layer.

Runs one workload (see ``workloads.py``) as repeated jobs on a
simulated two-rank Comet cluster in this process, cycling through the
workload's inputs, and prints, as the last line of standard output,
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, measured with tracing off; a timed set-up follows
every untraced job, so that set-up and job times sample the host over
the same window.  A calibration block, a fixed pure-Python kernel
(:func:`calibrate`), runs before and after every job and every set-up,
and each time is reported scaled to a host on which that block takes
:data:`CAL_REF_S` seconds (:func:`speed`): the shared host's speed
drifts by a fifth over seconds and for minutes at a time, the blocks on
either side of a measurement see the same drift, and medians inside
one run cannot remove a drift slower than the run.  With ``--trace 1``
the benchmark repeats pairs of runs of the first input, one untraced
and one traced (``tracing.py``) back to back, reports the per-layer
metrics of the median traced run, prints its fidelity table (each
layer's share of CPU time beside its share of virtual time) and writes
its spans as Chrome trace JSON under ``perfbench/out/``.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload wc-zipf --seed 1 --seconds 20 \\
        --trace 0

The process is pinned to one CPU: its rank threads share one
interpreter lock, so a second CPU adds little but a cross-CPU wake-up at
every barrier, whose latency on a shared virtual machine spread
``bfs-kron``'s wall time by over a quarter from one seed to the next.

A run fails (exit code 1, no result line) when the ``repro`` sources
are not in ``src/`` next to this directory, or when the process's
resident high-water mark cannot be reset (``/proc/self/clear_refs``,
Linux only).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import random
import re
import statistics
import sys
import time
import zlib
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Fewest untraced/traced pairs, however short ``--seconds``.
MIN_TRACED = 3
#: Repetitions of the calibration kernel in one block, and the seconds
#: (wall and CPU alike) the block takes on the reference host.
CAL_REPS = 20
CAL_REF_S = 0.25

_CAL_RNG = random.Random(20170523)
_CAL_WORDS = [bytes(_CAL_RNG.choices(b"abcdefghijklmnop",
                                     k=_CAL_RNG.randint(2, 9)))
              for _ in range(4096)]
_CAL_TEXT = b" ".join(_CAL_RNG.choices(_CAL_WORDS, k=24000))


def _malloc_trim():
    """glibc's ``malloc_trim``, or ``None`` on another C library."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return None


_MALLOC_TRIM = _malloc_trim()


def _import_repro() -> None:
    """Put this checkout's ``src`` first on the path, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def _cal_kernel() -> int:
    """Fixed work in the mix the jobs do: split, count, re-key, sort,
    compress."""
    counts = Counter(_CAL_TEXT.split())
    prefixes: dict[bytes, int] = {}
    for word, n in counts.items():
        prefixes[word[:3]] = prefixes.get(word[:3], 0) + n
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return len(prefixes) + len(zlib.compress(
        b"\n".join(word for word, _ in ranked), 6))


def calibrate() -> tuple[float, float]:
    """``(wall, CPU)`` seconds of one calibration block: the host's
    speed right now, independent of the program under test."""
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(CAL_REPS):
            _cal_kernel()
        return time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        gc.enable()


def speed(before: tuple[float, float],
          after: tuple[float, float]) -> tuple[float, float]:
    """``(wall, CPU)`` factors from this host to the reference host for
    a measurement between the calibration blocks ``before`` and
    ``after``."""
    return (2 * CAL_REF_S / (before[0] + after[0]),
            2 * CAL_REF_S / (before[1] + after[1]))


def _reset_peak_rss() -> None:
    """Hand the heap that earlier set-ups freed back to the system, then
    lower the process's resident high-water mark to its current resident
    size, so the next reading covers only what follows."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError as exc:
        sys.exit(f"perfbench: cannot reset the peak resident size: {exc}")


def _rss_bytes() -> tuple[int, int]:
    """``(resident now, resident high-water mark)`` of this process."""
    with open("/proc/self/status") as fh:
        status = fh.read()
    rss, hwm = (int(re.search(rf"^{key}:\s+(\d+) kB", status, re.M)[1])
                * 1024 for key in ("VmRSS", "VmHWM"))
    return rss, hwm


@dataclass
class Run:
    """One job run: both clocks, memory, and what its checks found."""

    input: int
    wall_s: float
    cpu_s: float
    virtual_s: float = 0.0
    peak_bytes: list[int] = field(default_factory=list)
    #: Resident size of the process as the job starts, and its peak.
    rss_start: int = 0
    rss_peak: int = 0
    #: ``(wall, CPU)`` factors to the reference host (:func:`speed`).
    scale: tuple[float, float] = (1.0, 1.0)
    totals: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    report: dict[str, Any] | None = None
    tracer: Any = None

    def fingerprint(self) -> tuple:
        """What must repeat exactly from run to run."""
        return self.virtual_s, self.peak_bytes, self.totals


def run_job(workload, cluster, inputs: list[tuple[str, bytes, Any]],
            index: int, first: Run | None, tracer=None) -> Run:
    """Run the workload's job once on input ``index`` and check it
    against the input's reference and ``first`` run."""
    path, _, reference = inputs[index]
    cluster.metrics.reset()
    job = workload.job if tracer is None else tracer.job(workload.job)
    gc.collect()
    result, error = None, None
    _reset_peak_rss()
    rss_start, _ = _rss_bytes()
    with tracer if tracer is not None else nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = cluster.run(job, path)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted
            error = f"job raised {type(exc).__name__}: {exc}"
        cpu_s = time.process_time() - cpu0
        wall_s = time.perf_counter() - wall0
    run = Run(index, wall_s, cpu_s, rss_start=rss_start,
              rss_peak=_rss_bytes()[1], tracer=tracer, error=error)
    if result is None:
        return run
    run.virtual_s = result.elapsed
    run.peak_bytes = list(result.peak_bytes)
    run.totals = cluster.metrics.totals()
    run.error = workload.check(reference, result.returns)
    if run.error is None and first is not None \
            and run.fingerprint() != first.fingerprint():
        run.error = ("virtual time, rank peaks or registry totals differ "
                     "from the first run of this input")
    if run.error is None and tracer is not None:
        try:
            run.report = tracer.report(cpu_s)
        except AssertionError as exc:
            run.error = f"trace accounting: {exc}"
    return run


def measure(workload, cluster, inputs: list[tuple[str, bytes, Any]],
            seconds: float, runs: list[Run], set_up=None,
            ) -> list[list[Run]]:
    """Repeat steps for ``seconds``; returns the runs of each step.

    Untraced (``set_up`` given), a step is one run, cycling through the
    inputs so that each runs at least once, between two calibration
    blocks that give it its :attr:`Run.scale`; then ``set_up(block)``
    follows it and returns what it made and the next block.  Traced, a
    step is an untraced and a traced run of the first input, back to
    back, so that the two see nearly the same host speed; there are at
    least :data:`MIN_TRACED` steps.
    """
    from tracing import LayerTracer

    traced = set_up is None
    cycle = [0] if traced else list(range(len(inputs)))
    least = MIN_TRACED if traced else len(inputs)
    steps: list[list[Run]] = []
    deadline = time.perf_counter() + seconds
    before = None if traced else calibrate()
    while len(steps) < least or time.perf_counter() < deadline:
        index = cycle[len(steps) % len(cycle)]
        step = []
        for tracer in (None, LayerTracer) if traced else (None,):
            first = next((r for r in runs
                          if r.input == index and r.error is None), None)
            run = run_job(workload, cluster, inputs, index, first,
                          tracer and tracer())
            status = "ok" if run.error is None else f"FAILED: {run.error}"
            print(f"{'traced' if tracer else 'run'} {len(steps) + 1} "
                  f"(input {index}): wall {run.wall_s:.4f} s, "
                  f"cpu {run.cpu_s:.4f} s, virtual {run.virtual_s:.6f} s, "
                  f"rss {run.rss_start / 1e6:.1f} -> "
                  f"{run.rss_peak / 1e6:.1f} MB [{status}]", flush=True)
            runs.append(run)
            step.append(run)
        steps.append(step)
        if not traced:
            after = calibrate()
            run.scale = speed(before, after)
            print(f"  scaled: wall {run.wall_s * run.scale[0]:.4f} s, "
                  f"cpu {run.cpu_s * run.scale[1]:.4f} s", flush=True)
            _, before = set_up(after)
    return steps


def end_to_end(runs: list[Run], setup_times: list[float],
               inputs: list[tuple[str, bytes, Any]]) -> dict[str, float]:
    """Times (scaled to the reference host) and the resident peak are
    medians over all runs; the exact metrics (virtual time, hottest-rank
    peak) are means over the inputs."""
    ok = [r for r in runs if r.error is None] or runs
    first = [next(r for r in ok if r.input == index)
             for index in sorted({r.input for r in ok})]
    wall = statistics.median(r.wall_s * r.scale[0] for r in ok)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_s * r.scale[1] for r in ok),
        "throughput_mb_s":
            statistics.mean(len(data) for _, data, _ in inputs) / 1e6 / wall,
        "peak_rank_mb": statistics.mean(
            max(r.peak_bytes, default=0) for r in first) / 1e6,
        "rss_peak_mb": statistics.median(r.rss_peak for r in ok) / 1e6,
        "virtual_s": statistics.mean(r.virtual_s for r in first),
        "setup_s": statistics.median(setup_times),
    }


def per_layer(run: Run, overhead: float) -> dict[str, float]:
    from tracing import LAYERS, UNATTRIBUTED

    report = run.report
    extra = report["extra"]
    totals = run.totals
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        for key, value in report["layers"][layer].items():
            metrics[f"{layer}.{key}"] = value
    encodes = extra.get("core.codec.encodes", 0)
    decodes = extra.get("core.codec.decodes", 0)
    bytes_out = extra.get("core.codec.bytes_out", 0)
    # With the codec off nothing is encoded or decoded: 0 decodes per
    # encode, and the data are stored as they are (ratio 1).
    metrics.update({
        "mpi.wait_s": report["mpi_wait_s"],
        "mpi.alltoallv.rounds": totals.get("mpi.alltoallv.rounds", 0),
        "mpi.alltoallv.bytes": totals.get("mpi.alltoallv.bytes", 0),
        "core.codec.encodes": encodes,
        "core.codec.decodes": decodes,
        "core.codec.decodes_per_encode": decodes / max(encodes, 1),
        "core.codec.ratio":
            extra.get("core.codec.bytes_in", 0) / bytes_out if bytes_out
            else 1.0,
        "core.map.records": totals.get("core.map.records", 0),
        "core.map.kv_bytes": totals.get("core.map.kv_bytes", 0),
        "core.reduce.keys": totals.get("core.reduce.keys", 0),
        "memory.allocs": extra.get("memory.allocs", 0),
        "unattributed.cpu_share": report["layers"][UNATTRIBUTED]["cpu_share"],
        "unattributed.virtual_share":
            report["layers"][UNATTRIBUTED]["virtual_share"],
        "trace.overhead_frac": overhead,
    })
    for direction in ("written", "read"):
        for kind in ("bytes", "spill_bytes"):
            name = f"storage.{kind}_{direction}"
            metrics[name] = extra.get(name, 0)
    return metrics


def fidelity_table(run: Run) -> str:
    """Each layer's CPU share beside its virtual-time share."""
    from tracing import LAYERS, UNATTRIBUTED

    layers = run.report["layers"]
    lines = [f"{'layer':<18} {'calls':>9} {'self_cpu_s':>10} "
             f"{'cpu_share':>9} {'virtual_share':>13}"]
    for name in (*LAYERS, UNATTRIBUTED):
        entry = layers[name]
        calls = entry.get("calls", "")
        cpu = entry.get("self_cpu_s")
        lines.append(f"{name:<18} {calls:>9} "
                     f"{'' if cpu is None else f'{cpu:.4f}':>10} "
                     f"{entry['cpu_share']:>9.4f} "
                     f"{entry['virtual_share']:>13.4f}")
    return "\n".join(lines)


def export_trace(run: Run, workload: str, seed: int) -> str | None:
    """Write the run's spans as Chrome trace JSON; error or ``None``."""
    from repro.obs.chrome import validate_chrome_trace

    data = run.tracer.chrome_trace(f"perfbench {workload}")
    try:
        validate_chrome_trace(data)
    except ValueError as exc:
        return f"invalid Chrome trace: {exc}"
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}.seed{seed}.trace.json"
    with open(path, "w") as fh:
        json.dump(data, fh)
    spans = sum(1 for e in data["traceEvents"] if e["ph"] == "B")
    print(f"chrome trace: {path.relative_to(ROOT)} ({spans} spans)")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_repro()
    from workloads import WORKLOADS

    cpu = min(os.sched_getaffinity(0))
    # Threads started later (the ranks) inherit the affinity.
    os.sched_setaffinity(0, {cpu})

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    #: Set-up times, scaled to the reference host.
    setup_times: list[float] = []

    def set_up(before: tuple[float, float]):
        """Build the cluster and stage the inputs, timed, after the
        calibration block ``before``; returns what was made and the
        calibration block that follows."""
        gc.collect()
        started = time.perf_counter()
        made = workload.setup(args.seed)
        elapsed = time.perf_counter() - started
        after = calibrate()
        setup_times.append(elapsed * speed(before, after)[0])
        return made, after

    (cluster, staged), _ = set_up(calibrate())
    inputs = [(path, data, workload.reference(data))
              for path, data in staged]
    sizes = ", ".join(str(len(data)) for _, data, _ in inputs)
    print(f"{workload.name} seed {args.seed} on CPU {cpu}: inputs of "
          f"{sizes} bytes, first setup {setup_times[0]:.4f} s (scaled)",
          flush=True)

    runs: list[Run] = []
    problems = []
    if args.trace:
        pairs = [step for step in measure(workload, cluster, inputs,
                                          args.seconds, runs)
                 if step[0].error is None and step[1].error is None]
        if pairs:
            chosen = sorted((traced for _, traced in pairs),
                            key=lambda r: r.cpu_s)[(len(pairs) - 1) // 2]
            overhead = statistics.median(
                traced.cpu_s / untraced.cpu_s for untraced, traced in pairs)
            values = per_layer(chosen, overhead - 1.0)
            print(fidelity_table(chosen))
            problem = export_trace(chosen, workload.name, args.seed)
            if problem:
                problems.append(problem)
        else:
            problems.append("no untraced and traced pair succeeded")
            values = {}
        wanted = spec["per_layer"]
    else:
        measure(workload, cluster, inputs, args.seconds, runs, set_up)
        print(f"setup {statistics.median(setup_times):.4f} s, scaled "
              f"(median of {len(setup_times)}); unscaled medians: wall "
              f"{statistics.median(r.wall_s for r in runs):.4f} s, cpu "
              f"{statistics.median(r.cpu_s for r in runs):.4f} s",
              flush=True)
        values = end_to_end(runs, setup_times, inputs)
        wanted = spec["end_to_end"]

    failed = sum(1 for r in runs if r.error is not None)
    print(f"failed_frac {failed / len(runs):.4f} ({failed} of {len(runs)} "
          f"runs)")
    for problem in problems:
        print(f"FAILED: {problem}")
    metrics = {m["name"]: {"value": values[m["name"]] if values else 0.0,
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
