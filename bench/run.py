"""hypershuffle benchmark: one workload per run, or a smoke test of all four.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Workloads: sample-fig, chain-m200, replicas-40x40, exact-verify (see
bench/README.md).  With ``--trace 0`` the run prints the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it prints the per-layer metrics, taken
from a traced repeat and a scaling sweep.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Everything runs in this single process, except the set-up probes: fresh
interpreters that time the package import and input building.  BLAS
threads are pinned to one.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "hypershuffle"
SETUP_PROBES = 3
MIN_REPEATS = 3
# Stop starting repeats after this long, whatever --seconds says, so that a
# run always ends well inside three minutes.
HARD_STOP_S = 120.0
WORKLOADS = ("sample-fig", "chain-m200", "replicas-40x40", "exact-verify")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_seconds(name: str, seed: int, tiny: bool, probes: int) -> list[float]:
    """Set-up time of ``probes`` fresh interpreters, run one after another."""
    times = []
    for k in range(probes):
        workdir = WORK / f"probe-{os.getpid()}-{k}"
        workdir.mkdir(parents=True)
        try:
            cmd = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(workdir)]
            done = subprocess.run(cmd + (["--tiny"] if tiny else []), capture_output=True,
                                  text=True, timeout=120)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"min {min(values):.4f} q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f} max {max(values):.4f}"


def _repeat(budget: float, minimum: int, body) -> None:
    """Call ``body`` until ``budget`` seconds have passed and it ran ``minimum`` times.

    Successive calls run on each CPU this process may use in turn: other
    tenants of a shared machine load its cores unevenly and at different
    times, and the fastest repeat then comes from the least loaded core.
    Only this process's own affinity changes, and it is restored on return.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    began = time.perf_counter()
    count = 0
    try:
        while count < minimum or time.perf_counter() - began < budget:
            if time.perf_counter() - began > HARD_STOP_S:
                break
            os.sched_setaffinity(0, {cpus[count % len(cpus)]})
            body()
            count += 1
    finally:
        os.sched_setaffinity(0, allowed)


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple:
    """Measure one workload; returns (result object, note lines).

    A repeat is the workload's timed parts, in order.  ``wall_s`` adds up
    the fastest time of each part over all repeats: the program is
    deterministic and CPU-bound, and interference from other processes on
    the machine only ever adds time (see bench/README.md).
    """
    probes = [] if trace else setup_seconds(name, seed, tiny, 1 if tiny else SETUP_PROBES)

    import workloads

    wl = workloads.make(name, tiny)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    checks: list[tuple[str, bool]] = []
    reference: list[bytes] = []
    part_walls: list[list[float]] = []  # per part, one entry per repeat
    walls: list[float] = []  # per repeat
    cpus: list[float] = []  # per repeat
    try:
        inputs = wl.setup(seed, workdir)

        def finish(results: list, label: str) -> None:
            out = wl.output(inputs, results)
            checks.extend(wl.checks(inputs, results))
            if reference:
                checks.append((f"{label} output identical to the first repeat",
                               out == reference[0]))
            else:
                reference.append(out)

        def untraced() -> None:
            results, times = [], []
            c0 = time.process_time()
            for part in wl.parts(inputs):
                t0 = time.perf_counter()
                results.append(part())
                times.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            walls.append(sum(times))
            if not part_walls:
                part_walls.extend([] for _ in times)
            for k, t in enumerate(times):
                part_walls[k].append(t)
            finish(results, "untraced")

        _repeat(seconds / 2 if trace else seconds, MIN_REPEATS, untraced)
        wall = sum(min(ts) for ts in part_walls)
        notes = [f"workload {name} seed {seed} trace {int(trace)}",
                 f"shape {json.dumps(inputs['shape'], sort_keys=True)}",
                 f"repeat wall_s over {len(walls)} repeats: {_quartiles(walls)}",
                 f"wall_s, the fastest time of each of {len(part_walls)} part(s) added up: "
                 f"{wall:.4f}"]
        if trace:
            metrics = traced_metrics(name, wl, inputs, seed, wall, walls, cpus, finish,
                                     seconds, tiny, notes)
            metrics["checks.error_rate"] = _metric(
                sum(not ok for _, ok in checks) / len(checks), _unit("checks.error_rate"))
        else:
            metrics = {
                "setup_s": _metric(statistics.median(probes), "s"),
                "wall_s": _metric(wall, "s"),
                "steps_per_s": _metric(wl.work(inputs) / wall, "1/s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            notes.append(f"setup_s over {len(probes)} probes: {_quartiles(probes)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [label for label, ok in checks if not ok]
    notes += [f"check failed: {label}" for label in sorted(set(failed))]
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
              "metrics": metrics}
    return result, notes


def traced_metrics(name, wl, inputs, seed, wall, walls, cpus, finish, seconds, tiny,
                   notes) -> dict:
    """Traced repeats, the replica fixed/per-step split, and the scaling sweep.

    The spans of the fastest traced repeat give the per-layer figures; its
    wall time over the untraced ``wall`` is the tracing overhead.
    """
    import workloads
    from tracer import Tracer

    best: list = []  # [wall, tracer, results] of the fastest traced repeat

    def traced() -> None:
        results, traced_wall = [], 0.0
        with Tracer() as tracer:
            for part in wl.parts(inputs):
                t0 = time.perf_counter()
                results.append(part())
                traced_wall += time.perf_counter() - t0
        finish(results, "traced")
        if not best or traced_wall < best[0]:
            best[:] = [traced_wall, tracer, results]

    _repeat(seconds / 4, 1, traced)
    traced_wall, tracer, results = best
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    tracer.save(WORK / "traces" / f"{name}.npz")
    notes.append(f"traced wall_s {traced_wall:.4f}, {len(tracer.end)} spans")

    values = tracer.metrics(traced_wall)
    values["trace.overhead_ratio"] = traced_wall / wall
    values["proc.cpu_s"] = min(cpus)
    values["proc.cpu_util"] = statistics.median(c / w for c, w in zip(cpus, walls))

    step_us = fixed_s = 0.0
    if name == "replicas-40x40":
        # Fixed cost and per replica-step cost from the same public call at
        # steps=1 and at the workload's K steps.
        ones: list[float] = []

        def one_step() -> None:
            t0 = time.perf_counter()
            wl.sample(inputs, steps=1)
            ones.append(time.perf_counter() - t0)

        _repeat(0, MIN_REPEATS, one_step)
        per_step = (wall - min(ones)) / (wl.steps - 1)
        step_us = per_step / wl.replicas * 1e6
        fixed_s = min(ones) - per_step
    values["replicas.step_us"] = step_us
    values["replicas.fixed_s"] = fixed_s
    values["replicas.distinct_finals"] = len(results[0]) if name == "replicas-40x40" else 0
    values.update(workloads.scaling_sweep(seed, tiny))

    return {key: _metric(value, _unit(key)) for key, value in values.items()}


def _unit(key: str) -> str:
    """Unit from the metric name: ``*_us``, ``*_s``, ratios, bytes, else a count."""
    if key.startswith("sweep."):
        key = key.rsplit(".", 1)[0]  # drop the sweep point's label
    last = key.rsplit(".", 1)[-1]
    if last.endswith("_us"):
        return "us"
    if last.endswith("_s"):
        return "s"
    if last.endswith(("_ratio", "_util", "error_rate")):
        return "ratio"
    return "B" if last == "bytes" else "count"


def smoke() -> int:
    """Every workload at tiny size, untraced and traced, against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from the benchmark's", file=sys.stderr)
        return 1
    bad = 0
    for name in WORKLOADS:
        for trace in (False, True):
            result, notes = run(name, seed=1, seconds=0.5, trace=trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = [line for line in notes if line.startswith("check failed")]
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got.keys() & expected[trace].keys()
                               if got[k] != expected[trace][k])
                problems.append(f"missing {missing} extra {extra} wrong units {wrong}")
            print(f"smoke {name} trace {int(trace)}: "
                  + ("ok" if not problems else "FAIL " + "; ".join(problems)))
            bad += bool(problems)
    print("smoke: ok" if not bad else f"smoke: {bad} failure(s)")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check the metric names")
    args = parser.parse_args()
    if not (ROOT / "src" / "hypershuffle" / "__init__.py").is_file():
        print(f"error: no hypershuffle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in notes:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
