"""The rtcheck benchmark.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Runs one workload (verify, relations or amplitude) as a closed loop on one
thread: each operation starts when the previous one has finished.  It runs
whole passes of the workload's operations until --seconds have gone, checks
every result against the golden reference in bench/golden/, and prints its
findings, then as the last line one JSON object with the metrics:

  --trace 0  end-to-end metrics (setup_s, wall_s, op_p50_ms, op_tail_ms,
             peak_rss_mb), measured with no tracing;
  --trace 1  per-layer metrics from traced passes, alternating with
             untraced ones; trace.overhead_frac compares the two kinds.

Every invocation also runs the capability probe (amplitude n=5 N=1 and n=4
N=2 in child processes, killed after a hard timeout) outside the timed loop.
See bench/README.md.
"""

import os

# BLAS/OpenMP pools pinned to one thread, before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

# Tail percentile per workload: the highest of 50/75/90/95/99 that leaves at
# least ten operations beyond it in a --seconds 30 run at the reference
# commit.  Fixed, so that runs with more or fewer passes stay comparable.
TAIL_PERCENTILE = {"verify": 50, "relations": 95, "amplitude": 75}
SETUP_REPEATS = 7
PROBE_CASES = (("delta_n1", 5), ("rational_n2", 4))
PROBE_TIMEOUT_S = 3.0
# Pace of the calibration kernel at the reference machine speed, seconds,
# and the op time after which the pace is measured again.
REFERENCE_PACE_S = 0.004
CALIBRATE_EVERY_S = 0.5

clock = time.perf_counter


def machine_pace() -> float:
    """Seconds a fixed numpy/Python kernel takes now (median of 9 runs).

    The shared machine's speed drifts by up to two thirds within minutes,
    and the workloads slow down with it; op latencies are scaled by
    REFERENCE_PACE_S / pace, the pace measured before and after the op.
    """
    import numpy as np

    a = np.eye(4, dtype=complex) * (1 + 1j)
    b = np.ones((4, 4), dtype=complex)
    runs = []
    for _ in range(9):
        t0 = clock()
        for _ in range(200):
            c = np.einsum("ab,bc,cd->ad", a, b, a)
            float(np.max(np.abs(c @ b)))
            {j: (j, j * 2) for j in range(10)}
        runs.append(clock() - t0)
    return statistics.median(runs)


class Loop:
    """Outcome of running whole passes for a given time."""

    def __init__(self):
        self.walls: list[float] = []  # seconds per pass, sum of its ops
        self.latencies: list[float] = []  # milliseconds per op
        self.op_scales: list[float] = []  # machine-speed scale per op
        self.pass_sizes: list[int] = []  # ops per pass
        self.attempted = 0
        self.failures: list[str] = []
        self.summaries: list[dict] = []  # traced: per-layer numbers per pass
        self.layers: list[dict] = []  # traced: self ms per layer per pass
        self.first: tuple | None = None  # (op, output) of the first op

    def scaled_walls(self) -> list[float]:
        walls, ops = [], self.scaled_latencies()
        for size in self.pass_sizes:
            walls.append(sum(ops[:size]) / 1e3)
            ops = ops[size:]
        return walls

    def scaled_latencies(self) -> list[float]:
        return [t * s for t, s in zip(self.latencies, self.op_scales)]


def run_op(op, tracer):
    """Time one op; returns (seconds, output, error or None)."""
    t0 = clock()
    try:
        out = tracer.run_root("op", op.run) if tracer else op.run()
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        return clock() - t0, None, f"raised {exc!r}"
    dt = clock() - t0
    try:
        return dt, out, op.check(out)
    except Exception as exc:
        return dt, out, f"unreadable output: {exc!r}"


def run_pass(workload, seed: int, index: int, loop: Loop, tracer=None) -> None:
    """One pass of the workload's ops, appended to `loop`."""
    from tracing import layer_self_ms, pass_summary

    ops = workload.pass_ops(seed, index)
    gc.collect()
    if tracer:
        tracer.reset()
        tracer.install()
    # ops expected to be long (from the previous pass) get a calibration of
    # their own, so short ops are not scaled by the pace around a long one
    previous = loop.latencies[-len(ops):] if loop.pass_sizes[-1:] == [len(ops)] else None
    pace, group, since = machine_pace(), 0, 0.0

    def calibrate():
        nonlocal pace, group, since
        after = machine_pace()
        loop.op_scales.extend([REFERENCE_PACE_S / ((pace + after) / 2)] * group)
        pace, group, since = after, 0, 0.0

    wall = 0.0
    try:
        for i, op in enumerate(ops):
            if group and previous and previous[i] >= CALIBRATE_EVERY_S * 1e3:
                calibrate()
            dt, out, err = run_op(op, tracer)
            wall += dt
            loop.latencies.append(dt * 1e3)
            loop.attempted += 1
            if err:
                loop.failures.append(f"{op.label}: {err}")
            if loop.first is None:
                loop.first = (op, out)
            group, since = group + 1, since + dt
            if since >= CALIBRATE_EVERY_S or i == len(ops) - 1:
                calibrate()
    finally:
        if tracer:
            tracer.uninstall()
    loop.walls.append(wall)
    loop.pass_sizes.append(len(ops))
    if tracer:
        loop.summaries.append(pass_summary(tracer))
        loop.layers.append(layer_self_ms(tracer))


def repeat_check(loop: Loop) -> str | None:
    """Re-run the first op untimed: identical inputs must give identical
    output (for verify, byte-identical JSON: acceptance criterion 10)."""
    op, out = loop.first
    again = op.run()
    return None if again == out else f"repeated {op.label} gave different output"


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def setup_time(workload) -> float:
    """setup_s of one fresh interpreter (bench/setup_child.py)."""
    cmd = [sys.executable, str(HERE / "setup_child.py")]
    cmd += [str(wl.config_path(c)) for c in workload.setup_configs]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def capability_probe() -> tuple[dict, list[str]]:
    """Large amplitude queries in child processes, killed at the timeout (a
    signal cannot interrupt a running np.einsum in-process)."""
    running = {}
    for config, n in PROBE_CASES:
        ks, ps = wl.amplitude_draw(config, n, 0)
        cmd = [sys.executable, "-m", "rtcheck.cli"] + wl.amplitude_argv(config, n, ks, ps)
        label = f"amplitude n={n} N={config[-1]}"
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        running[label] = (proc, clock())
    results, errors = {}, []
    try:
        deadline = clock() + PROBE_TIMEOUT_S
        while running and clock() < deadline:
            for label, (proc, t0) in list(running.items()):
                if proc.poll() is not None:
                    results[label] = f"{clock() - t0:.2f}s"
                    if proc.returncode != 0:
                        errors.append(f"probe {label} exited {proc.returncode}: "
                                      f"{proc.stderr.read().strip()}")
                    del running[label]
            time.sleep(0.01)
    finally:
        for label, (proc, _) in running.items():
            proc.kill()
            results[label] = f"timeout>{PROBE_TIMEOUT_S:g}s"
        for proc, _ in running.values():
            proc.wait()
    return results, errors


def machine_info() -> str:
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"machine: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} blas={blas} "
            f"threads: {threads}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload, args, lines: list[str]) -> tuple[dict, Loop]:
    # set-up children run between passes, so that they meet the same drift
    # of the machine's speed as the passes; their time is not in --seconds
    setup: list[float] = []
    loop, measured = Loop(), 0.0
    while not loop.walls or measured < args.seconds:
        start = clock()
        run_pass(workload, args.seed, len(loop.walls), loop)
        measured += clock() - start
        if len(setup) < SETUP_REPEATS:
            setup.append(setup_time(workload))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_time(workload))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pct = TAIL_PERCENTILE[workload.name]
    latencies = loop.scaled_latencies()
    tail = nearest_rank(latencies, pct)
    lines.append(f"unscaled: setup_s {statistics.median(setup):.4f}  "
                 f"wall_s {statistics.median(loop.walls):.4f}  "
                 f"op_p50_ms {statistics.median(loop.latencies):.3f}  "
                 f"op_tail_ms {nearest_rank(loop.latencies, pct):.3f}")
    lines.append("speed scale per pass: " + " ".join(
        f"{w / u:.3f}" for w, u in zip(loop.scaled_walls(), loop.walls)))
    lines.append(f"passes: {len(loop.walls)}  ops: {loop.attempted}  op_tail_ms at "
                 f"p{pct} with {sum(v > tail for v in latencies)} ops beyond it")
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(loop.scaled_walls()), "s"),
        "op_p50_ms": metric(statistics.median(latencies), "ms"),
        "op_tail_ms": metric(tail, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }, loop


def traced_setup(workload, tracer) -> dict[str, float]:
    """config.* layer numbers: the in-process part of setup_s, traced."""
    from rtcheck import config

    texts = [wl.config_path(c).read_text() for c in workload.setup_configs]
    parse, build = [], []
    tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            tracer.reset()
            for text in texts:
                config.build_model(config.parse_config(text))
            parse.append(tracer.stats["config.parse"][1] * 1e3)
            build.append(tracer.stats["config.build"][1] * 1e3)
    finally:
        tracer.uninstall()
    return {"config.parse_ms": statistics.median(parse),
            "config.build_ms": statistics.median(build)}


def traced(workload, args, lines: list[str]) -> tuple[dict, Loop]:
    from tracing import EXACT, PER_LAYER_UNITS, Tracer, combine

    tracer = Tracer()
    values = traced_setup(workload, tracer)
    # untraced and traced passes alternate, so drift of the machine's speed
    # reaches both alike
    plain, loop, start = Loop(), Loop(), clock()
    while not loop.walls or clock() - start < args.seconds:
        index = 2 * len(loop.walls)
        run_pass(workload, args.seed, index, plain)
        run_pass(workload, args.seed, index + 1, loop, tracer)
    loop.attempted += plain.attempted
    loop.failures += plain.failures
    loop.first = plain.first

    values.update(combine(loop.summaries))
    plain_wall, traced_wall = statistics.median(plain.walls), statistics.median(loop.walls)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1

    lines.append(f"untraced passes: {len(plain.walls)}  wall_s {plain_wall:.4f}; "
                 f"traced passes: {len(loop.walls)}  wall_s {traced_wall:.4f}")
    layers = combine(loop.layers) if all(set(p) == set(loop.layers[0]) for p in loop.layers) \
        else {}
    for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  self time {layer:<9} {ms:12.3f} ms  "
                     f"{ms / (traced_wall * 1e3):7.1%} of traced wall")

    checks = []
    moved = sorted(m for m in EXACT if len({p[m] for p in loop.summaries}) > 1)
    checks.append(("exact counts repeat over passes and seeds", not moved, ", ".join(moved)))
    checks.append(accounting_check(workload.name, values, traced_wall * 1e3))
    for name, ok, detail in checks:
        lines.append(f"self-check {name}: {'PASS' if ok else 'FAIL'}"
                     + (f" ({detail})" if detail else ""))
    return {m: metric(values[m], PER_LAYER_UNITS[m]) for m in PER_LAYER_UNITS}, loop


def accounting_check(name: str, values: dict, wall_ms: float) -> tuple[str, bool, str]:
    """Whether the traced run accounts for the time where the workload puts it."""
    if name == "amplitude":
        share = values["fock.contract_ms"] / wall_ms
        return ("fock.contract_ms is most of wall_s", share > 0.5, f"{share:.1%}")
    if name == "relations":
        busy = [m for m, v in values.items() if m.startswith("fock.") and v]
        return ("every fock.* number is zero", not busy, ", ".join(busy))
    families = {m: v for m, v in values.items() if m.startswith("suite.check_ms.")}
    top = max(families, key=families.get)
    share = families[top] / sum(families.values())
    return ("hierarchy is the largest suite.check_ms share",
            top == "suite.check_ms.hierarchy", f"{top} {share:.1%}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rtcheck benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "rtcheck"
    if not (package / "__init__.py").is_file():
        print(f"bench: no rtcheck sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rtcheck

    if Path(rtcheck.__file__).resolve().parent != package.resolve():
        print(f"bench: imported rtcheck from {rtcheck.__file__}, not {package}",
              file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload]()
    workload.setup()
    lines = [machine_info(), f"workload: {workload.name}  seed: {args.seed}  "
             f"seconds: {args.seconds:g}  trace: {args.trace}"]
    run = traced if args.trace else untraced
    metrics, loop = run(workload, args, lines)
    repeat_error = repeat_check(loop)
    probe, problems = capability_probe()
    if repeat_error:
        problems.append(repeat_error)

    lines.append(f"fail_frac: {len(loop.failures) / loop.attempted:.4f} "
                 f"({len(loop.failures)} of {loop.attempted} ops)")
    lines.append("capability probe: " + "  ".join(f"{k}: {v}" for k, v in probe.items()))
    lines.append(f"repeat determinism: {'FAIL' if repeat_error else 'PASS'}")
    lines += [f"FAILED {f}" for f in loop.failures[:10]] + problems
    print("\n".join(lines))
    print(json.dumps({
        "correct": not loop.failures and not problems,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
