"""effectkit benchmark: run one workload for a fixed time, print one result.

    python3 bench/run.py --workload tomography --seed 1 --seconds 20 --trace 0

Run from the root of an effectkit checkout; the program is imported from
``src`` there and nothing is installed. The load is closed-loop with one
client: a single process that runs at most one CLI child at a time, with
one BLAS thread in parent and children. Every operation is timed twice:

* as fresh ``python -m effectkit`` subprocesses started by ``spawn.py``
  (``wall_s``, start-up included, and ``peak_rss_mb`` from ``os.wait4``),
  and
* as ``effectkit.cli.main(argv)`` in this warm process with stdout
  captured (``work_s``).

After each subprocess operation, in-process operations run for about as
long (at least one), so both sides see the same machine conditions. One
in-process warm-up operation is discarded. ``setup_s`` is the median of
fresh ``python -m effectkit --version`` runs, five before the loop and two
in each round of it. Every operation's output passes the workload's
correctness gate or counts as failed. Times are reported in reference
seconds (see ``Calibration``).

With ``--trace 1`` the run alternates untraced and traced in-process
operations and reports per-layer metrics (see README.md) instead.

The last stdout line is the JSON result; the lines before it give the
protocol, machine facts and every metric by name and unit.
"""

from __future__ import annotations

import os

# Before numpy loads BLAS, here and in every child.
BLAS_THREADS = {v: "1" for v in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 5          # before the loop; then SETUP_PER_ROUND per round
SETUP_PER_ROUND = 2
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 150.0
P90_MIN_SAMPLES = 100
CAL_REF_S = 0.02        # probe time that defines one reference second
CAL_INTERVAL_S = 0.5
CAL_MAX_BURST = 10

END_TO_END = {"setup_s": "s", "wall_s": "s", "work_s": "s", "peak_rss_mb": "MB"}


class Child:
    """Exit code, wall time, peak RSS and output of one CLI child."""

    def __init__(self, reply: dict, out_path: Path, err_path: Path):
        self.wall = reply["wall"]
        self.code = reply["code"]
        self.rss_mb = reply["maxrss_kb"] / 1024.0
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_bytes().decode("utf-8", "replace")


class Spawner:
    """Starts CLI children one at a time through ``spawn.py``."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawn.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, work: Path) -> Child:
        out_path, err_path = work / "child.out", work / "child.err"
        self.proc.stdin.write(json.dumps({
            "argv": argv, "env": env, "cwd": str(ROOT), "out": str(out_path),
            "err": str(err_path), "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawn.py exited with code {self.proc.wait()}")
        return Child(json.loads(reply), out_path, err_path)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def effectkit_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "effectkit", *args]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREADS)


class Runner:
    """Runs operations of one workload and applies its correctness gate."""

    def __init__(self, workload, work: Path, spawner: Spawner):
        from effectkit import cli
        self.cli = cli
        self.workload = workload
        self.work = work
        self.spawner = spawner
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []

    def _judge(self, codes: list[int], outs: list[bytes], errs: list[str]) -> None:
        self.attempted += 1
        bad = [(i, c) for i, c in enumerate(codes) if c != 0]
        if bad:
            i, code = bad[0]
            reason = f"call {i} exited {code}: {errs[i].strip()[-200:]}"
        else:
            try:
                reason = self.workload.check(outs)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append(reason)

    def subprocess_op(self) -> tuple[float, float]:
        """(wall seconds, peak RSS MB) of one operation as fresh children."""
        wall, rss, codes, outs, errs = 0.0, 0.0, [], [], []
        for argv in self.workload.steps:
            child = self.spawner.run(effectkit_argv(argv), self.env, self.work)
            wall += child.wall
            rss = max(rss, child.rss_mb)
            codes.append(child.code)
            outs.append(child.stdout)
            errs.append(child.stderr)
            if child.code != 0:
                break
        self._judge(codes, outs, errs)
        return wall, rss

    def inprocess_op(self, judge: bool = True) -> float:
        """Seconds spent in ``cli.main`` over the operation's calls."""
        spent, codes, outs, errs = 0.0, [], [], []
        for argv in self.workload.steps:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = self.cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                spent += time.perf_counter() - start
            codes.append(code)
            outs.append(out.getvalue().encode("utf-8"))
            errs.append(err.getvalue())
            if code != 0:
                break
        if judge:
            self._judge(codes, outs, errs)
        return spent


def measure_setup(runner: Runner, runs: int) -> list[float]:
    """Wall times of fresh ``python -m effectkit --version`` children."""
    times = []
    for _ in range(runs):
        child = runner.spawner.run(effectkit_argv(["--version"]), runner.env,
                                   runner.work)
        if child.code != 0 or child.stdout.decode().strip() != _version():
            raise RuntimeError(f"--version failed: {child.stderr.strip()}")
        times.append(child.wall)
    return times


def import_times(env: dict) -> tuple[float, float]:
    """Median cumulative import seconds of effectkit.cli and of numpy."""
    cli_s, numpy_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import effectkit.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].strip()
                found.setdefault(name, int(parts[1]) / 1e6)
        cli_s.append(found["effectkit.cli"])
        numpy_s.append(found["numpy"])
    return statistics.median(cli_s), statistics.median(numpy_s)


class Calibration:
    """Machine-speed probe: a fixed mix of interpreter and small-numpy work.

    Other tenants of the machine change its speed by 10-25% over minutes,
    and every timing moves with it. End-to-end times are reported in
    reference seconds, raw seconds times ``CAL_REF_S`` over the median probe
    time of the same run, which cancels that common factor. The raw medians
    are printed as well.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._matrix = np.random.default_rng(0).standard_normal((64, 64))
        self.samples: list[float] = []
        self._last = time.perf_counter() - CAL_INTERVAL_S

    def _probe(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        a = self._matrix
        for _ in range(20):
            a = np.tanh(a @ a.T / 64)
        return time.perf_counter() - start

    def tick(self) -> None:
        """Probe once per ``CAL_INTERVAL_S`` elapsed since the last tick.

        Between long operations the probes come in a burst, so that each
        stretch of the run weighs in the median by its length.
        """
        due = int((time.perf_counter() - self._last) / CAL_INTERVAL_S)
        if due:
            self.samples += [self._probe() for _ in range(min(due, CAL_MAX_BURST))]
            self._last = time.perf_counter()

    def scale(self) -> float:
        return CAL_REF_S / statistics.median(self.samples)


def run_untraced(runner: Runner, seconds: float, one_op: bool) -> dict:
    import tracer
    tracer.assert_untraced()
    cal = Calibration()
    cal.tick()
    setup = measure_setup(runner, SETUP_RUNS)
    last_work = runner.inprocess_op(judge=False)  # warm-up, discarded
    walls, rss, works = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        cal.tick()
        setup += measure_setup(runner, SETUP_PER_ROUND)
        wall, peak = runner.subprocess_op()
        walls.append(wall)
        rss.append(peak)
        repeats = 1 if one_op else max(1, round(wall / last_work))
        for _ in range(repeats):
            cal.tick()
            last_work = runner.inprocess_op()
            works.append(last_work)
        pair = time.perf_counter() - start
        if one_op or time.perf_counter() + pair > deadline:
            break
    cal.tick()
    tracer.assert_untraced()
    raw = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
           "work_s": statistics.median(works)}
    if len(works) >= P90_MIN_SAMPLES:
        raw["work_p90_s"] = statistics.quantiles(works, n=10)[-1]
    metrics = {k: v * cal.scale() for k, v in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(rss)
    summary = {"setup_runs": len(setup), "subprocess_ops": len(walls),
               "inprocess_ops": len(works), "calibration_probes": len(cal.samples),
               "calibration_s": statistics.median(cal.samples),
               "calibration_ref_s": CAL_REF_S}
    # work_p90_s and the raw seconds are printed but not declared metrics.
    shown = {**metrics, **{f"raw.{k}": v for k, v in raw.items()}}
    units = {k: END_TO_END.get(k.removeprefix("raw."), "s") for k in shown}
    return {"metrics": {k: metrics[k] for k in END_TO_END}, "shown": shown,
            "units": units, "summary": summary}


def run_traced(runner: Runner, seconds: float, one_op: bool) -> dict:
    import layers
    import tracer
    runner.inprocess_op(judge=False)  # warm-up, discarded
    cli_import, numpy_import = import_times(runner.env)
    trace = tracer.Tracer()
    plain, traced, ranges = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        tracer.assert_untraced()
        plain.append(runner.inprocess_op())
        trace.op = len(ranges)
        lo = len(trace.spans)
        trace.install()
        try:
            traced.append(runner.inprocess_op())
        finally:
            trace.restore()
        ranges.append((lo, len(trace.spans)))
        pair = time.perf_counter() - start
        if one_op or time.perf_counter() + pair > deadline:
            break
    selfs = tracer.self_times(trace.spans)
    per_op = [layers.operation_metrics(trace.spans, selfs, lo, hi)
              for lo, hi in ranges]
    metrics = {"cli.import_s": cli_import, "cli.import_numpy_s": numpy_import}
    for name in per_op[0]:
        metrics[name] = statistics.median(op[name] for op in per_op)
    mains = [i for i, n in enumerate(trace.spans.name) if n == "cli.main"]
    whole = sum(trace.spans.duration(i) for i in mains)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.coverage"] = 1.0 - sum(selfs[i] for i in mains) / whole
    summary = {"traced_ops": len(traced), "untraced_ops": len(plain),
               "spans": len(trace.spans),
               "work_s_untraced": statistics.median(plain),
               "work_s_traced": statistics.median(traced)}
    metrics = {n: metrics[n] for n in layers.UNITS}
    return {"metrics": metrics, "shown": metrics, "units": layers.UNITS,
            "summary": summary}


def _version() -> str:
    import effectkit
    return effectkit.__version__


def machine_facts() -> dict:
    import numpy as np
    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "git_commit": None,
        "source_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((SRC / "effectkit").glob("*.py"))
        )).hexdigest(),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            facts["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            facts["git_commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
    return facts


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-test size: d=4, 3 bases, one operation")
    args = parser.parse_args(argv)

    if not (SRC / "effectkit" / "cli.py").is_file():
        print(f"no effectkit source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    spawner = Spawner()
    try:
        workload = workloads.prepare(args.workload, args.seed, work, args.small)
        runner = Runner(workload, work, spawner)
        run = run_traced if args.trace else run_untraced
        result = run(runner, args.seconds, args.small)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    protocol = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "small": args.small,
        "load": "closed loop, 1 client, at most one CLI child at a time",
        "blas_threads": BLAS_THREADS, "warmup_ops_discarded": 1,
        "cpu_pinning": "none", "frequency_control": "none",
        "why_unpinned": "machine settings are not changed",
        "inputs": workload.facts, "samples": result["summary"],
        "machine": machine_facts(),
    }
    print("protocol " + json.dumps(protocol, sort_keys=True))
    for reason in sorted(set(runner.failures)):
        print(f"failure  {reason}")
    rows = dict(result["shown"], fail_ratio=failed / runner.attempted)
    units = dict(result["units"], fail_ratio="1")
    for name, value in rows.items():
        print(f"metric   {name:<24} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": result["units"][n]}
                    for n, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
