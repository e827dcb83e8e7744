"""End-to-end benchmark of the ``python -m repro`` CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload store_hit --seed 1 --seconds 20 --trace 0

One closed-loop client drives the real CLI, one process at a time (a
``--jobs 2`` or two-worker fleet invocation uses the two CPUs it asks
for).  ``--trace 0`` reports the end-to-end metrics of untraced
invocations; ``--trace 1`` alternates untraced and traced invocations of
the same inputs and reports the per-layer split (see README.md).  The
last line of standard output is the result object; the line before it
holds the details (tail percentile, environment record), which are also
written under ``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import gate, gen, layers  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_build" / "perfbench"
#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: an invocation running longer than this is killed and counted failed
INVOKE_TIMEOUT_S = 120.0
#: samples a tail percentile needs beyond it
TAIL_BEYOND = 10
JOBS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "nodes_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> dict:
    """The highest nearest-rank percentile with ``beyond`` samples above it.

    With ``n`` samples that is rank ``n - beyond``.  Below ``2 * beyond +
    1`` samples such a rank is at or under the median, so the maximum is
    reported instead, with the count of samples beyond it (0).
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - beyond
    if rank <= n // 2:
        return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "samples": n}
    return {
        "value": ordered[rank - 1],
        "percentile": 100.0 * rank / n,
        "beyond": beyond,
        "samples": n,
    }


@dataclass
class Invocation:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr_tail: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # every invocation pays the same import: no bytecode cache is written
    # into the checkout or read back from an earlier run
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def invoke(argv: list[str], log_dir: Path) -> Invocation:
    """Run one CLI process to completion; wall time and peak RSS from wait4."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT,
            start_new_session=True,
        )
        watchdog = threading.Timer(INVOKE_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # the CLI joins its workers; anything left behind is killed
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return Invocation(
        rc=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr_tail=err_path.read_text(errors="replace")[-400:],
    )


def environment() -> dict:
    """Where the numbers came from: CPUs, versions, store filesystem, source."""
    import numpy
    import scipy

    record = {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "store_fs": None,
        "git_commit": None,
        "source_digest": source_digest(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
        best = ""
        for line in Path("/proc/self/mounts").read_text().splitlines():
            _, mount, fstype, *_ = line.split()
            if str(WORK).startswith(mount) and len(mount) > len(best):
                best, record["store_fs"] = mount, fstype
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else None
        record["git_commit"] = ref
    return record


def source_digest() -> str:
    """Digest of the program's sources (the checkout is not a git repository)."""
    h = hashlib.blake2b(digest_size=8)
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Bench:
    """One run: set up, drive the CLI for ``seconds``, check every output."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.calls = 0
        self.failures: list[str] = []

    # -- set-up -----------------------------------------------------------
    def setup_once(self, rep: int) -> float:
        start = time.perf_counter()
        self.inputs = gen.generate(self.workload, self.seed, self.work / "in")
        builtins = gen.BUILTINS if self.workload == "store_hit" else ()
        self.ref = gate.reference(gate.load_specs(self.inputs.spec_files, builtins))
        if self.workload == "store_hit":
            self.hit_store = self.fill_store(rep)
        return time.perf_counter() - start

    def fill_store(self, rep: int) -> Path:
        """The cold run: one ``batch`` over every target writes the store."""
        from repro.scenarios import SCENARIOS

        fill = self.work / f"fill-{rep}"
        fill.mkdir(parents=True)
        for builtin in gen.BUILTINS:
            SCENARIOS.get(builtin).dump(fill / f"{builtin}.json")
        for path in self.inputs.spec_files:
            shutil.copy(path, fill / path.name)
        store = self.work / f"hit-store-{rep}"
        result = invoke(self.cli("batch", str(fill), "--store", str(store)), self.work / "log")
        problems = [f"exit {result.rc}"] if result.rc else []
        problems += gate.check_store(store, self.ref)
        if problems:
            raise RuntimeError(f"cold store fill failed: {problems}")
        return store

    # -- invocations ------------------------------------------------------
    def cli(self, *args: str, traced_dir: Path | None = None) -> list[str]:
        if traced_dir is None:
            return [sys.executable, "-m", "repro", *args]
        launcher = ROOT / "perfbench" / "trace_launch.py"
        return [sys.executable, str(launcher), str(traced_dir), *args]

    def target(self, index: int) -> str:
        """The ``run`` target of invocation ``index`` (store_hit only)."""
        return self.inputs.mix[index % len(self.inputs.mix)] if self.inputs.mix else ""

    def args_for(self, index: int, store: Path) -> list[str]:
        if self.workload == "store_hit":
            return ["run", self.target(index), "--store", str(self.hit_store)]
        if self.workload == "fem_fleet":
            files = [str(p) for p in self.inputs.spec_files]
            return ["fleet", *files, "--workers", str(JOBS), "--store", str(store)]
        return ["batch", str(self.inputs.root), "--store", str(store), "--jobs", str(JOBS)]

    def expected_keys(self, index: int) -> list[str]:
        if self.workload != "store_hit":
            return list(self.ref.digests)
        target = self.target(index)
        scenario_id = target if target in gen.BUILTINS else Path(target).stem
        return [self.ref.keys[scenario_id]]

    def check(self, index: int, result: Invocation, store: Path) -> list[str]:
        """Everything wrong with one invocation's outputs."""
        if result.rc != 0:
            return [f"exit {result.rc}: {result.stderr_tail!r}"]
        keys = self.expected_keys(index)
        if self.workload == "store_hit":
            store = self.hit_store
            if f"served from run store (key {keys[0]})" not in result.stdout:
                return [f"{keys[0]} was not served from the store"]
        problems = gate.check_store(store, self.ref, keys)
        if self.workload == "fem_fleet":
            solves, _ = gate.fleet_solves(store, JOBS)
            if sum(solves) != self.ref.point_solves:
                problems.append(
                    f"fleet solved {sum(solves)} nodes, serial run {self.ref.point_solves}"
                )
        return problems

    def one(self, index: int, traced: bool) -> tuple[Invocation, dict | None]:
        """Run, check and clean up one invocation (its layer parts if traced)."""
        self.calls += 1
        store = self.work / f"store-{self.calls}"
        spans = self.work / f"spans-{self.calls}" if traced else None
        result = invoke(self.cli(*self.args_for(index, store), traced_dir=spans), self.work / "log")
        problems = self.check(index, result, store)
        parts = None
        if traced and not problems:
            records = [json.loads(p.read_text()) for p in sorted(spans.glob("*.json"))]
            solves = busy = None
            if self.workload == "fem_fleet":
                solves, busy = gate.fleet_solves(store, JOBS)
            parts = layers.invocation_layers(
                records, wall_s=result.wall_s, fleet_solves=solves, fleet_busy_s=busy,
                serial_solves=self.ref.point_solves,
            )
        if problems:
            self.failures.append(f"invocation {self.calls}: {'; '.join(problems)}")
        for path in (store, spans):
            if path is not None and path.exists() and path != getattr(self, "hit_store", None):
                shutil.rmtree(path)
        return result, parts

    def nodes(self, index: int) -> int:
        if self.workload == "store_hit":
            return self.ref.nodes[self.expected_keys(index)[0]]
        return self.ref.plan_nodes

    # -- the run ----------------------------------------------------------
    def run(self) -> tuple[dict, dict]:
        import repro.__main__  # noqa: F401  -- imported before set-up is timed

        setups = [self.setup_once(rep) for rep in range(SETUP_REPS)]
        self.pass_len = self.inputs.pass_len or 1
        plain: list[tuple[int, Invocation]] = []
        traced: list[tuple[Invocation, dict | None]] = []
        index = 0
        start = time.perf_counter()
        while True:
            plain.append((index, self.one(index, traced=False)[0]))
            if self.trace:
                traced.append(self.one(index, traced=True))
            index += 1
            # whole passes only, so every run measures the same mix of inputs
            if index % self.pass_len == 0 and time.perf_counter() - start >= self.seconds:
                break
        attempted = self.calls
        failed = len(self.failures)
        detail = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "setup_reps_s": setups,
            "walls_s": [r.wall_s for _, r in plain],
            "attempted": attempted,
            "failed_ratio": failed / attempted,
            "failures": self.failures[:5],
            "env": environment(),
        }
        if self.trace:
            metrics = layers.pool([p for _, p in traced if p is not None])
            metrics["trace.overhead"] = (
                sum(r.wall_s for r, _ in traced) / sum(r.wall_s for _, r in plain)
            )
            metrics["failed_ratio"] = failed / attempted
            units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        else:
            walls = [r.wall_s for _, r in plain]
            by_input: dict[str, list[float]] = {}
            nodes = 0
            for i, r in plain:
                if self.target(i) not in by_input:
                    nodes += self.nodes(i)
                by_input.setdefault(self.target(i), []).append(r.wall_s)
            # one pass = every input once, each at its median wall-clock
            pass_s = sum(statistics.median(w) for w in by_input.values())
            lat_tail = tail(walls)
            detail["latency_tail"] = {k: v for k, v in lat_tail.items() if k != "value"}
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": pass_s,
                "latency_p50_s": statistics.median(walls),
                "latency_tail_s": lat_tail["value"],
                "nodes_per_s": nodes / pass_s,
                "peak_rss_mb": max(r.rss_mb for _, r in plain),
            }
            units = END_TO_END
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(
            f"error: {ROOT} holds no src/repro; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        detail, result = Bench(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        ).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps({**detail, "result": result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
