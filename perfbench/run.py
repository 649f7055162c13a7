"""The tilecohom benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload penrose-both --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished, and no operation starts once it would
be expected to end after ``--seconds``; at least one always runs.  Every
operation is checked against the shipped ``*.expected.json`` values, and
one that fails a check counts as failed however fast it was.

Every operation runs in a child process.  The CPU's speed drifts, so the
benchmark pins itself and its children to one CPU and, while a child
runs, times a fixed reference computation (``reference.py``) every half
second; the end-to-end times are ratios to its mean CPU time.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
pairs of one untraced and one traced operation run in the same closed
loop and the per-layer metrics are printed.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See NOTES.md for why each workload exists and
which metric each layer moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from common import (
    HERE,
    ROOT,
    SRC,
    STORED_COMPLEX,
    SYSTEMS,
    Checker,
    expected_values,
    groups_json,
    use_source_tree,
)
from reference import reference_cpu
from tracer import PER_LAYER

END_TO_END = {
    "wall_ref": "ratio",
    "cpu_ref": "ratio",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_frac": "fraction",
}

# set-up runs this many times per run and reports the median
SETUP_REPEATS = 5

# seconds between reference samples while an operation's process runs
SAMPLE_INTERVAL_S = 0.5


@dataclass
class Op:
    """One measured operation and the problems its checks found."""

    wall: float
    cpu: float
    rss_mib: float
    problems: list = field(default_factory=list)
    trace: dict | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def pin_to_one_cpu():
    """Run this process and its children on one CPU, the one the reference samples gauge.

    Each CPU of the machine drifts in speed on its own, so a sample taken
    on the other CPU would say nothing about the operation.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def sample_until_exit(pid: int, samples: list):
    """Time the reference computation every SAMPLE_INTERVAL_S until process ``pid`` ends.

    The child is busy on the CPU this process shares with it, so each
    sample runs between the child's time slices and sees the speed the
    child sees at that moment.
    """
    fd = os.pidfd_open(pid)
    try:
        while not select.select([fd], [], [], SAMPLE_INTERVAL_S)[0]:
            samples.append(reference_cpu())
    finally:
        os.close(fd)


def run_child(cmd: list, stdout_path: Path, stderr_path: Path, samples=None) -> Op:
    """Run one child to completion; CPU and peak RSS come from its wait4 rusage.

    With a ``samples`` list, reference samples taken while the child runs
    are appended to it.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        try:
            if samples is not None:
                sample_until_exit(proc.pid, samples)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
    if proc.returncode != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
        op.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    return op


def timed_setup(work: Path, code: str) -> float:
    """Wall time of a fresh interpreter that imports a workload's layers and loads its input."""
    op = run_child([sys.executable, "-c", code], work / "setup.out", work / "setup.err")
    if op.problems:
        raise RuntimeError(f"set-up failed: {op.problems}")
    return op.wall


def check_report(report: dict, exp: dict, route: str) -> list:
    """Problems in a CLI cohomology report, compared with penrose.expected.json."""
    c = Checker()
    c.want("passed", report.get("passed"), True)
    for verdict in report.get("verdicts", []):
        if verdict.get("passed") is not True:
            c.problems.append(f"verdict {verdict.get('name')} failed")
    atlas = report["atlas"]
    counts = atlas["counts"]
    c.want("atlas counts", [counts["tile_classes"], counts["edge_star_classes"],
                            counts["vertex_star_classes"]], exp["atlas_counts"])
    c.want("atlas closure level", atlas["closure_level"], exp["atlas_closure_level"])
    c.want("symmetry orders", atlas["orders"], exp["symmetry_orders"])
    c.want("omega multiset", sorted(o["winding"] for o in report["omega"]),
           exp["omega_multiset"])
    c.want("rho multiset (tenths)",
           sorted(Fraction(*r["turns"]) * 10 for r in report["rho"]),
           exp["rho_multiset_tenths"])
    routes = report["routes"]
    if route in ("spectral", "both"):
        sp = routes["spectral"]
        c.want("spectral groups", sp["groups"], groups_json(exp["final_groups"]))
        for page, key in (("E2", "e2"), ("Einf", "einf")):
            for row in ("q0", "q1"):
                c.want(f"{page} {row}", sp[page][row], groups_json(exp[f"{key}_{row}"]))
    if route == "both":
        mt = routes["mapping_torus"]
        for key in ("hull", "invar", "coinvar", "quotient_hull"):
            c.want(key, mt[key], groups_json(exp[key]))
        c.want("mapping torus groups", mt["groups"], groups_json(exp["mapping_torus"]))
        c.want("cells", mt["cells"], exp["approximant_cells"])
        c.want("collared classes", mt["collared_classes"], exp["collared_classes"])
        c.want("collar level", mt["collar_level"], exp["collar_level"])
        c.want("stabilization stages", mt["stabilization_stages"],
               exp["stabilization_stages"])
    return c.problems


class CliWorkload:
    """``tilecohom cohomology penrose.json --route ROUTE`` in a fresh process.

    The seed is accepted but unused: only the shipped system file has a
    known answer.
    """

    def __init__(self, route: str, seed: int, work: Path):
        self.route = route
        self.work = work
        self.system = SYSTEMS / "penrose.json"
        self.expected = expected_values("penrose")
        self.report_sha: str | None = None

    def _cli_args(self, report_path: Path) -> list:
        return ["cohomology", str(self.system), "--route", self.route,
                "--json", str(report_path)]

    def setup(self) -> float:
        return timed_setup(self.work, "import tilecohom.cli; from tilecohom.tiling "
                           f"import load_system; load_system({str(self.system)!r})")

    def _finish(self, op: Op, report_path: Path) -> Op:
        if op.problems:
            return op
        try:
            data = report_path.read_bytes()
            report = json.loads(data)
            op.problems += check_report(report, self.expected, self.route)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            op.problems.append(f"unreadable report: {exc!r}")
            return op
        # report.json must be byte-identical between operations of one run
        sha = hashlib.sha256(data).hexdigest()
        if self.report_sha is None:
            self.report_sha = sha
        elif sha != self.report_sha:
            op.problems.append(f"report sha256 {sha} differs from {self.report_sha}")
        return op

    def operation(self, index: int, samples=None) -> Op:
        report = self.work / f"report{index}.json"
        cmd = [sys.executable, "-m", "tilecohom.cli", *self._cli_args(report)]
        op = run_child(cmd, self.work / "op.out", self.work / "op.err", samples)
        return self._finish(op, report)

    def traced_operation(self, index: int) -> Op:
        report = self.work / f"report{index}.json"
        trace_path = self.work / "trace.json"
        cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
               str(trace_path), *self._cli_args(report)]
        op = run_child(cmd, self.work / "op.out", self.work / "op.err")
        op = self._finish(op, report)
        if not op.problems:
            op.trace = json.loads(trace_path.read_text())
        return op


class HullAlgebraWorkload:
    """The exact-algebra layer alone, on seeded relabellings of the Penrose complex.

    One operation, ``hull_op.py`` in a child process, computes hull
    cohomology, the rotation action, the mapping torus and the quotient of
    one conjugated complex.  Its times are those of the computation alone,
    as the child measures them; its peak RSS is the child's.
    """

    def __init__(self, seed: int, work: Path):
        from complexes import prepare

        self.seed = seed
        self.work = work
        prepare(STORED_COMPLEX, seed)  # stops the run early if the stored complex is broken

    def setup(self) -> float:
        return timed_setup(self.work, f"import complexes; complexes.prepare("
                           f"{str(STORED_COMPLEX)!r}, {self.seed})")

    def _run(self, index: int, trace: bool, samples=None) -> Op:
        out = self.work / "hull_op.json"
        cmd = [sys.executable, str(HERE / "hull_op.py"), str(self.seed), str(index), str(out)]
        op = run_child(cmd + ["--trace"] * trace, self.work / "op.out", self.work / "op.err",
                       samples)
        if op.problems:
            return op
        result = json.loads(out.read_text())
        op.wall, op.cpu, op.trace = result["wall"], result["cpu"], result["trace"]
        op.problems += result["problems"]
        return op

    def operation(self, index: int, samples=None) -> Op:
        return self._run(index, False, samples)

    def traced_operation(self, index: int) -> Op:
        return self._run(index, True)


WORKLOADS = {
    "penrose-both": lambda seed, work: CliWorkload("both", seed, work),
    "penrose-spectral": lambda seed, work: CliWorkload("spectral", seed, work),
    "hull-algebra": HullAlgebraWorkload,
}


def closed_loop(workload, seconds: float) -> tuple:
    """The operations, and the CPU times of the reference samples taken while they ran."""
    ops, samples = [], []
    start = time.perf_counter()
    while True:
        ops.append(workload.operation(len(ops), samples))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(op.wall for op in ops) > seconds:
            if not samples:  # only an operation that failed at once is this short
                samples.append(reference_cpu())
            return ops, samples


def traced_loop(workload, seconds: float) -> list:
    """Pairs of one untraced and one traced operation on the same input.

    The order inside a pair alternates, so that drift in machine speed
    does not always favour the same side.
    """
    pairs = []
    start = time.perf_counter()
    while True:
        i = len(pairs)
        if i % 2 == 0:
            untraced = workload.operation(i)
            traced = workload.traced_operation(i)
        else:
            traced = workload.traced_operation(i)
            untraced = workload.operation(i)
        pairs.append((untraced, traced))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(pairs) > seconds:
            return pairs


def end_to_end(ops: list, samples: list, setup_times: list) -> dict:
    """Mean operation times over the mean CPU time of a reference sample.

    Means, not medians: the CPU switches between a fast and a slow state
    every few seconds, so operation times of a few seconds fall into two
    groups and a median jumps between them as the mix changes, while a
    mean follows the mix smoothly.
    """
    ok = sum(1 for op in ops if not op.problems)
    reference = statistics.mean(samples)
    values = {
        "wall_ref": statistics.mean(op.wall for op in ops) / reference,
        "cpu_ref": statistics.mean(op.cpu for op in ops) / reference,
        "peak_rss_mib": statistics.median(op.rss_mib for op in ops),
        "setup_s": statistics.median(setup_times),
        "ok_frac": ok / len(ops),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(pairs: list) -> dict:
    """Medians over the traced operations, and tracing overhead per pair."""
    pairs = [(u, t) for u, t in pairs if t.trace is not None]
    if not pairs:
        values = {name: 0 for name in PER_LAYER}
    else:
        values = {name: statistics.median(t.trace["metrics"][name] for _, t in pairs)
                  for name in pairs[0][1].trace["metrics"]}
        values["trace.wall_s"] = statistics.median(t.wall for _, t in pairs)
        values["trace.overhead_s"] = statistics.median(t.wall - u.wall for u, t in pairs)
        values["trace.stage_self_s"] = statistics.median(
            t.trace["stage_self_s"] for _, t in pairs)
        values["trace.accounted_frac"] = statistics.median(
            (t.trace["stage_self_s"] - (t.wall - u.wall)) / u.wall for u, t in pairs)
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}


def _missing_inputs() -> list:
    needed = [SRC / "tilecohom" / "cli.py", SYSTEMS / "penrose.json",
              SYSTEMS / "penrose.expected.json", STORED_COMPLEX]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = _missing_inputs()
    if missing:
        sys.stderr.write(f"error: not a tilecohom checkout, missing {', '.join(missing)}\n")
        return 2
    use_source_tree()
    pin_to_one_cpu()

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.setup()  # untimed: fills bytecode and file caches
        if args.trace:
            pairs = traced_loop(workload, args.seconds)
            ops = [op for pair in pairs for op in pair]
            metrics = per_layer(pairs)
        else:
            setup_times = [workload.setup() for _ in range(SETUP_REPEATS)]
            ops, samples = closed_loop(workload, args.seconds)
            metrics = end_to_end(ops, samples, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    failed = sum(1 for op in ops if op.problems)
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"operation {i} failed: {problem}")
    print(f"{args.workload}: {len(ops)} operations, {failed} failed, seed {args.seed}")
    print("  operation wall times (s): " + " ".join(f"{op.wall:.3f}" for op in ops))
    if not args.trace:
        print(f"  operation wall time (s): median {statistics.median(op.wall for op in ops):.3f}"
              f", mean {statistics.mean(op.wall for op in ops):.3f}; reference sample CPU"
              f" time (s): {len(samples)} taken, mean {statistics.mean(samples):.5f}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
