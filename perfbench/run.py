#!/usr/bin/env python3
"""Layered benchmark of codedpc: one workload per run, or all of them.

    python3 perfbench/run.py --workload noisy-random --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                  # every workload, untraced and traced

One run builds the workload's inputs from ``--seed``, finishes lazy set-up,
then runs the workload's units in a closed loop (each call starts when the
previous one returns) in this single process.  The first pass over the units
always completes; further passes repeat units while ``--seconds`` allows, and
each unit's time is the median of its repeats.  Every output is checked, and
every repeat must reproduce its first output exactly.

With ``--trace 0`` the run reports the end-to-end metrics; ``setup_s`` is
the median over several fresh processes that import the package and build
the inputs.  With ``--trace 1`` the first pass records spans around calls
into the package's modules and the run reports per-layer metrics; later
passes run untraced, and the difference is the tracing overhead.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is a JSON report with the
machine, exact counts, the workload's own metrics and any failures.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os

# BLAS threads are capped before numpy is first imported, here and in every
# child process (they inherit the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_clock
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 7
#: Calibration kernel that corrects set-up times (see bench_clock).
SETUP_PROFILE = "memory"
SEED1_REFERENCE = HERE / "seed1_counts.json"

WORKLOAD_NAMES = ("ic-sweep", "noisy-random", "coding-binary", "coding-ic")

#: End-to-end metrics every workload reports with --trace 0.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics every workload reports with --trace 1 (0 where the
#: layer is idle on that workload).
PER_LAYER = {
    "optimizer.us_per_inner_iter": "us",
    "optimizer.inner_iters": "count",
    "optimizer.zero_iter_frac": "fraction",
    "optimizer.solve_s": "s",
    "optimizer.solve_ms_p90": "ms",
    "optimizer.uncertified": "count",
    "optimizer.cert_gap_max": "payoff",
    "coding.run_s": "s",
    "coding.codewords_per_s": "1/s",
    "coding.sys_frac": "fraction",
    "coding.encoder_fail_frac": "fraction",
    "coding.typical_candidates_mean": "count",
    "coding.codebook_size": "count",
    "coding.config_s": "s",
    "cli.self_s": "s",
    "icmodel.self_s": "s",
    "optimizer.self_s": "s",
    "coding.self_s": "s",
    "constraint.self_s": "s",
    "probability.self_s": "s",
    "constraint.gap_us_per_call": "us",
    "probability.cmi_us_per_call": "us",
    "probability.compose_calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
}


def import_package():
    """Put the checkout's ``src`` first on the path and import codedpc from it."""
    package = SRC / "codedpc"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no package source at {package}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import codedpc

    if Path(codedpc.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported codedpc from {codedpc.__file__}, not from {package}")
    return codedpc


# --------------------------------------------------------------------------
# Machine record
# --------------------------------------------------------------------------


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "codedpc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "source_sha256": source_hash(),
    }


# --------------------------------------------------------------------------
# One workload in this process
# --------------------------------------------------------------------------


def setup_probe(name: str, seed: int, tiny: bool) -> None:
    """Body of a fresh set-up process: import the package, build the inputs.

    numpy and the harness's own modules are imported first and not timed:
    the package cannot change their cost.  Prints the timed part in wall and
    reference seconds (the machine's speed is measured right after it).
    """
    started = time.perf_counter()
    import_package()
    from bench_workloads import WORKLOADS

    WORKLOADS[name](seed, tiny=tiny)
    elapsed = time.perf_counter() - started
    speeds = {kind: bench_clock.spot_speed(kind) for kind in bench_clock.REFERENCE}
    print(json.dumps({"wall": elapsed, **{k: elapsed * v for k, v in speeds.items()}}))


def time_setup(name: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Median set-up time of fresh processes: (reference s, wall-clock s)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    ref, wall = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        ref.append(probe[SETUP_PROFILE])
        wall.append(probe["wall"])
    return statistics.median(ref), statistics.median(wall)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics from the spans of one traced pass, whose lengths in
    reference seconds are under ``"ref"``."""
    from bench_workloads import percentile

    durations = [s["ref"] for s in spans]
    own = bench_trace.self_times(spans, durations)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def total(name):
        return sum(durations[i] for i in by_name.get(name, []))

    def us_per_call(name):
        calls = by_name.get(name, [])
        return 1e6 * total(name) / len(calls) if calls else 0.0

    m = {f"{layer}.self_s": 0.0 for layer in bench_trace.LAYERS}
    for s, t in zip(spans, own):
        m[f"{bench_trace.layer_of(s['name'])}.self_s"] += t

    solves = by_name.get("optimizer.solve", [])
    iters = sum(spans[i]["iterations"] for i in solves)
    busy = sum(own[i] for i in solves if spans[i]["iterations"] > 0)
    gaps = [spans[i]["cert_gap"] for i in solves if spans[i]["cert_gap"] is not None]
    m["optimizer.us_per_inner_iter"] = 1e6 * busy / iters if iters else 0.0
    m["optimizer.inner_iters"] = iters
    m["optimizer.zero_iter_frac"] = (
        sum(spans[i]["iterations"] == 0 for i in solves) / len(solves) if solves else 0.0
    )
    m["optimizer.solve_s"] = total("optimizer.solve")
    m["optimizer.solve_ms_p90"] = (
        1e3 * percentile([durations[i] for i in solves], 0.9) if solves else 0.0
    )
    m["optimizer.uncertified"] = sum(not spans[i]["certified"] for i in solves)
    m["optimizer.cert_gap_max"] = max(gaps) if gaps else 0.0

    runs = [i for i in by_name.get("coding.run", []) if "coded_blocks" in spans[i]]
    run_s = sum(durations[i] for i in runs)
    run_wall = sum(spans[i]["end"] - spans[i]["start"] for i in runs)
    coded = sum(spans[i]["coded_blocks"] for i in runs)
    m["coding.run_s"] = run_s
    m["coding.codewords_per_s"] = (
        sum(spans[i]["codebook_size"] * spans[i]["coded_blocks"] for i in runs) / run_s
        if run_s else 0.0
    )
    m["coding.sys_frac"] = (
        sum(spans[i]["sys1"] - spans[i]["sys0"] for i in runs) / run_wall if run_wall else 0.0
    )
    m["coding.encoder_fail_frac"] = (
        sum(spans[i]["encoder_failures"] for i in runs) / coded if coded else 0.0
    )
    m["coding.typical_candidates_mean"] = (
        sum(spans[i]["typical_candidates"] for i in runs) / coded if coded else 0.0
    )
    m["coding.codebook_size"] = max((spans[i]["codebook_size"] for i in runs), default=0)
    m["coding.config_s"] = total("coding.CodingConfig")
    m["constraint.gap_us_per_call"] = us_per_call("constraint.info_constraint_gap")
    m["probability.cmi_us_per_call"] = us_per_call(
        "probability.conditional_mutual_information"
    )
    m["probability.compose_calls"] = len(by_name.get("probability.compose", []))
    return m


def _counts_flags(key: str, counts: dict) -> list[str]:
    """Compare exact counts with earlier runs of the same code and inputs."""
    OUT.mkdir(exist_ok=True)
    store = OUT / "counts.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    earlier = seen.get(key)
    if earlier is None:
        seen[key] = counts
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, sort_keys=True, indent=1))
        os.replace(tmp, store)
        return []
    return [
        f"count {k!r} is {counts.get(k)!r}, an earlier run of the same code gave {v!r}"
        for k, v in earlier.items()
        if counts.get(k) != v
    ]


class Session:
    """Timings, first outputs and failures of one workload run."""

    def __init__(self, workload, clock, corrupt=None):
        self.workload = workload
        self.clock = clock
        self.corrupt = corrupt
        # (wall, reference) seconds of each untraced run, and of the traced one
        self.untraced: dict[str, list[tuple[float, float]]] = {
            u.label: [] for u in workload.units
        }
        self.traced: dict[str, tuple[float, float]] = {}
        self.fingerprints: dict[str, str] = {}
        self.checked: dict[str, object] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.repeats = 0

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.failures.append(message)

    def execute(self, unit):
        began = time.perf_counter()
        try:
            output = unit.call()
        except Exception as exc:  # a raising unit is a failed operation
            output = exc
        ended = time.perf_counter()
        return output, ended - began, self.clock.seconds(
            began, ended, self.workload.profile
        )

    def first_pass(self, tracer=None) -> None:
        """Run every unit once (traced if a tracer is given), then check them.

        Checks run after the tracer is removed, so their own calls into the
        package record no spans.
        """
        outputs = {}
        if tracer is not None:
            tracer.install()
        try:
            for unit in self.workload.units:
                output, wall, ref = self.execute(unit)
                outputs[unit.label] = output
                if tracer is not None:
                    self.traced[unit.label] = (wall, ref)
                else:
                    self.untraced[unit.label].append((wall, ref))
        finally:
            if tracer is not None:
                tracer.uninstall()
        for label, output in outputs.items():
            if isinstance(output, Exception):
                self.attempted += 1
                self.fail(1, f"{label}: raised {output!r}")
                continue
            if self.corrupt is not None:
                output = self.corrupt(label, output)
            result = self.workload.check(label, output)
            self.checked[label] = result
            self.fingerprints[label] = self.workload.fingerprint(output)
            self.attempted += result.ops
            self.failed += min(result.ops, len(result.failures))
            self.failures += [f"{label}: {f}" for f in result.failures]

    def repeat(self, started: float, seconds: float, must: int) -> None:
        """Repeat units in their order while ``seconds`` since ``started``
        allow; the first ``must`` repeats always run.  Every repeat must
        reproduce its unit's first output exactly."""
        units = self.workload.units
        while True:
            unit = units[self.repeats % len(units)]
            done = self.untraced[unit.label] or [self.traced[unit.label]]
            expected = statistics.median(w for w, _ in done)
            if self.repeats >= must and (
                time.perf_counter() - started + expected > seconds
            ):
                return
            output, wall, ref = self.execute(unit)
            self.untraced[unit.label].append((wall, ref))
            self.repeats += 1
            ops = self.checked[unit.label].ops if unit.label in self.checked else 1
            self.attempted += ops
            if isinstance(output, Exception) or (
                self.workload.fingerprint(output) != self.fingerprints.get(unit.label)
            ):
                self.fail(ops, f"{unit.label}: a repeat differs from its first run")

    def unit_seconds(self, label: str) -> float:
        """Median reference seconds of a unit, untraced runs preferred."""
        runs = self.untraced[label] or [self.traced[label]]
        return statistics.median(r for _, r in runs)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 corrupt=None) -> tuple[dict, dict]:
    """Run one workload; return (result line, report).

    ``corrupt`` lets the harness self-test damage a unit's output before it
    is checked, to show that the checks catch it.
    """
    import_package()
    import bench_workloads

    cls = bench_workloads.WORKLOADS[name]
    setup = None if trace else time_setup(name, seed, tiny)
    tracer = bench_trace.Tracer() if trace else None
    clock = bench_clock.RefClock()
    with clock:
        # Finish lazy set-up (first-call paths in numpy and the package) on
        # a tiny copy of the workload before anything is timed.
        cls(seed, tiny=True).units[0].call()
        with tracer if trace else contextlib.nullcontext():
            workload = cls(seed, tiny=tiny)
        session = Session(workload, clock, corrupt)
        started = time.perf_counter()
        session.first_pass(tracer)
        # one untraced repeat at least in a traced run, for the overhead
        session.repeat(started, seconds, max(workload.min_repeats, int(trace)))

    units = workload.units
    untraced, traced = session.untraced, session.traced
    timed = [u.label for u in units if untraced[u.label]]
    per_unit_ref = [statistics.median(r for _, r in untraced[k]) for k in timed]
    per_unit_wall = [statistics.median(w for w, _ in untraced[k]) for k in timed]
    extra, counts = workload.summarize(
        [session.checked[u.label] for u in units if u.label in session.checked],
        [session.unit_seconds(u.label) for u in units],
    )
    extra["wall_clock_s"] = (sum(per_unit_wall), "s")
    reference = bench_clock.REFERENCE[workload.profile]
    extra["speed_median"] = (
        statistics.median(reference / c for c in clock.costs[workload.profile]), "ratio"
    )
    if trace:
        spans = tracer.spans
        for span_name in workload.spans:
            if not any(s["name"] == span_name for s in spans):
                session.fail(1, f"span {span_name!r} recorded zero calls")
        for s in spans:
            s["ref"] = clock.seconds(s["start"], s["end"], workload.profile)
        layer = layer_metrics(spans)
        untraced_ref = sum(per_unit_ref)
        overhead = sum(traced[k][1] for k in timed) - untraced_ref
        layer["trace.wall_s"] = sum(r for _, r in traced.values())
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_frac"] = overhead / untraced_ref if untraced_ref else 0.0
        counts["inner_iters"] = layer["optimizer.inner_iters"]
        metrics = {k: {"value": layer[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    else:
        extra["setup_clock_s"] = (setup[1], "s")
        values = {
            "setup_s": setup[0],
            "wall_s": sum(per_unit_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}

    if corrupt is None:
        key = f"{name}|seed={seed}|tiny={tiny}|trace={int(trace)}|src={source_hash()}"
        for flag in _counts_flags(key, counts):
            session.attempted += 1
            session.fail(1, flag)
    extra["error_frac"] = (session.failed / session.attempted, "fraction")

    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "repeats": session.repeats,
        "machine": machine(),
        "counts": counts,
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "failures": session.failures[:50],
    }
    if not tiny and seed == 1 and SEED1_REFERENCE.is_file():
        expected = json.loads(SEED1_REFERENCE.read_text()).get(name, {})
        report["seed1_reference"] = {
            k: {"expected": v, "got": counts[k]}
            for k, v in expected.items()
            if k in counts and counts[k] != v
        } or "match"
    if trace:
        OUT.mkdir(exist_ok=True)
        tracer.dump(str(OUT / f"trace-{name}-seed{seed}.jsonl"), report)
    line = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    return line, report


# --------------------------------------------------------------------------
# Command line
# --------------------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if len(lines) < 2:
                print(f"{name} trace={trace}: no result (exit {proc.returncode})\n{proc.stderr}")
                ok = False
                continue
            report, line = json.loads(lines[-2]), json.loads(lines[-1])
            ok &= proc.returncode == 0 and line["correct"]
            print(f"== {name}  trace={trace}  correct={line['correct']}  "
                  f"attempted={line['attempted']}  failed={line['failed']}  "
                  f"repeats={report['repeats']}")
            shown = dict(line["metrics"])
            if not trace:
                shown.update(report["workload_metrics"])
            for key, m in shown.items():
                print(f"   {key:34s} {m['value']:>16.6g} {m['unit']}")
            print(f"   counts: {json.dumps(report['counts'])}")
            if "seed1_reference" in report:
                print(f"   seed-1 reference counts: {json.dumps(report['seed1_reference'])}")
            for failure in report["failures"]:
                print(f"   FAILED {failure}")
    print(json.dumps({"machine": machine()}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.tiny)
        return 0
    if args.workload == "all":
        import_package()
        return run_all(args.seed, args.seconds)
    line, report = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.tiny)
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
