"""Layered benchmark for kslab: three workloads, checked outputs, traced layers.

Run from the repository root::

    python3 perfbench/run.py --workload headline3d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads (see ``child.py`` for their exact settings):

* ``headline3d`` -- criterion 10's damped 3D run (64^3, mu = mu_0(k=4)) to
  t=0.5 through ``kslab.solver.run``.  ETD-RK2 steps take nearly all of the
  time; the seed is ignored because the scenario is the paper's fixed one.
* ``monitor2d`` -- ``kslab run`` (calibrate mode, all artifacts) on 128^2
  ``random_smooth`` data drawn from the seed.  Monitor samples take about
  2/3 of the run; the arrays fit in L2.
* ``sweep2d`` -- ``kslab sweep --param mu --workers 2`` over mu = 0, 0.1, 1,
  10 on the monitor2d data at amplitude 20.  The only workload with
  concurrency and with the blow-up early exit; the slowest row sets run_s.

Each measured run is a fresh child process (``child.py``), started one at a
time.  With ``--trace 0`` the runs carry only two probes (entry into
``solver.run`` and the top call) and give the end-to-end metrics:

* ``run_s`` -- wall time of the top call (``solver.run`` / ``cli.cmd_run`` /
  ``cli.cmd_sweep``), all artifacts written;
* ``setup_s`` -- from the start of the child process to its first entry into
  ``kslab.solver.run`` (imports, config, ``build_initial``, recorder and
  ``mu_0`` assembly); extra children that stop at that entry add samples;
* ``peak_rss_mb`` -- peak RSS of the child, or of its largest pool worker;
* ``failed_frac`` -- share of runs whose output checks failed.  It is 0 when
  the program is correct, so it is reported through the result's
  ``attempted`` and ``failed`` fields and printed, not listed as a bounded
  metric.

With ``--trace 1`` the runs alternate between untraced and traced; the
traced ones wrap every layer boundary (``tracing.py``) and give the
per-layer metrics, the exact counts block, self times per span name and
the tracing overhead (traced minus untraced run_s).  The result holds the
per-layer metrics every workload measures; times of layers that only some
workloads enter, and FFT times by grid shape, are printed by name only.
``--smoke`` shortens every horizon for the benchmark's own test.

Every value is the median over the runs of one invocation; the printed
lines give the sample counts.  The last line of standard output is the
JSON result.  numpy's FFT (pocketfft) runs each transform on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("headline3d", "monitor2d", "sweep2d")
SETUP_SAMPLES = 9  # set-up samples per invocation, topped up by set-up-only children
# Start no child after LAST_START_S and stop any child after CHILD_TIMEOUT_S,
# so that an invocation ends within 180 s even when a run hangs.
LAST_START_S = 60.0
CHILD_TIMEOUT_S = 100.0

# Computed array sizes per workload: real field and half spectrum, in bytes.
ARRAYS = {
    "headline3d": {"shape": "64x64x64", "real_bytes": 8 * 64**3, "half_spectrum_bytes": 16 * 64 * 64 * 33},
    "monitor2d": {"shape": "128x128", "real_bytes": 8 * 128**2, "half_spectrum_bytes": 16 * 128 * 65},
    "sweep2d": {"shape": "128x128", "real_bytes": 8 * 128**2, "half_spectrum_bytes": 16 * 128 * 65},
}


class BenchError(Exception):
    """The benchmark itself cannot run here (as opposed to a failed output check)."""


def _child(workload: str, seed: int, mode: str, rep_dir: Path, smoke: bool) -> dict | None:
    """Run one child; return its record, or None when it crashed or timed out."""
    stamp = time.monotonic()
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode,
            repr(stamp), str(rep_dir), "1" if smoke else "0"]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} {mode} run timed out after {CHILD_TIMEOUT_S:g} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} {mode} run exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            work: Path) -> dict:
    """All runs of one invocation; returns the raw records grouped by mode."""
    modes = ("plain", "traced") if trace else ("plain",)
    records: dict[str, list] = {m: [] for m in modes}
    setups: list[float] = []
    start = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - start
        done = all(records[m] for m in modes)
        if done and (elapsed >= seconds or smoke) or elapsed >= LAST_START_S:
            break
        mode = modes[i % len(modes)]
        rep_dir = work / f"run{i:03d}"
        records[mode].append(_child(workload, seed, mode, rep_dir, smoke))
        if mode == "traced" and records[mode][-1] is not None:
            shutil.copy(rep_dir / "spans.json", work / "spans.json")
        shutil.rmtree(rep_dir, ignore_errors=True)
        i += 1
    if not trace:
        setups = [r["setup_s"] for r in records["plain"] if r is not None]
        while len(setups) < SETUP_SAMPLES and time.monotonic() - start < LAST_START_S:
            rec = _child(workload, seed, "setup", work / "setup", smoke)
            shutil.rmtree(work / "setup", ignore_errors=True)
            if rec is None:
                raise BenchError(f"{workload}: a set-up-only run failed")
            setups.append(rec["setup_s"])
    return {"records": records, "setups": setups}


def judge(records: dict[str, list]) -> tuple[int, int, list[str]]:
    """Count attempted and failed runs; a run fails on a crash or a failed check."""
    attempted = failed = 0
    notes = []
    first_digest = None
    for mode, recs in records.items():
        for rec in recs:
            attempted += 1
            if rec is None:
                failed += 1
                notes.append(f"{mode} run crashed")
                continue
            problems = list(rec["problems"])
            digest = rec["info"].get("trace_sha256")
            if digest is not None:
                first_digest = first_digest or digest
                if digest != first_digest:
                    problems.append("trace.csv differs from the first run with this seed")
            if problems:
                failed += 1
                notes.append(f"{mode} run: " + "; ".join(problems))
    return attempted, failed, notes


def _median(xs) -> float:
    return float(statistics.median(xs))


def environment() -> dict:
    """Machine stamp, read-only from /proc and sysfs."""
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip()
            )
        except OSError:
            continue
    env["caches_per_cpu0"] = caches
    env["fft"] = "numpy.fft (pocketfft), one thread per transform"
    return env


def report(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
           spec: dict) -> dict:
    """Measure one workload and print its metrics; returns the result object."""
    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    measured = measure(workload, seed, seconds, trace, smoke, work)
    records = measured["records"]
    attempted, failed, notes = judge(records)
    plain = [r for r in records["plain"] if r is not None]
    traced = [r for r in records.get("traced", []) if r is not None]
    if not plain or (trace and not traced):
        raise BenchError(f"{workload}: no run finished")

    print(f"== {workload}  seed {seed}  trace {int(trace)}  "
          f"{len(plain)} untraced + {len(traced)} traced runs")
    for note in notes:
        print(f"   FAILED {note}")
    env = environment()
    env.update(plain[0]["versions"])
    env["arrays"] = ARRAYS[workload]
    print("   env " + json.dumps(env, sort_keys=True))
    info = plain[0]["info"]
    print("   outputs " + json.dumps(info, sort_keys=True))
    warned = {}
    for r in plain + traced:
        for where, n in r["warnings"].items():
            warned[where] = max(warned.get(where, 0), n)
    print(f"   runtime warnings (max per run) {json.dumps(warned, sort_keys=True)}")

    metrics = {}
    if not trace:
        values = {
            "run_s": [r["run_s"] for r in plain],
            "setup_s": measured["setups"],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            metrics[m["name"]] = {"value": _median(xs), "unit": m["unit"]}
            print(f"   {m['name']:<12} {_median(xs):12.6g} {m['unit']:<6} median of {len(xs)}"
                  f" (min {min(xs):.6g}, max {max(xs):.6g})")
    else:
        counts = [r["counts"] for r in traced]
        if any(c != counts[0] for c in counts):
            print(f"   WARNING exact counts differ between traced runs: {counts}",
                  file=sys.stderr)
        print("   counts " + json.dumps(counts[0], sort_keys=True))
        own = {k: _median([r["self_s"].get(k, 0.0) for r in traced]) for k in traced[0]["self_s"]}
        top = sorted(own.items(), key=lambda kv: -kv[1])[:10]
        print("   self time (s) " + ", ".join(f"{k} {v:.4g}" for k, v in top))
        layers = {k: _median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (
            _median([r["run_s"] for r in traced]) - _median([r["run_s"] for r in plain])
        )
        for m in spec["per_layer"]:
            # A count or share of a layer the workload never enters reads 0.
            value = layers.pop(m["name"], 0.0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"   {m['name']:<36} {value:14.6g} {m['unit']}")
        # Times of layers that only some workloads enter, and FFT times by
        # grid shape: printed, but kept out of the result so that no time
        # reads a constant 0 on the workloads that skip the layer.
        for name, value in sorted(layers.items()):
            if value:
                print(f"   {name:<36} {value:14.6g} {'ms' if '_ms' in name else 's'}"
                      "  (this workload only)")
        print(f"   (median of {len(traced)} traced runs; overhead against "
              f"{len(plain)} untraced runs)")
    print(f"   {'failed_frac':<12} {failed / attempted:12.6g} {'ratio':<6} {failed} of {attempted} runs")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short horizons, one run per mode")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kslab" / "__init__.py").is_file():
        print(f"perfbench: no kslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = report(name, args.seed, args.seconds, bool(args.trace),
                                   args.smoke, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
