"""Benchmark of the circulant-clt command line, one workload per invocation.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times a closed loop of CLI commands (one client: the next
command starts when the previous one has returned) in a child process
that runs only this workload, checks every command's output and prints
the end-to-end metrics.  --trace 1 instead runs cycles of an untraced, a
traced and a one-worker command on one seed and prints the per-layer
metrics from the spans (see tracing.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give every metric with its unit and sample
count, failed_frac, and the run's context.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, check_outputs, comparable

HERE = Path(__file__).resolve().parent
# Fresh interpreters timed per run for setup_s (after one untimed warm-up
# that also writes the bytecode caches).
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# Every run must end within 180 s; the child loop gets what is left.
RUN_DEADLINE_S = 170.0
# The summed self thread-CPU of the layers should cover the traced
# command's process CPU to within this share.
ACCOUNTING_TOLERANCE = 0.10

SETUP_CODE = (
    "import json, sys\n"
    "import circulant_clt.cli as cli\n"
    "cli.parse_config(json.loads(sys.argv[1]))\n"
)
VERSIONS_CODE = (
    "import json, platform, numpy, scipy\n"
    "print(json.dumps({'python': platform.python_version(),"
    " 'numpy': numpy.__version__, 'scipy': scipy.__version__}))\n"
)


def python_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_python(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout, check=True)


def context(src: Path, env: dict) -> dict:
    """What a reader needs to compare runs: machine, versions, code size."""
    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            caches[key.lower()] = subprocess.run(
                ["getconf", key], capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            caches[key.lower()] = "unknown"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((src / "circulant_clt").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **caches,
        **json.loads(run_python(["-c", VERSIONS_CODE], env, 60).stdout),
        "src_lines": lines,
    }


def measure_setup(workload, env: dict) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and parse the
    workload's config, as every CLI user pays it."""
    config = json.dumps(workload.config())
    run_python(["-c", SETUP_CODE, config], env, 60)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        run_python(["-c", SETUP_CODE, config], env, 60)
        times.append(time.perf_counter() - t0)
    return times


def import_times(env: dict) -> dict[str, list[float]]:
    """Cumulative import times from ``python -X importtime``, per repeat."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPEATS):
        err = run_python(["-X", "importtime", "-c", "import circulant_clt.cli"], env, 60).stderr
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) / 1e6)
        numpy_s = cumulative.get("numpy", 0.0)
        special_s = cumulative.get("scipy.special", 0.0)
        for name, value in (
            ("setup.import.numpy_s", numpy_s),
            ("setup.import.scipy_special_s", special_s),
            # the package's own share: everything under circulant_clt.cli
            # except the numpy and scipy.special imports it triggers
            ("setup.import.circulant_clt_s",
             cumulative.get("circulant_clt.cli", 0.0) - numpy_s - special_s),
        ):
            samples.setdefault(name, []).append(value)
    return samples


def run_loop(mode: str, args, out: Path, src: Path, deadline: float) -> dict:
    spec = {"src": str(src), "out": str(out), "mode": mode, "seconds": args.seconds,
            "workload": args.workload, "seed": args.seed}
    spec_path, result_path = out / "spec.json", out / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "loop.py"), str(spec_path), str(result_path)]
    timeout = max(deadline - time.monotonic(), 1.0)
    subprocess.run(cmd, timeout=timeout, check=True)
    return json.loads(result_path.read_text(encoding="utf-8"))


def passes(workload, c: dict, label: str, problems: list[str] = ()) -> bool:
    """Check one command; print what is wrong with it to stderr."""
    problems = list(problems)
    if c["rc"] != 0:
        problems.append(f"exit code {c['rc']}")
    else:
        problems += check_outputs(workload, Path(c["out"]), c["seed"])
    for p in problems:
        print(f"check failed ({label}, seed {c['seed']}): {p}", file=sys.stderr)
    return not problems


def report(series: dict[str, list[float]], kind: str) -> dict:
    """Medians of the metrics BENCHMARK.json lists under kind, each printed
    with its unit and sample count."""
    listed = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    if sorted(series) != sorted(m["name"] for m in listed):
        raise ValueError(f"measured metrics differ from the {kind} list in BENCHMARK.json")
    metrics = {}
    for m in listed:
        values = series[m["name"]]
        median = statistics.median(values)
        spread = f"; min {min(values):.6g}, max {max(values):.6g}" if len(values) > 1 else ""
        print(f"{m['name']} = {median:.6g} {m['unit']} (median of n={len(values)}{spread})")
        metrics[m["name"]] = {"value": median, "unit": m["unit"]}
    return metrics


def timed_metrics(workload, result: dict, setup: list[float]) -> tuple[dict, int, int]:
    commands = result["commands"]
    failed = sum(not passes(workload, c, "timed") for c in commands)
    metrics = report({
        "replicas_per_s": [workload.m / c["wall_s"] for c in commands],
        "cpu_s": [c["cpu_s"] for c in commands],
        # after the first command the child has done what one CLI process
        # does; later commands add allocator fragmentation, not workload
        "peak_rss_mb": [commands[0]["peak_rss_mb"]],
        "setup_s": setup,
    }, "end_to_end")
    print(f"failed_frac = {failed / len(commands):.6g} (failed {failed} of {len(commands)} commands)")
    return metrics, len(commands), failed


def layer_metrics(snap: dict, traced: dict) -> dict:
    """Per-layer metrics of one traced command."""
    spans, counts = snap["spans"], snap["counts"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def self_cpu(*names: str) -> float:
        return sum(span(n, "self_cpu_ns") for n in names) / 1e9

    def wall(name: str) -> float:
        return span(name, "outer_wall_ns") / 1e9

    fft_calls = span("circulant.fft", "calls")
    fft_all = fft_calls + counts.get("circulant.fft.hits", 0)
    map_name = "harness.map" if span("harness.map", "calls") else "harness.run"
    map_calls = span(map_name, "calls")
    workers = snap["worker_threads"] or (1 if map_calls else 0)
    map_wall = wall(map_name)
    harness_self = self_cpu("harness.run", "harness.map") + snap["worker_gap_cpu_ns"] / 1e9
    accounted = sum(s["self_cpu_ns"] for s in spans.values()) / 1e9 + snap["worker_gap_cpu_ns"] / 1e9
    return {
        "ensembles.substream.calls": span("ensembles.substream", "calls"),
        "ensembles.substream.cpu_s": self_cpu("ensembles.substream"),
        "ensembles.draw.cpu_s": self_cpu("ensembles.draw"),
        "ensembles.draw.values": counts.get("ensembles.draw.values", 0),
        "circulant.build.cpu_s": self_cpu("circulant.build"),
        "circulant.fft.calls": fft_calls,
        "circulant.fft.cpu_s": self_cpu("circulant.fft"),
        "circulant.fft.hit_ratio": (fft_all - fft_calls) / fft_all if fft_all else 0.0,
        "circulant.fft.gflop_computed": counts.get("circulant.fft.flop", 0) / 1e9,
        "circulant.fft.bytes_computed": counts.get("circulant.fft.bytes", 0),
        "circulant.trace.cpu_s": self_cpu("circulant.trace"),
        "circulant.trace.power_terms": counts.get("circulant.power_term.calls", 0),
        "circulant.gradient.cpu_s": self_cpu("circulant.gradient"),
        "circulant.norm.cpu_s": self_cpu("circulant.norm"),
        "harness.self.cpu_s": harness_self,
        "harness.wait_s": snap["worker_wait_ns"] / 1e9,
        "harness.workers": workers,
        "harness.parallel_eff": (
            counts.get(map_name + ".process_cpu_ns", 0) / 1e9 / (workers * map_wall)
            if workers and map_wall else 0.0),
        "harness.stats.cpu_s": self_cpu("harness.stats"),
        "combinatorics.variance.wall_s": wall("combinatorics.variance"),
        "cli.self.cpu_s": self_cpu("cli", "cli.parse", "cli.samples_csv",
                                   "cli.summary_json", "cli.write"),
        "cli.parse.wall_s": wall("cli.parse"),
        "cli.samples_csv.wall_s": wall("cli.samples_csv"),
        "cli.samples_csv.bytes": counts.get("cli.samples_csv.bytes", 0),
        "cli.summary_json.wall_s": wall("cli.summary_json"),
        "cli.write.wall_s": wall("cli.write"),
        "cli.write.bytes": counts.get("cli.write.bytes", 0),
        "trace.cpu_accounted": accounted / traced["cpu_s"],
    }


def traced_metrics(workload, result: dict, imports: dict) -> tuple[dict, int, int]:
    cycles = result["commands"]
    attempted = failed = 0
    for cycle in cycles:
        reference = comparable(Path(cycle["untraced"]["out"]))
        for key in ("untraced", "traced", "one_worker"):
            c = cycle[key]
            attempted += 1
            mismatch = [] if comparable(Path(c["out"])) == reference else [
                "outputs differ from the untraced 2-worker outputs"]
            failed += not passes(workload, c, key, mismatch)
    per_cycle = [layer_metrics(c["snapshot"], c["traced"]) for c in cycles]
    series = {k: [p[k] for p in per_cycle] for k in per_cycle[0]}
    series["harness.speedup_w2"] = [c["one_worker"]["wall_s"] / c["untraced"]["wall_s"]
                                    for c in cycles]
    series["trace.overhead_s"] = [c["traced"]["wall_s"] - c["untraced"]["wall_s"]
                                  for c in cycles]
    series.update(imports)
    metrics = report(series, "per_layer")
    if result["missing"]:
        print(f"wrapped names not present (0 calls): {', '.join(result['missing'])}")
    share = metrics["trace.cpu_accounted"]["value"]
    verdict = "within" if abs(share - 1.0) <= ACCOUNTING_TOLERANCE else "OUTSIDE"
    print(f"layer self thread-CPU covers {share:.3f} of the traced command's cpu_s "
          f"({verdict} the +-{ACCOUNTING_TOLERANCE:.0%} tolerance)")
    print(f"failed_frac = {failed / attempted:.6g} (failed {failed} of {attempted} commands)")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2^32)")
    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "circulant_clt" / "cli.py").is_file():
        print(f"error: no circulant_clt sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = python_env(src)
    scratch = root / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        print("context " + json.dumps(context(src, env), sort_keys=True))
        print(f"workload {args.workload}: {' '.join(workload.argv(args.seed, '<out>'))}")
        if args.trace:
            imports = import_times(env)
            result = run_loop("traced", args, out, src, deadline)
            metrics, attempted, failed = traced_metrics(workload, result, imports)
        else:
            setup = measure_setup(workload, env)
            result = run_loop("timed", args, out, src, deadline)
            metrics, attempted, failed = timed_metrics(workload, result, setup)
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
