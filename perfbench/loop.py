"""One workload's closed loop of CLI commands, in a process of its own.

Usage: python3 perfbench/loop.py SPEC.json RESULT.json

SPEC holds the source directory, the output directory, the mode ("timed"
or "traced"), the run length in seconds, the workload name and the
workload seed.  Commands call ``circulant_clt.cli.main`` in this process;
the next starts only when the previous one has returned.
A timed loop starts commands until the run length has passed; a traced
loop runs cycles of three commands on one seed (untraced at 2 workers,
traced at 2 workers, untraced at 1 worker) until the run length has
passed, at least once.

RESULT receives, per command, the seed, the output directory, the exit
code (-1 for an exception), wall and process CPU seconds and the peak
resident memory of this process so far; per traced cycle the span
snapshot; and the wrapped names that do not exist.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import WORKERS, WORKLOADS, command_seed


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_command(main, workload, seed: int, out_dir: Path, workers: int = WORKERS) -> dict:
    sink = io.StringIO()
    argv = workload.argv(seed, out_dir, workers)
    c0 = _cpu_s()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing command is a failed command, not a failed run
            traceback.print_exc()
            rc = -1
    wall = time.perf_counter() - t0
    return {"seed": seed, "out": str(out_dir), "rc": rc, "wall_s": wall,
            "cpu_s": _cpu_s() - c0, "peak_rss_mb": _peak_rss_mb()}


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from circulant_clt import circulant, cli, ensembles, harness

    modules = {"cli": cli, "harness": harness, "circulant": circulant,
               "ensembles": ensembles}
    workload = WORKLOADS[spec["workload"]]
    out = Path(spec["out"])
    results = []
    missing: list[str] = []
    t_start = time.perf_counter()
    while not results or time.perf_counter() - t_start < spec["seconds"]:
        i = len(results)
        seed = command_seed(spec["seed"], i)
        if spec["mode"] == "timed":
            results.append(run_command(cli.main, workload, seed, out / f"cmd{i}"))
            continue
        entry = {"untraced": run_command(cli.main, workload, seed, out / f"cmd{i}-untraced")}
        tracer = Tracer()
        missing = tracer.install(modules)
        try:
            entry["traced"] = run_command(tracer.span("cli", cli.main), workload, seed,
                                          out / f"cmd{i}-traced")
        finally:
            tracer.uninstall()
        entry["snapshot"] = tracer.snapshot()
        entry["one_worker"] = run_command(cli.main, workload, seed,
                                          out / f"cmd{i}-one-worker", workers=1)
        results.append(entry)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": results, "missing": missing}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
