"""Golden outputs: the digests of what the CLI writes for a fixed table of
configs, each run at several worker counts.

Each row of TABLE is one ``simulate`` or ``tv-bound`` run.  :func:`digests`
runs it through ``cli.main`` into a temporary directory and returns the
SHA-256 of ``samples.csv`` (None for ``tv-bound``, which writes none) and
of ``summary.json`` with its ``wall_time_s`` value blanked.  For the run
the thread cap ``harness.available_cpus()`` is lifted to the worker count,
so a row's worker counts start that many threads (at most one per block)
on any machine.  ``golden.json`` holds the digests with the numpy and
Python versions they were made with.

    python tests/golden.py     # rewrite tests/golden.json

It refuses to write the file when a row's worker counts disagree.
``tests/test_golden.py`` checks in Tier-1 that every worker count of a
row gives the same digests and that they equal the ones in
``golden.json``.  The file is not a test module: Tier-1 does not collect
it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import re
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"

if __name__ == "__main__":  # the package of this checkout, not an installed one
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from circulant_clt import EnsembleSpec, cli, harness  # noqa: E402


class Row(NamedTuple):
    command: str
    family: str
    n: int
    m: int
    poly: str
    seed: int
    workers: tuple[int, ...]

    @property
    def name(self) -> str:
        return (f"{self.command} {self.family} n={self.n} m={self.m} "
                f"poly={self.poly} seed={self.seed}")


FAMILIES = ("gaussian", "rademacher", "uniform_symmetric")


def runs(family: str, **config) -> list[Row]:
    """The simulate row of a config and, for a smooth family, its tv-bound row."""
    commands = ("simulate", "tv-bound") if EnsembleSpec(family).is_smooth else ("simulate",)
    return [Row(command, family, **config) for command in commands]


TABLE = (
    # blocks of 512 rows at n = 64: eight full ones and a ragged one of 4
    Row("simulate", "gaussian", 64, 4100, "0,0,1", 101, (1, 2, 4, 7)),
    Row("tv-bound", "gaussian", 64, 4100, "0,0,1", 101, (1, 5)),
    Row("simulate", "gaussian", 64, 4100, "0,0,1,1", 3, (1, 8)),
    # blocks of 63/64 (n = 513/512) and 7/8 rows (n = 4097/4096), each
    # run ending in a short block: m = 3 * rows - 1
    *(row for n, m in ((513, 188), (512, 191), (4097, 20), (4096, 23))
      for row in runs("uniform_symmetric", n=n, m=m, poly="0,0,1,1", seed=101,
                      workers=(1, 2, 3, 7))),
    # blocks of 520/512 rows at n = 63/64 and of 4 at n = 8191/8192, each
    # m past two blocks
    *(row for n, m in ((63, 2100), (64, 2100), (8191, 40), (8192, 40))
      for family in FAMILIES
      for row in runs(family, n=n, m=m, poly="0,0,1,1", seed=101,
                      workers=(1, 2, 3, 7))),
    # the split half spectrum: (n2, n1) = (256, 128) at 2^15 and
    # (243, 243), n2 odd, at 3^10, in blocks of one replica
    *(row for n in (2**15, 3**10)
      for family in ("rademacher", "uniform_symmetric")
      for row in runs(family, n=n, m=5, poly="0,0,1,1,0,0.5", seed=101,
                      workers=(1, 2, 3, 7))),
    # every family at a prime n, an odd unsplit n and a split n whose
    # n2 = 384 is not a power of two
    *(row for n, m in ((7, 20), (4097, 20), (98304, 6))
      for family in FAMILIES
      for row in runs(family, n=n, m=m, poly="0,0,1,0.5,0,0.25", seed=7,
                      workers=(1, 2))),
    # 63 blocks of up to 32 rows at n = 1024, on 1 and on 8 workers
    Row("simulate", "gaussian", 1024, 2000, "0,0,1,1", 1212, (1, 8)),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(row: Row, workers: int) -> dict[str, str | None]:
    """SHA-256 of the files the row's command writes at `workers` workers:
    samples.csv (None if not written) and summary.json, wall time blanked."""
    argv = [row.command, "--n", str(row.n), "--m", str(row.m), "--poly", row.poly,
            "--family", row.family, "--seed", str(row.seed), "--workers", str(workers)]
    with tempfile.TemporaryDirectory(prefix="circulant-clt-golden-") as tmp, \
            mock.patch.object(harness, "available_cpus", return_value=workers), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--out", tmp, *argv])
        if code != 0:
            raise RuntimeError(f"{row.name} at {workers} workers exited {code}")
        out = Path(tmp)
        samples = out / "samples.csv"
        csv = _sha256(samples.read_text(encoding="utf-8")) if samples.exists() else None
        summary = (out / "summary.json").read_text(encoding="utf-8")
    summary = re.sub(r'("wall_time_s": )[^,\n]+', r"\1null", summary)
    return {"samples.csv": csv, "summary.json": _sha256(summary)}


def row_digests(row: Row) -> list[dict[str, str | None]]:
    """The row's digests at each of its worker counts, in order."""
    return [digests(row, workers) for workers in row.workers]


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def main() -> int:
    rows = {}
    for row in TABLE:
        first, *others = row_digests(row)
        if any(other != first for other in others):
            print(f"worker counts {row.workers} disagree: {row.name}", file=sys.stderr)
            return 1
        rows[row.name] = first
    GOLDEN.write_text(json.dumps({**versions(), "rows": rows}, indent=2) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(rows)} rows to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
