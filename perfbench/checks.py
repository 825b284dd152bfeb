"""Output checks for every op.

An op passes when it raised nothing, its result round-trips through
``dumps_result``/``loads_result`` unchanged, its simulation (when it ran
in this process) satisfies ``check_invariants``, every op with the same
key produced the same result, and — for the seed and size the digests
were recorded at — its canonical-JSON digest equals the committed one.
A failed check counts the op as failed; it never aborts the run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.core.validate import check_invariants
from repro.runner.serialize import dumps_result, loads_result

from perfbench.workloads import INPUT_SETS, Op

#: Digests committed with the benchmark (the file names the seed and
#: size they were recorded at).
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(path: Path, workload: str, seed: int, size: str) -> dict[str, str] | None:
    """Committed ``{key: digest}`` for this run, or None when the file
    holds no digests for this seed and size."""
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    if data.get("seed") != seed or data.get("size") != size:
        return None
    return data["workloads"].get(workload)


class Checker:
    """Checks ops as passes finish and keeps the tallies."""

    def __init__(self, expected: dict[str, str] | None) -> None:
        self.expected = expected
        #: First digest seen per key (the per-workload digest is over these).
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, op: Op, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.key}: {why}")

    def fail_all(self, count: int, why: str) -> None:
        """``count`` ops that never produced an output."""
        self.attempted += count
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(f"{count} ops: {why}")

    def check(self, op: Op) -> None:
        self.attempted += 1
        why = self._problem(op)
        if why is not None:
            self._fail(op, why)

    def _problem(self, op: Op) -> str | None:
        if op.error is not None:
            return op.error
        if op.result is None:
            return "no result"
        text = dumps_result(op.result)
        again = loads_result(text)
        if again != op.result or dumps_result(again) != text:
            return "result does not round-trip through dumps_result/loads_result"
        if op.sim is not None:
            report = check_invariants(op.sim)
            if not report.ok:
                return "invariant violations: " + "; ".join(map(str, report.violations))
        got = digest(text)
        first = self.digests.setdefault(op.key, got)
        if got != first:
            return f"digest {got[:16]} differs from an earlier op with the same key ({first[:16]})"
        if self.expected is not None:
            want = self.expected.get(op.key)
            if want is None:
                return "no committed digest for this op"
            if got != want:
                return f"digest {got[:16]} != committed {want[:16]}"
        return None

    def workload_digest(self, keys: Iterable[str]) -> str:
        """One digest over the (key, digest) of every op named, order-free."""
        lines = "\n".join(f"{key} {self.digests.get(key)}" for key in sorted(set(keys)))
        return digest(lines)


def record_digests(workloads: Sequence[Any], path: Path) -> None:
    """Compute every op's digest in-process and write them to ``path``,
    keeping other workloads' entries recorded at the same seed and size."""
    seed, size = workloads[0].seed, workloads[0].size
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        data = {}
    if data.get("seed") != seed or data.get("size") != size:
        data = {"seed": seed, "size": size, "workloads": {}}
    for workload in workloads:
        data["workloads"][workload.name] = {
            key: digest(dumps_result(thunk()))
            for variant in range(INPUT_SETS)
            for key, thunk in workload.reference_jobs(variant)
        }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
