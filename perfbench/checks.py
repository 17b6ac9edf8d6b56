"""Output checks: the paper's invariants and per-spec report digests.

Every report a run produces is checked three ways: `ok` must be true (for
verify reports), the center must obey dim Z(s) = rank - |pi1 u pi2| with
`indecomposable` <=> trivial center, and the sha256 of its canonical JSON
must equal the digest recorded in digests.json.  The digests pin the
byte-identical report contract: a refactor that changes any default report
field fails the benchmark.

Re-record the digests (only when the report format changes on purpose):

    python3 perfbench/checks.py --record
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import workloads

DIGESTS = Path(__file__).with_name("digests.json")
ROOT = Path(__file__).resolve().parents[1]


def digest(report):
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected():
    """{spec key: (digest, dim s)} as recorded."""
    with open(DIGESTS) as fh:
        data = json.load(fh)
    return {k: tuple(v) for k, v in data["specs"].items()}


def problems(workload, key, report, expected):
    """Reasons `report` is wrong for spec `key`; empty when it is right."""
    _, rank, pi1, pi2 = workloads.parse_key(key)
    covered = set(pi1) | set(pi2)
    out = []
    try:
        if workload.path == "verify" and report["ok"] is not True:
            out.append("ok is not true")
        zdim = report["dims"]["center"]
        if zdim != rank - len(covered):
            out.append(f"center dim {zdim} != rank - |pi1 u pi2| "
                       f"= {rank - len(covered)}")
        indec = covered == set(range(1, rank + 1))
        if report["indecomposable"] != indec or (zdim == 0) != indec:
            out.append(f"indecomposable={report['indecomposable']} with "
                       f"center dim {zdim}")
    except (KeyError, TypeError) as exc:
        out.append(f"malformed report: {exc!r}")
    want = expected.get(key)
    if want is None:
        out.append("no recorded digest")
    elif digest(report) != want[0]:
        out.append(f"digest {digest(report)} != recorded {want[0]}")
    return out


def _record():
    sys.path.insert(0, str(ROOT / "src"))
    from seaweedcoh import cli, seaweed
    specs = {}
    for wl in workloads.WORKLOADS.values():
        ambients = {t: cli._ambient(*t) for t in wl.types}
        for key in workloads.pool(wl):
            if key not in specs:
                report = workloads.run_spec(wl, cli, seaweed, ambients, key)
                specs[key] = [digest(report), report["dims"]["s"]]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    lines = [f"{json.dumps(k)}: {json.dumps(v)}"
             for k, v in sorted(specs.items())]
    with open(DIGESTS, "w") as fh:
        fh.write(f'{{"recorded_at": "{commit}",\n"specs": {{\n')
        fh.write(",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/checks.py --record")
    _record()
