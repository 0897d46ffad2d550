"""Record the reference summaries the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Run it from the repository root on the commit whose outputs are the
reference; it runs every job of every workload once at every point of
``workloads.POINTS`` and rewrites ``perfbench/reference.json``.
"""

import json
import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def rounded(x):
    """Floats to 12 significant digits, well inside workloads.EIGEN_TOL."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, list):
        return [rounded(v) for v in x]
    return x


def main():
    reference = {}
    for point in workloads.POINTS:
        entries = reference.setdefault(workloads.point_key(point), {})
        for name in workloads.WORKLOADS:
            for job in workloads.build(name, point).jobs:
                entries[job.key] = rounded(job.summary(job.run()))
        print(workloads.point_key(point), len(entries), "jobs", flush=True)
    blocks = []
    for key, entries in sorted(reference.items()):
        lines = [f"  {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                 for k, v in sorted(entries.items())]
        blocks.append(f"{json.dumps(key)}: {{\n" + ",\n".join(lines) + "\n}")
    workloads.REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
