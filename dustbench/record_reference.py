"""Record the reference verdict of every input the benchmark can run.

    python3 dustbench/record_reference.py

Runs every pool member of every workload once and rewrites
``dustbench/reference.json``. Run it only on a commit whose outputs are
known to be right; the benchmark then holds later commits to these verdicts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402


def pool(workload):
    if workload == "lambda_sweep":
        return list(inputs.sweep_pool())
    if workload == "certificate_atlas":
        return [inputs.atlas_draw(i) for i in range(inputs.ATLAS_POOL)]
    return inputs.generate(workload, 0)["items"]  # the seed only orders these


def main():
    workdir = ROOT / ".bench_build" / "dustbench" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    lines = []
    for name in inputs.WORKLOADS:
        items = pool(name)
        workload = workloads.WORKLOADS[name](ROOT, workdir, items)
        entries = []
        for item in items:
            workload.prepare(item)
            verdict, files, _ = workload.verdict(item, workload.execute(item))
            entry = {"verdict": {k: v for k, v in verdict.items() if v is not None}}
            if files:
                entry["files"] = files
            entries.append(f"  {json.dumps(item['key'])}: {json.dumps(entry)}")
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(entries) + "\n }")
        print(f"{name}: {len(items)} verdicts", file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    text = ("{\"recorded_at\": " + json.dumps(commit) + ",\n\"verdicts\": {\n"
            + ",\n".join(lines) + "\n}}\n")
    json.loads(text)
    (HERE / "reference.json").write_text(text)
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
