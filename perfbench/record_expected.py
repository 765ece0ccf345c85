"""Record the expected outputs of the chain4 workloads.

    PYTHONPATH=src python3 perfbench/record_expected.py

Runs one pass of each chain4 workload and writes
``perfbench/expected/<workload>/manifest.json``, plus a copy of every
output that is compared by value rather than by digest. The recorded
outputs are the regression anchor: re-record only when a change to the
program is meant to change its outputs, and say so in the change.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

from cohesive_transport import cli

import workloads

ROOT = Path(__file__).resolve().parent.parent


def compare_mode(rel: str) -> str:
    name = Path(rel).name
    if name.endswith("trace.csv") or name == "summary.json":
        return "bytes"
    if name == "reproduction.txt":
        return "report"
    return "json" if name.endswith(".json") else "csv"


def record(name: str, scratch: Path) -> None:
    workload = workloads.WORKLOADS[name]
    inputs, out = scratch / "inputs", scratch / "out"
    inputs.mkdir()
    workload.write_inputs(ROOT, 0, inputs)
    for command, argv in workload.commands(inputs, out):
        if cli.main(argv) != 0:
            raise SystemExit(f"{name}: {command} failed")
    target = workloads.EXPECTED_DIR / name
    shutil.rmtree(target, ignore_errors=True)
    manifest = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = str(path.relative_to(out))
        mode = compare_mode(rel)
        if mode == "bytes":
            manifest[rel] = {"compare": mode,
                             "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        else:
            manifest[rel] = {"compare": mode}
            (target / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target / rel)
    target.mkdir(parents=True, exist_ok=True)
    (target / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"recorded {len(manifest)} outputs of {name} in {target}")


def main() -> None:
    for name in ("chain4-reproduce", "chain4-design"):
        with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as scratch:
            record(name, Path(scratch))


if __name__ == "__main__":
    main()
