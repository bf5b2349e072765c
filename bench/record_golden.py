"""Record the golden CSVs of the ``studies`` workload.

Runs every shipped config through ``isde.cli.main`` once per CLI seed in
``workloads.CLI_SEEDS`` and writes each CSV with its SHA-256 to
``bench/golden.json``. Run it only at a commit whose CSVs are the reference
(the golden file in the repository was recorded at commit 92e5755)::

    PYTHONPATH=src python3 bench/record_golden.py
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys

import isde.cli
import isde.harness

import workloads


def main():
    work = workloads.BENCH_DIR / "_work" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    golden = {}
    try:
        for seed in workloads.CLI_SEEDS:
            golden[str(seed)] = {}
            for study in isde.harness.STUDIES:
                out = work / f"{study}.csv"
                config = workloads.BENCH_DIR.parent / "configs" / f"{study}.yaml"
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = isde.cli.main([study, "--config", str(config), "--out", str(out),
                                        "--seed", str(seed)])
                if rc != 0:
                    raise SystemExit(f"{study} with seed {seed} exited with status {rc}")
                text = out.read_text(encoding="utf-8")
                golden[str(seed)][study] = {
                    "sha256": hashlib.sha256(text.encode()).hexdigest(), "text": text}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"csv": golden}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
