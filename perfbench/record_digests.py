"""Re-record digests.json: the sha256 of every CSV of the shipped scenarios.

    python3 perfbench/record_digests.py      # from the repository root

Only for a change that alters the outputs on purpose; say why in CHANGES.md.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, "src")
from fiberqed import cli  # noqa: E402

OUT = Path(".perfbench_work/record")

if __name__ == "__main__":
    shutil.rmtree(OUT, ignore_errors=True)
    files = []
    for cfg in sorted(Path("scenarios").glob("*.cfg")):
        files += cli.run_scenario(cfg, out_dir=OUT, quiet=True)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(files)}
    shutil.rmtree(OUT)
    target = Path(__file__).with_name("digests.json")
    target.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {target}")
