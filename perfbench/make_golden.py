"""Write golden_cli.json, the golden digests of the cli-stream workload.

For every entry of the fixed input pool it stores a digest of the four
output lines the CLI writes for it, so every seed's stream is held to the
output bytes of the commit the file was made at. The outputs are first
checked against the brute-force definitions; nothing is written if any
fails. Run from the repository root:

    python3 perfbench/make_golden.py

Regenerate only for a change that means to alter the CLI's output.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    pool = inputs.cli_pool()
    lines = [line for _, line in pool]
    res = workloads.run_commands(lines)
    if res.errors or any(len(out) != len(lines) for _, out in res.outputs):
        sys.exit(f"the CLI failed on the pool: {res.errors[:3]}")
    codes, wrong = workloads.check_against_definitions(lines, res.outputs)
    if wrong or [code for code, _ in res.outputs] != codes:
        sys.exit(f"{len(wrong)} outputs disagree with the definitions")
    entries = [
        workloads.entry_digest([out[j] for _, out in res.outputs]) for j in range(len(lines))
    ]
    golden = {
        "about": "sha256[:16] of the four CLI output lines of each pool entry",
        "commands": [" ".join(c + workloads.PINNED) for c in workloads.COMMANDS],
        "pool_sha256": workloads.pool_sha256(pool),
        "entries": entries,
    }
    path = Path(__file__).resolve().parent / "golden_cli.json"
    path.write_text(json.dumps(golden, indent=0) + "\n")
    print(f"wrote {len(entries)} digests to {path}")


if __name__ == "__main__":
    main()
