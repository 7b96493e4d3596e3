#!/usr/bin/env python3
"""Golden-output manifest of the shellswitch CLI.

Runs a fixed list of in-process `shellswitch.cli.main` calls, each into its
own temporary directory: every subcommand on every shipped config, `search
--ratio 13/15`, an infeasible `--ratio`, and `trace` at 2, 3, 64 and 721
samples.  For each call it records the exit code, stdout, stderr and the
SHA-256 of every file written, with the config and output directories
written as `$CONFIGS` and `$OUT`.  The JSON subcommands print to stdout, so
their numbers are recorded verbatim; `search` and `trace` write files.

    python3 scripts/golden.py           # compare with tests/golden.json
    python3 scripts/golden.py --write   # re-record tests/golden.json

tests/test_golden.py reruns the list and compares.  A change that moves an
output re-records the manifest and names each moved file and the reason.
"""

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from shellswitch.cli import main as cli_main  # noqa: E402

CONFIGS = ROOT / "configs"
MANIFEST = ROOT / "tests" / "golden.json"
COMMANDS = ("validate", "stress", "search", "trace", "period", "lightray", "switch")
REFERENCE = "$CONFIGS/reference_search.json"


def calls() -> list[list[str]]:
    """The argv of every recorded call, $CONFIGS and $OUT unexpanded."""
    argvs = []
    for command in COMMANDS:
        for path in sorted(CONFIGS.glob("*.json")):
            argv = [command, "--config", f"$CONFIGS/{path.name}"]
            if command == "search":
                argv += ["--out", "$OUT/solution.json"]
            elif command == "trace":
                argv += ["--out", "$OUT"]
            argvs.append(argv)
    argvs.append(["search", "--config", REFERENCE, "--ratio", "13/15", "--out", "$OUT/solution.json"])
    argvs.append(["search", "--config", REFERENCE, "--ratio", "1/2"])
    for samples in ("2", "3", "64", "721"):
        argvs.append(["trace", "--config", REFERENCE, "--samples", samples, "--out", "$OUT"])
    return argvs


def run(argv: list[str], out: Path) -> dict:
    """One call's manifest entry, its files written under out."""
    places = {"$CONFIGS": str(CONFIGS), "$OUT": str(out)}

    def expand(arg: str) -> str:
        for name, place in places.items():
            arg = arg.replace(name, place)
        return arg

    def normalise(text: str) -> str:
        for name, place in places.items():
            text = text.replace(place, name)
        return text

    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli_main([expand(arg) for arg in argv])
    files = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }
    return {"argv": argv, "exit": code, "stdout": normalise(stdout.getvalue()),
            "stderr": normalise(stderr.getvalue()), "files": files}


def record() -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        entries = []
        for i, argv in enumerate(calls()):
            out = Path(tmp) / f"{i:02d}"
            out.mkdir()
            entries.append(run(argv, out))
        return entries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--write", action="store_true", help=f"re-record {MANIFEST.relative_to(ROOT)}")
    args = ap.parse_args()
    entries = record()
    if args.write:
        MANIFEST.write_text(json.dumps(entries, indent=1) + "\n")
        print(f"recorded {len(entries)} calls in {MANIFEST.relative_to(ROOT)}")
        return 0
    recorded = json.loads(MANIFEST.read_text())
    moved = [entry["argv"] for entry in entries if entry not in recorded]
    for argv in moved:
        print("moved:", " ".join(argv))
    if len(entries) != len(recorded):
        print(f"{len(entries)} calls against {len(recorded)} recorded")
    return int(bool(moved) or len(entries) != len(recorded))


if __name__ == "__main__":
    sys.exit(main())
