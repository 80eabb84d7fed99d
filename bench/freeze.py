"""Freeze the goldens that corpus-cli and inference-sweep check against.

    python3 bench/freeze.py

Run from the repository root, on the commit whose outputs are the
reference.  Writes ``bench/golden/corpus_cli.json`` (stdout, stderr and
exit code of every op in the mix, plus the SHA-256 of every file the
``corpus`` verb writes) and ``bench/golden/inference_sweep.json`` (one
digest per 729 consecutive truth-table entries).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import run
from workloads import GOLDEN, SWEEP_CHUNK, CorpusCli, InferenceSweep


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    fk = run.Fiberkit()
    work = Path("bench/out/work/freeze")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    corpus = CorpusCli(fk, work, seed=0)
    ops = {corpus.keys[i]: corpus.normalized(call()) for i, call in corpus.ops(0)}
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted((work / "out").iterdir())}

    sweep = InferenceSweep(fk, work, seed=0)
    digests = [sweep.chunk_digest(key, call()) for key, call in sweep.ops(0)]
    digests = [d for d in digests if d is not None]
    chunks, start = {}, 0
    for kind, flags in sweep.spaces:
        count = 3 ** len(flags) // SWEEP_CHUNK
        chunks[kind] = digests[start:start + count]
        start += count
    shutil.rmtree(work)

    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "corpus_cli.json").write_text(
        json.dumps({"ops": dict(sorted(ops.items())), "corpus_files": files}, indent=1) + "\n")
    (GOLDEN / "inference_sweep.json").write_text(
        json.dumps({"chunk": SWEEP_CHUNK, **chunks}, indent=1) + "\n")
    print(f"froze {len(ops)} corpus-cli ops, {len(files)} corpus files, "
          f"{sum(map(len, chunks.values()))} truth-table chunks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
