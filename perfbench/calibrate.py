"""Rebuild the benchmark's data files from the program at the current commit.

    python3 perfbench/calibrate.py [--references-only]

Writes two files under perfbench/data/:

* ``reference.json`` -- the output SHA-256 of every job any seed can
  produce, apart from the partition pool's;
* ``partition_pool.json`` -- weight multisets for the ``partition`` workload,
  each timed on the calibrating machine and kept only if it falls into one of the cost bands of
  ``jobs.PARTITION_MIX``, with the SHA-256 of its output.  With
  ``--references-only`` the pool keeps its members and times and only the
  digests are recomputed.

The references are the correctness oracle of every later run, so rebuild
them only when the program's output is meant to change.  The pool's times
belong to the machine and commit recorded in the file.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import provenance  # noqa: E402

SEED = 20131009
ANALYZE_VALUES = (2, 3, 4, 5, 6, 8, 10, 12, 15, 16)  # divisors of 240
ANALYZE_MAX_MU = 256
TIME_LIMIT_S = 1500


def pool_quota(count: int) -> int:
    return max(3 * count, 12)


def search_proxy(seq) -> float:
    """Predicted cost in ms of a partition search (fit on random samples).

    Sum over sub-multisets S of the number of sub-multisets of S, i.e.
    prod (c+1)(c+2)/2 over multiplicities c; only used to skip candidates
    that cannot land in an unfilled band.
    """
    work = math.prod((c + 1) * (c + 2) // 2 for c in Counter(seq).values())
    return 38.0 * (work / 1e4) ** 0.925


def candidate(rng, command, weightcalc):
    if command == "decompose":
        k = rng.randint(6, 13)
        return sorted(rng.randint(2, 16) for _ in range(k))
    while True:
        k = rng.randint(6, 13)
        seq = sorted(rng.choice(ANALYZE_VALUES) for _ in range(k))
        mu = weightcalc.mu_values(weightcalc.WeightSequence(seq))[1]
        if abs(mu) <= ANALYZE_MAX_MU:
            return seq


def timed(main, argv, clearers, reps):
    outs = [jobs.run_job(main, jobs.Job(tuple(argv)), clearers)
            for _ in range(reps)]
    for o in outs:
        if o.rc != 0 or o.error:
            raise SystemExit(f"{argv}: rc={o.rc} error={o.error} {o.stderr}")
    digests = {jobs.output_digest(o.stdout) for o in outs}
    if len(digests) != 1:
        raise SystemExit(f"{argv}: output differs between runs")
    return statistics.median(o.seconds for o in outs) * 1000, digests.pop()


def build_pool(main, weightcalc, clearers) -> list:
    rng = random.Random(SEED)
    entries = []
    seen = set()
    filled = {(cmd, c): 0 for cmd, bands in jobs.PARTITION_MIX.items()
              for c, _ in bands}
    quota = {(cmd, c): pool_quota(n) for cmd, bands in jobs.PARTITION_MIX.items()
             for c, n in bands}
    start = time.monotonic()
    tried = 0
    while any(filled[k] < quota[k] for k in filled):
        if time.monotonic() - start > TIME_LIMIT_S:
            break
        open_cmds = sorted({cmd for (cmd, c) in filled
                            if filled[(cmd, c)] < quota[(cmd, c)]})
        command = rng.choice(open_cmds)
        seq = candidate(rng, command, weightcalc)
        weights = ",".join(map(str, seq))
        if (command, weights) in seen:
            continue
        seen.add((command, weights))
        open_bands = [c for (cmd, c) in filled
                      if cmd == command and filled[(cmd, c)] < quota[(cmd, c)]]
        if command == "decompose":
            guess = search_proxy(seq)
            if not any(guess / 8 <= c <= guess * 8 for c in open_bands):
                continue
        tried += 1
        ms, _ = timed(main, (command, weights), clearers, 1)
        near = [c for c in open_bands
                if c / (jobs.BAND_WIDTH * 1.1) <= ms <= c * jobs.BAND_WIDTH * 1.1]
        if not near:
            continue
        ms, digest = timed(main, (command, weights), clearers, 3)
        for c in near:
            if jobs.in_band(ms, c):
                filled[(command, c)] += 1
                entries.append({"command": command, "weights": weights,
                                "ms": round(ms, 3), "sha256": digest})
                break
    for k in sorted(filled):
        print(f"band {k[0]:9s} {k[1]:6g} ms: {filled[k]}/{quota[k]}",
              file=sys.stderr)
    print(f"timed {tried} candidates in {time.monotonic() - start:.0f} s",
          file=sys.stderr)
    return sorted(entries, key=lambda e: (e["command"], e["ms"]))


def reference_jobs():
    return [job.argv for workload in ("strand", "coxeter")
            for job in jobs.workload_jobs(workload, 0)] + list(jobs.VERIFY_PARTITION)


def main():
    from singlab import cli, weightcalc
    clearers = jobs.cache_clearers()
    info = provenance.machine()
    info["commit"] = provenance.git_commit(ROOT)
    info["calibrated_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    refs = {}
    for argv in reference_jobs():
        _, digest = timed(cli.main, argv, clearers, 1)
        refs[" ".join(argv)] = digest
    (jobs.DATA).mkdir(exist_ok=True)
    with open(jobs.DATA / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": info, "digests": refs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    if "--references-only" in sys.argv[1:]:
        pool = jobs.load_pool()
        for e in pool["entries"]:
            _, e["sha256"] = timed(cli.main, (e["command"], e["weights"]),
                                   clearers, 1)
        pool["digests_provenance"] = info
    else:
        pool = {"provenance": info, "band_width": jobs.BAND_WIDTH,
                "entries": build_pool(cli.main, weightcalc, clearers)}
    with open(jobs.DATA / "partition_pool.json", "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
