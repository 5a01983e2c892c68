"""Write bench/digests.json: SHA-256 digests of the outputs that must stay
byte-identical, for every catalog input the benchmark can draw.

    python3 bench/record_digests.py

Run it only at a commit whose outputs are the reference; the benchmark
counts every later mismatch as a failed op.  It takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from miscover import complexity_table, cover_to_json, enumerate_mis, minimal_cover  # noqa: E402

import workloads as wl  # noqa: E402
from run import git_commit  # noqa: E402

# cover_to_json is quadratic in the ground size; above this the linear
# encoder, checked equal to it on every smaller size, stands in for it
COVER_TO_JSON_MAX = 100_000


def main() -> None:
    cat = wl.catalog()
    out: dict = {"commit": git_commit()}

    out["complexity_table"] = {}
    for n in cat["complexity_table"]:
        table = complexity_table(n)
        out["complexity_table"][str(n)] = {
            "c": wl.array_digest(table.c),
            "choice": wl.array_digest(table.choice),
        }

    out["enumerate_mis"] = {
        key: wl.sha(wl.mis_listing(enumerate_mis(wl.catalog_graph(key))))
        for key in cat["enumerate_mis"]
    }

    # MIS counts of the shapes mis-sparse relabels: networkx's count of
    # maximal cliques of the complement, which enumerate_mis must agree with
    out["cubic_mis_count"] = {}
    for key in cat["cubic_mis_count"]:
        g = wl.catalog_graph(key)
        count = len(wl.nx_mis_sets(g.n, list(g.edges())))
        if len(enumerate_mis(g)) != count:
            raise SystemExit(f"enumerate_mis disagrees with networkx on {key}")
        out["cubic_mis_count"][key] = count

    out["minimal_cover"] = {}
    for m in cat["minimal_cover"]:
        cover = minimal_cover(m)
        data = wl.cover_json_bytes(cover)
        if m <= COVER_TO_JSON_MAX and cover_to_json(cover).encode() != data:
            raise SystemExit(f"linear encoder disagrees with cover_to_json at m={m}")
        out["minimal_cover"][str(m)] = wl.sha(data)

    workdir = wl.BENCH / "out" / f"record-{os.getpid()}"
    try:
        wl.prepare_cli_files(workdir)
        env = wl.child_env()
        out["cli"] = {}
        for cmds in wl.cli_catalog().values():
            for key, argv, code in cmds:
                rc, stdout = wl.run_cli(argv, workdir, env)
                if rc != code:
                    raise SystemExit(f"{key!r} exited {rc}, expected {code}")
                out["cli"][key] = wl.sha(stdout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (BENCH / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
