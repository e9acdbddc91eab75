"""Regenerate ``perfbench/golden.json``.

It holds the digest of every ranked list (``top=5``) of the news and
answers documents on the default seed, and the ``pack_sha256`` map of
the pack the builder writes for the benchmark world.  Run it only when
a change is meant to alter ranked output or pack bytes::

    python3 perfbench/record_golden.py
"""

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import inputs
    from perfbench.serving import TOP, build_pack, cold_start, prepare, ranked_digest
    from perfbench.workloads import CACHE_DIR, GOLDEN_PATH

    cache_dir = os.path.join(ROOT, CACHE_DIR)
    world, query_log = inputs.world_and_log(cache_dir)
    seed = inputs.DEFAULT_SEED
    documents = {
        "news_packed": inputs.news_documents(world, seed, cache_dir),
        "answers_golomb": inputs.answers_documents(world, seed, cache_dir),
    }
    inventories = prepare(world, query_log)
    pack_dir = os.path.join(cache_dir, f"golden-{os.getpid()}")
    try:
        report = build_pack(inventories, pack_dir)
        golden = {"seed": seed, "pack_sha256": report.pack_sha256}
        for name, texts in documents.items():
            served = cold_start(
                inventories, pack_dir, texts[0], compressed=name == "answers_golomb"
            )
            golden[name] = [
                ranked_digest(served.service.process(text, top=TOP)) for text in texts
            ]
    finally:
        shutil.rmtree(pack_dir, ignore_errors=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
