"""Write the committed v1 store images and the answers they must give.

Each image is a small ChronicleDB directory (512-byte L-blocks) whose
process "crashed": the stream was flushed and the manifest written, but
the store was never closed, so opening it runs crash recovery.  The
images must be written by a checkout whose files are format v1 (the
superblock's ``"format"`` is ``"chronicledb-repro-v1"``); the answers
are what that checkout returns after reopening a copy of each image.

Usage, from the root of a v1-writing checkout::

    PYTHONPATH=src python tests/storage/fixtures/make_v1_fixtures.py OUT

writes ``OUT/<name>/`` (the store) and ``OUT/<name>.json`` (answers);
the committed images live in ``tests/storage/fixtures/v1``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema

SCHEMA = EventSchema.of("x", "y")

#: The queries every image answers; the test asks them again.
QUERIES = {
    "select": "SELECT * FROM s",
    "aggregate": "SELECT count(x), sum(x), min(y), max(y) FROM s",
    "group_by": "SELECT count(x), sum(y), max(x) FROM s GROUP BY time(500)",
}


def in_order():
    return ChronicleConfig(lblock_size=512, macro_size=2048), [
        Event.of(i * 10, float(i), float(i % 7)) for i in range(400)
    ]


def late():
    # Distinct timestamps: where a late row lands among equal ones is not
    # what these images pin.
    rng = random.Random(7)
    ts = list(range(0, 6000, 10))
    order = sorted(ts, key=lambda t: t + (rng.randrange(200) if rng.random() < 0.1 else 0))
    config = ChronicleConfig(
        lblock_size=512, macro_size=2048, queue_capacity=8, checkpoint_interval=64
    )
    return config, [Event.of(t, float(t % 97), float(t % 13)) for t in order]


def split():
    config = ChronicleConfig(
        lblock_size=512, macro_size=2048, time_split_interval=2000, queue_capacity=8
    )
    ts = [t for t in range(0, 5000, 10) if t % 70]
    ts += list(range(1400, 1500, 70))  # late events into a closed split
    return config, [Event.of(t, float(t % 31), float(t % 5)) for t in ts]


IMAGES = {"in_order": in_order, "late": late, "split": split}


def answers(db) -> dict:
    out = {}
    for name, sql in QUERIES.items():
        result = db.execute(sql)
        if name == "select":
            result = [[e.t, list(e.values)] for e in result]
        out[name] = result
    return out


def write_image(directory: str, config, events) -> None:
    db = ChronicleDB(directory, config)
    stream = db.create_stream("s", SCHEMA)
    for start in range(0, len(events), 16):
        stream.append_batch(events[start : start + 16])
    stream.flush()
    db._write_manifest()
    db.devices.close()  # a crash: no seal, no commit footer


def main(out: str) -> None:
    os.makedirs(out, exist_ok=True)
    for name, make in IMAGES.items():
        config, events = make()
        directory = os.path.join(out, name)
        shutil.rmtree(directory, ignore_errors=True)
        write_image(directory, config, events)
        with tempfile.TemporaryDirectory() as scratch:
            copy = os.path.join(scratch, name)
            shutil.copytree(directory, copy)
            db = ChronicleDB.open(copy, config)
            expected = {"config": config_dict(config), "answers": answers(db)}
            db.devices.close()
        with open(os.path.join(out, f"{name}.json"), "w") as fh:
            json.dump(expected, fh, separators=(",", ":"))


def config_dict(config) -> dict:
    keys = ("lblock_size", "macro_size", "queue_capacity",
            "checkpoint_interval", "time_split_interval")
    return {key: getattr(config, key) for key in keys}


if __name__ == "__main__":
    main(sys.argv[1])
