"""Standalone ChronicleDB server: ``python -m repro.net [options]``.

Runs a :class:`~repro.net.server.ChronicleServer` around a ChronicleDB
instance (in-memory by default, persistent with ``--directory``) until
interrupted.
"""

from __future__ import annotations

import argparse
import signal
import threading

from repro.core.chronicle import ChronicleDB
from repro.core.config import ChronicleConfig
from repro.net.server import ChronicleServer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="ChronicleDB standalone server (paper, Section 3.3)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7654)
    parser.add_argument(
        "--directory", default=None,
        help="persist streams under this directory (default: in-memory)",
    )
    parser.add_argument(
        "--codec", default="zlib", help="block codec (zlib, lz4, none)"
    )
    parser.add_argument(
        "--lblock-size", type=int, default=None,
        help="logical block (leaf) size in bytes (default: config default)",
    )
    parser.add_argument(
        "--macro-size", type=int, default=None,
        help="macro block size in bytes (default: config default)",
    )
    parser.add_argument(
        "--announce", action="store_true",
        help="print 'LISTENING <host> <port>' on stdout once bound "
        "(for parent processes spawning servers on --port 0)",
    )
    args = parser.parse_args(argv)

    config_kwargs = {"codec": args.codec}
    if args.lblock_size is not None:
        config_kwargs["lblock_size"] = args.lblock_size
    if args.macro_size is not None:
        config_kwargs["macro_size"] = args.macro_size
    config = ChronicleConfig(**config_kwargs)
    if args.directory:
        import os

        db = (
            ChronicleDB.open(args.directory, config=config)
            if os.path.exists(os.path.join(args.directory, "manifest.json"))
            else ChronicleDB(args.directory, config=config)
        )
    else:
        db = ChronicleDB(config=config)

    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    with ChronicleServer(db, args.host, args.port) as server:
        if args.announce:
            print(f"LISTENING {server.host} {server.port}", flush=True)
        print(f"ChronicleDB listening on {server.host}:{server.port} "
              f"({'persistent: ' + args.directory if args.directory else 'in-memory'})",
              flush=True)
        stop.wait()
    db.close()
    print("shut down cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
