"""Server launcher of the end-to-end benchmark (one subprocess per set-up).

Builds ``ChronicleConfig`` + ``ChronicleDB(directory)`` +
``ChronicleServer(protocol="binary")`` from the public classes, prints
``LISTENING host port`` and then serves until its stdin closes — so a
generator that dies for any reason takes its server with it.

With ``--trace`` the span recorder of ``tracer.py`` is installed around
the server-side entry points and ``repro.obs`` is enabled; the line
``dump <path>`` on stdin writes the recorded spans to *path* and
answers ``DUMPED`` (the generator asks for it right before SIGKILL).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory")
    parser.add_argument("--config", default="{}",
                        help="ChronicleConfig keyword arguments as JSON")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the server to this core")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro import ChronicleConfig, ChronicleDB
    from repro.net.server import ChronicleServer

    tracer = None
    if args.trace:
        from repro import obs

        if __package__:
            from . import tracer as tracer_mod
        else:
            import tracer as tracer_mod
        obs.enable()
        tracer = tracer_mod.Tracer()
        tracer_mod.install_server(tracer)

    db = ChronicleDB(args.directory, ChronicleConfig(**json.loads(args.config)))
    server = ChronicleServer(db, protocol="binary")
    server.start()
    print("LISTENING", server.host, server.port, flush=True)
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "dump" and tracer is not None:
            tracer.dump(argument)
            print("DUMPED", flush=True)
    # stdin closed without a kill: the generator is gone.  No close(),
    # no manifest rewrite — the same state a SIGKILL would leave.
    os._exit(0)


if __name__ == "__main__":
    raise SystemExit(main())
