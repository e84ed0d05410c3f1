"""Cluster members: a :class:`ChronicleDB` behind a network server.

:class:`ClusterNode` hosts its database in this process (deterministic
failover tests); :class:`ProcessClusterNode` spawns ``python -m
repro.net`` in a child process — each node gets its own interpreter and
therefore its own core, which is what wall-clock ingest benchmarks need
(in-process nodes all contend for one GIL).
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.cluster.placement import Endpoint
from repro.core.chronicle import _MANIFEST, ChronicleDB
from repro.core.config import ChronicleConfig
from repro.errors import ClusterError
from repro.net.server import ChronicleServer
from repro.simdisk import SimulatedClock


class ClusterNode:
    """A shard member (primary or replica) hosting one database.

    ``directory=None`` keeps the node in memory — fine for routing and
    scatter-gather tests, but such a node cannot run recovery.  Give
    every node that may be promoted its own directory.
    """

    def __init__(
        self,
        name: str,
        directory: str | None = None,
        config: ChronicleConfig | None = None,
        clock: SimulatedClock | None = None,
        fault_plan=None,
        host: str = "127.0.0.1",
    ):
        self.name = name
        self.directory = directory
        self.config = config
        self.clock = clock
        self.fault_plan = fault_plan
        self.host = host
        self.db: ChronicleDB | None = None
        self.server: ChronicleServer | None = None
        self.killed = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "ClusterNode":
        if self.directory and os.path.exists(
            os.path.join(self.directory, _MANIFEST)
        ):
            self.db = ChronicleDB.open(
                self.directory, self.config, self.clock,
                fault_plan=self.fault_plan,
            )
        else:
            self.db = ChronicleDB(
                self.directory, self.config, self.clock,
                fault_plan=self.fault_plan,
            )
        self.server = ChronicleServer(self.db, host=self.host, port=0)
        self.server.start()
        self.killed = False
        return self

    @property
    def endpoint(self) -> Endpoint:
        if self.server is None:
            raise ClusterError(f"node {self.name} is not started")
        return Endpoint(self.server.host, self.server.port)

    def stop(self) -> None:
        """Graceful shutdown: stop serving, then seal and persist."""
        if self.server is not None:
            self.server.stop()
        if self.db is not None and not self.killed:
            self.db.close()

    def kill(self) -> None:
        """Simulate a node crash: sever every connection and abandon the
        database without flushing — whatever reached the devices is all
        recovery will see."""
        if self.server is not None:
            self.server.stop()
        self.killed = True

    # ------------------------------------------------------------- failover

    def install_replicator(self, replicator) -> None:
        if self.server is None:
            raise ClusterError(f"node {self.name} is not started")
        self.server.replicator = replicator

    @property
    def route_epoch(self) -> int | None:
        """The shard-map epoch this node enforces — ``None`` before the
        first ``map_update`` (and again after a crash-recover: route
        state is in-memory, so the orchestrator re-pushes the map)."""
        if self.server is None:
            return None
        return self.server.route_epoch

    def promote_for_writes(self) -> None:
        """Run the instant-recovery open before taking writes as primary.

        The replica's database is flushed and closed, then reopened
        through :meth:`ChronicleDB.open` — the same
        :meth:`EventStream.restore` path crash recovery uses — so a
        promoted primary always starts from a state recovery can
        reproduce.  In-memory nodes (no directory) skip the reopen.
        """
        if self.directory is None:
            return
        self.db.flush()
        self.db.close()
        self.db = ChronicleDB.open(
            self.directory, self.config, self.clock,
            fault_plan=self.fault_plan,
        )
        self.server.db = self.db

    def recover(self) -> None:
        """Bring a killed node back as a fresh member (crash recovery)."""
        if self.directory is None:
            raise ClusterError(
                f"node {self.name} has no directory; nothing to recover"
            )
        self.start()


class ProcessClusterNode:
    """A shard member running ``python -m repro.net`` in a subprocess.

    Used by the wall-clock wire benchmark: in-process nodes share one
    GIL, so a 4-shard "cluster" ingests on at most one core no matter
    how the wire path performs.  A subprocess node is a real server on a
    real core; the child announces its bound port on stdout
    (``--announce``) since ``--port 0`` picks it dynamically.
    """

    def __init__(
        self,
        name: str,
        directory: str | None = None,
        host: str = "127.0.0.1",
        extra_args: tuple[str, ...] = (),
    ):
        self.name = name
        self.directory = directory
        self.host = host
        self.extra_args = tuple(extra_args)
        self.process: subprocess.Popen | None = None
        self._endpoint: Endpoint | None = None

    def start(self) -> "ProcessClusterNode":
        command = [
            sys.executable,
            "-m",
            "repro.net",
            "--host",
            self.host,
            "--port",
            "0",
            "--announce",
            *self.extra_args,
        ]
        if self.directory:
            command += ["--directory", self.directory]
        env = dict(os.environ)
        source_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = source_root + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        for line in self.process.stdout:
            if line.startswith("LISTENING "):
                _, host, port = line.split()
                self._endpoint = Endpoint(host, int(port))
                return self
        raise ClusterError(
            f"node {self.name}: server exited before announcing its port "
            f"(rc={self.process.poll()})"
        )

    @property
    def endpoint(self) -> Endpoint:
        if self._endpoint is None:
            raise ClusterError(f"node {self.name} is not started")
        return self._endpoint

    def stop(self) -> None:
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
            self.process = None

    def __enter__(self) -> "ProcessClusterNode":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
