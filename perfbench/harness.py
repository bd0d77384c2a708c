"""Server processes and keep-alive HTTP clients for the benchmark.

The server under test always runs as its own process, started from the
checkout's sources (``PYTHONPATH=src``) exactly as an operator would
start it: ``python -m repro serve ...`` — or, for traced runs, through
``perfbench/launcher.py``, which records spans and then calls the same
``repro.service.cli.main``.  A :class:`Calibrator` process on the
server's CPU times fixed work, the unit the server's CPU time is
expressed in.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from perfbench import stats

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"

_READY = re.compile(r"serving synopses on http://([\d.]+):(\d+)")

#: Seconds a server may take to print its ready line.
READY_TIMEOUT_S = 60.0

#: A kept-alive connection idle this long is reopened before its next
#: request: the server drops connections idle for its read timeout (30 s
#: by default), and a request on a dropped one fails.
IDLE_REOPEN_S = 20.0

#: With two or more usable CPUs the server runs on the second and the load
#: generator on the first, so neither steals the other's cycles mid-request.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = {_CPUS[1]} if len(_CPUS) >= 2 else None
LOADGEN_CPUS = {_CPUS[0]} if SERVER_CPUS else None


def server_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # The ready line is read from a pipe: it must not sit in a buffer.
    env["PYTHONUNBUFFERED"] = "1"
    return env


def repro_command(args: list[str], spans_path: Path | None = None) -> list[str]:
    """``repro serve`` with ``args``, under the span launcher when traced."""
    if spans_path is None:
        return [sys.executable, "-m", "repro", "serve", *args]
    return [sys.executable, str(LAUNCHER), str(spans_path), "--", *args]


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, args: list[str], spans_path: Path | None = None):
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            repro_command(["--port", "0", *args], spans_path),
            cwd=ROOT,
            env=server_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if SERVER_CPUS:
            # Threads the server starts later inherit this mask.
            os.sched_setaffinity(self.process.pid, SERVER_CPUS)
        # The server's process-wide CPU clock (Linux MAKE_PROCESS_CPUCLOCK
        # with CPUCLOCK_SCHED): nanosecond scheduler run time over all its
        # threads, which leaves out time the hypervisor gave other guests.
        self._cpu_clock = ((~self.process.pid) << 3) | 2
        self.output: list[str] = []
        self._ready = threading.Event()
        self.host = self.port = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(READY_TIMEOUT_S) or self.port is None:
            self.kill()
            raise RuntimeError("server did not become ready:\n" + "".join(self.output[-20:]))
        self.ready_s = time.perf_counter() - self.started

    def _read(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)
            match = _READY.search(line)
            if match and not self._ready.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._ready.set()
        self._ready.set()  # process exited: unblock the waiter

    def client(self, token: str | None = None) -> "Client":
        return Client(self.host, self.port, token)

    def cpu_s(self) -> float:
        """CPU seconds the server process has run so far (all threads)."""
        return time.clock_gettime(self._cpu_clock)

    def vm_hwm_mb(self) -> float:
        """Peak resident set size of the server process (VmHWM), in MB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self, timeout: float = 30.0) -> float:
        """SIGTERM, wait for the drain to finish; returns seconds taken."""
        start = time.perf_counter()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.kill()
                raise RuntimeError("server ignored SIGTERM")
        self._reader.join(5.0)
        return time.perf_counter() - start

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._reader.join(5.0)


class Client:
    """A keep-alive HTTP/1.1 connection (TCP_NODELAY) to the server."""

    def __init__(self, host: str, port: int, token: str | None = None):
        self.host, self.port = host, port
        self.headers = {} if token is None else {"Authorization": f"Bearer {token}"}
        self._conn = None
        self._last_used = 0.0

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is not None and time.perf_counter() - self._last_used > IDLE_REOPEN_S:
            self.close()
        if self._conn is None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn = conn
        return self._conn

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None) -> tuple[int, dict, bytes]:
        """One request; connection errors reconnect once and re-raise."""
        merged = {**self.headers, **(headers or {})}
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=merged)
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        self._last_used = time.perf_counter()
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return response.status, dict(response.getheaders()), data

    def try_request(self, method: str, path: str, body: bytes | None = None,
                    headers: dict | None = None) -> tuple[int | str, dict, bytes]:
        """:meth:`request`, with a transport or protocol failure returned as
        the status (the error's ``repr``) instead of raised."""
        try:
            return self.request(method, path, body, headers)
        except (OSError, http.client.HTTPException) as error:
            return repr(error), {}, b""

    def json(self, method: str, path: str, payload=None) -> tuple[int, dict]:
        body = None if payload is None else json.dumps(payload).encode()
        status, _, data = self.request(
            method, path, body, {"Content-Type": "application/json"}
        )
        return status, json.loads(data) if data else {}

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Calibrator:
    """``calibrate.py`` pinned to the server's CPU, timed on demand.

    The vCPU's speed moves by up to 1.7x over seconds and minutes on a
    shared host, and CPU time moves with it.  Sampled while the server is
    idle, the fixed work's CPU times give the units a server CPU time
    measured at about the same moment is expressed in (:meth:`ref_ms`):
    ``compute`` or ``parse``, the two parts of ``calibrate.py``.
    """

    KINDS = ("compute", "parse")

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(CALIBRATE)], cwd=ROOT, env=server_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if SERVER_CPUS:
            os.sched_setaffinity(self.process.pid, SERVER_CPUS)
        self.times: list[float] = []
        self.values_ms: dict[str, list[float]] = {kind: [] for kind in self.KINDS}

    def sample(self) -> None:
        """Run the work once and record its CPU times."""
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("calibration process exited")
        self.times.append(time.perf_counter())
        for kind, value in zip(self.KINDS, line.split(), strict=True):
            self.values_ms[kind].append(float(value) * 1e3)

    def ref_ms(self, at, kind: str) -> np.ndarray:
        """The ``kind`` unit for CPU times measured at the ``at`` instants
        (``perf_counter`` seconds): see :func:`stats.nearest_median`."""
        return stats.nearest_median(at, self.times, self.values_ms[kind])

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def mint_api_key(store_dir: Path, tenant: str) -> str:
    """Mint a tenant API key with the CLI's one-shot admin command."""
    result = subprocess.run(
        repro_command(["--store-dir", str(store_dir), "--create-api-key", tenant]),
        cwd=ROOT, env=server_env(), capture_output=True, text=True, timeout=60,
        check=True,
    )
    return result.stdout.strip().splitlines()[-1]
