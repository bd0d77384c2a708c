"""Tests for the ``python -m repro serve`` entry point."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.experiments.cli import main as repro_main
from repro.service.catalog import Catalog
from repro.service.cli import build_parser, main as serve_main, resolve_workers

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8731
        assert args.store_dir is None
        assert args.dataset_budget is None  # resolved in main(): 4.0 / 1.0
        assert args.workers == 1
        assert args.answer_cache_bytes == 32 * 1024 * 1024

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--help"])
        assert excinfo.value.code == 0


class TestSmoke:
    def test_smoke_round_trip(self, capsys):
        """The acceptance path: serve starts, answers a batched rectangle
        query against a cached AG synopsis over HTTP, and refuses the
        over-budget rebuild."""
        assert serve_main(["--smoke", "--n-points", "2000"]) == 0
        out = capsys.readouterr().out
        assert "smoke test passed" in out
        assert "BudgetRefused" in out

    def test_smoke_reachable_through_repro_main(self, capsys):
        assert repro_main(["serve", "--smoke", "--n-points", "2000"]) == 0
        assert "smoke test passed" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["2.5", "0.5"])
    def test_smoke_honours_explicit_budget(self, capsys, budget):
        code = serve_main(
            ["--smoke", "--n-points", "2000", "--dataset-budget", budget]
        )
        assert code == 0
        assert "smoke test passed" in capsys.readouterr().out

    def test_smoke_twice_against_same_store_dir(self, tmp_path, capsys):
        for _ in range(2):
            code = serve_main(
                ["--smoke", "--n-points", "2000", "--store-dir", str(tmp_path)]
            )
            assert code == 0
        assert capsys.readouterr().out.count("smoke test passed") == 2

    def test_smoke_against_store_dir_with_larger_persisted_budget(
        self, tmp_path, capsys
    ):
        # A prior non-smoke server persisted a 4.0 ledger; the smoke run
        # (default budget 1.0) must drain the larger persisted total
        # instead of giving up after one refusal attempt.
        code = serve_main(
            [
                "--smoke", "--n-points", "2000",
                "--store-dir", str(tmp_path), "--dataset-budget", "4.0",
            ]
        )
        assert code == 0
        code = serve_main(
            ["--smoke", "--n-points", "2000", "--store-dir", str(tmp_path)]
        )
        assert code == 0
        assert capsys.readouterr().out.count("smoke test passed") == 2


class TestPreload:
    def test_preload_builds_before_serving(self, tmp_path, capsys):
        code = serve_main(
            [
                "--smoke", "--n-points", "2000",
                "--store-dir", str(tmp_path),
                "--preload", "storage_UG_eps0.25_seed1",
            ]
        )
        assert code == 0
        assert "preloaded storage_UG_eps0.25_seed1 (built)" in capsys.readouterr().out
        assert (tmp_path / "storage_UG_eps0.25_seed1.npz").exists()

    def test_malformed_preload_slug_fails_fast(self):
        from repro.service.errors import ValidationError

        with pytest.raises(ValidationError):
            serve_main(["--smoke", "--preload", "garbage"])


class TestResolveWorkers:
    def test_single_worker_passes_through(self):
        assert resolve_workers(1) == (1, None)

    def test_nonpositive_clamps_to_one(self):
        workers, reason = resolve_workers(0)
        assert workers == 1
        assert "clamped" in reason

    def test_multi_worker_honoured_or_explained(self):
        workers, reason = resolve_workers(3, store_dir="/tmp/anywhere")
        if hasattr(os, "fork") and hasattr(socket, "SO_REUSEPORT"):
            assert (workers, reason) == (3, None)
        else:
            assert workers == 1
            assert reason is not None

    def test_missing_reuseport_falls_back(self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        workers, reason = resolve_workers(4, store_dir="/tmp/anywhere")
        assert workers == 1
        assert "SO_REUSEPORT" in reason

    def test_no_store_dir_falls_back_to_one_worker(self):
        # N in-memory stores would mean N independent budget ledgers —
        # an N-fold silent privacy-budget multiplication.  Refused.
        workers, reason = resolve_workers(4, store_dir=None)
        assert workers == 1
        assert "privacy budget" in reason

    def test_ingest_forces_a_single_worker(self):
        # The write-ahead log has exactly one writer process.
        workers, reason = resolve_workers(
            4, store_dir="/tmp/anywhere", ingest=True
        )
        assert workers == 1
        assert "single worker" in reason


class TestIngestFlags:
    def test_ingest_requires_store_dir(self, capsys):
        assert serve_main(["--ingest", "--port", "0"]) == 2
        assert "--store-dir" in capsys.readouterr().err


class TestCatalogFlags:
    @pytest.mark.parametrize(
        "argv",
        [["--auth", "require"], ["--create-api-key", "acme"]],
        ids=["auth-require", "create-api-key"],
    )
    def test_api_keys_need_a_persistent_catalog(self, capsys, argv):
        """Keys minted into, or required from, a temporary catalog are moot."""
        assert serve_main([*argv, "--port", "0"]) == 2
        assert "--store-dir" in capsys.readouterr().err

    def test_catalog_cannot_be_turned_off(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--catalog", "off"])
        assert excinfo.value.code == 2
        assert "only budget ledger" in capsys.readouterr().err

    def test_create_api_key_lands_in_the_store_catalog(self, tmp_path, capsys):
        argv = ["--store-dir", str(tmp_path), "--create-api-key", "acme"]
        assert serve_main(argv) == 0
        token = capsys.readouterr().out.strip()
        catalog = Catalog(tmp_path / "catalog.sqlite")
        assert catalog.resolve_api_key(token) == "acme"


@pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(socket, "SO_REUSEPORT")),
    reason="multi-worker serving needs fork + SO_REUSEPORT",
)
class TestMultiWorker:
    def test_reuse_port_servers_share_an_address(self):
        """Two in-process servers bound with reuse_port split one port."""
        from repro.service.query_service import QueryService
        from repro.service.server import serve
        from repro.service.store import SynopsisStore

        def make_server(port):
            store = SynopsisStore(n_points=1_000, dataset_budget=2.0)
            return serve(QueryService(store), "127.0.0.1", port, reuse_port=True)

        first = make_server(0)
        port = first.server_address[1]
        second = make_server(port)  # binding the same port must succeed
        threads = []
        try:
            for server in (first, second):
                thread = threading.Thread(target=server.serve_forever, daemon=True)
                thread.start()
                threads.append(thread)
            for _ in range(8):  # fresh connection per request
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/health", timeout=10
                ) as response:
                    assert json.loads(response.read())["status"] == "ok"
        finally:
            for server in (first, second):
                server.shutdown()
                server.server_close()
            for thread in threads:
                thread.join(timeout=5)

    def test_forked_workers_serve_and_shut_down(self, tmp_path):
        """End-to-end --workers: forked processes share the port and the
        persisted store; SIGINT shuts the whole tree down cleanly."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workers", "2", "--port", str(port),
                "--n-points", "1000", "--store-dir", str(tmp_path),
                "--preload", "storage_UG_eps1.0_seed0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        url = f"http://127.0.0.1:{port}"
        try:
            body = None
            for _ in range(120):  # wait for the workers to come up
                if process.poll() is not None:
                    break
                try:
                    with urllib.request.urlopen(url + "/health", timeout=5) as resp:
                        body = json.loads(resp.read())
                        break
                except (urllib.error.URLError, ConnectionError, OSError):
                    time.sleep(0.25)
            assert process.poll() is None, process.stdout.read().decode()
            assert body is not None and body["status"] == "ok"

            # The preloaded release was persisted by the parent; any
            # worker answering this query reloads it from the shared dir.
            request = urllib.request.Request(
                url + "/query",
                data=json.dumps(
                    {
                        "dataset": "storage", "method": "UG",
                        "epsilon": 1.0, "seed": 0,
                        "rects": [[-110.0, 30.0, -80.0, 45.0]],
                    }
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            estimates = set()
            for _ in range(6):  # hit both workers with fresh connections
                with urllib.request.urlopen(request, timeout=10) as resp:
                    estimates.add(tuple(json.loads(resp.read())["estimates"]))
            # Builds are bit-deterministic per key: every worker answers
            # identically no matter which one the kernel picked.
            assert len(estimates) == 1
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        output = process.stdout.read().decode()
        assert "with 2 workers" in output


class TestExperimentCliStillWorks:
    def test_list_mentions_serve(self, capsys):
        assert repro_main(["list"]) == 0
        assert "serve" in capsys.readouterr().out
