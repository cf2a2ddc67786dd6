"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph.generators import grid_road_network
from repro.graph.io import write_dimacs


@pytest.fixture
def graph_file(tmp_path):
    g = grid_road_network(10, 10, seed=1)
    path = tmp_path / "g.gr"
    write_dimacs(g, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_all_artifact_accepted(self):
        args = build_parser().parse_args(["experiment", "all"])
        assert args.artifact == "all"


class TestExperimentCommand:
    def test_table1(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.003"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_fig2(self, capsys):
        assert main(["experiment", "fig2", "--scale", "0.003"]) == 0
        assert "delta versus parallelism" in capsys.readouterr().out


class TestSSSPCommand:
    @pytest.mark.parametrize(
        "algo", ["dijkstra", "bellman-ford", "delta-stepping", "nearfar", "kla"]
    )
    def test_algorithms(self, capsys, graph_file, algo):
        assert main(["sssp", graph_file, "--algorithm", algo]) == 0
        out = capsys.readouterr().out
        assert "reached" in out

    def test_adaptive_with_setpoint(self, capsys, graph_file):
        assert (
            main(["sssp", graph_file, "--algorithm", "adaptive", "--setpoint", "50"])
            == 0
        )
        assert "reached" in capsys.readouterr().out

    def test_explicit_source(self, capsys, graph_file):
        assert main(["sssp", graph_file, "--source", "5"]) == 0
        assert "source=5" in capsys.readouterr().out

    def test_simulate_on_device(self, capsys, graph_file):
        assert main(["sssp", graph_file, "--device", "tk1"]) == 0
        assert "simulated on jetson-tk1" in capsys.readouterr().out

    def test_simulate_without_trace(self, capsys, graph_file):
        assert (
            main(["sssp", graph_file, "--algorithm", "dijkstra", "--device", "tk1"])
            == 0
        )
        assert "no trace" in capsys.readouterr().out

    def test_save_trace(self, capsys, graph_file, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["sssp", graph_file, "--save-trace", str(out_path)]) == 0
        assert out_path.exists()
        from repro.instrument.serialize import load_trace

        assert len(load_trace(out_path)) > 0


class TestGenerateAndInfo:
    @pytest.mark.parametrize("ext", ["gr", "mtx", "tsv"])
    def test_generate_roundtrips(self, capsys, tmp_path, ext):
        out = tmp_path / f"cal.{ext}"
        assert main(["generate", "cal", str(out), "--scale", "0.001"]) == 0
        assert out.exists()
        assert main(["info", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Nodes" in text

    def test_generate_wiki(self, capsys, tmp_path):
        out = tmp_path / "wiki.tsv"
        assert main(["generate", "wiki", str(out), "--scale", "0.001"]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_info_matches_graph(self, capsys, graph_file):
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "100" in out  # 10x10 grid


class TestBadGraphFiles:
    """Unreadable or malformed graph files exit with one line, no traceback."""

    @pytest.fixture
    def truncated(self, tmp_path):
        path = tmp_path / "cut.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 2 1.0\n"
        )
        return str(path)

    @pytest.mark.parametrize(
        "command",
        [["sssp"], ["info"], ["trace", "record"]],
        ids=["sssp", "info", "trace-record"],
    )
    def test_truncated_and_missing_files(self, tmp_path, truncated, command):
        with pytest.raises(SystemExit, match="cannot load graph .*line 4"):
            main([*command, truncated])
        missing = str(tmp_path / "absent.gr")
        with pytest.raises(SystemExit, match="cannot load graph .*absent.gr"):
            main([*command, missing])

    def test_serve_graph_file(self, tmp_path, truncated):
        serve = ["serve", "--scale", "0.003", "-q", "--graph-file"]
        with pytest.raises(SystemExit, match="cannot load graph .*line 4"):
            main([*serve, f"cut={truncated}"])
        with pytest.raises(SystemExit, match="cannot load graph .*absent.mtx"):
            main([*serve, f"gone={tmp_path / 'absent.mtx'}"])

    def test_process_exits_nonzero_without_traceback(self, truncated):
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [_sys.executable, "-m", "repro", "sssp", truncated],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert "cannot load graph" in proc.stderr


class TestServeCommand:
    def _requests(self, tmp_path, lines):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_serves_jsonl_responses(self, capsys, tmp_path):
        import json

        requests = self._requests(
            tmp_path,
            [
                '{"graph": "cal", "source": 0, "algorithm": "dijkstra", "id": "a"}',
                '{"graph": "cal", "source": 0, "algorithm": "dijkstra", "id": "b"}',
                '{"op": "stats"}',
            ],
        )
        assert (
            main(["serve", "--input", requests, "--scale", "0.003", "-q"]) == 0
        )
        out = capsys.readouterr().out
        responses = [json.loads(line) for line in out.splitlines()]
        assert len(responses) == 3
        assert responses[0]["ok"] and responses[0]["cache"] == "miss"
        assert responses[1]["ok"] and responses[1]["cache"] == "hit"
        assert responses[2]["op"] == "stats"
        assert responses[2]["cache"]["hits"] == 1

    def test_bad_lines_answered_not_fatal(self, capsys, tmp_path):
        import json

        requests = self._requests(
            tmp_path,
            ["not json", '{"graph": "cal", "source": 0, "algorithm": "dijkstra"}'],
        )
        assert (
            main(["serve", "--input", requests, "--scale", "0.003", "-q"]) == 0
        )
        first, second = (
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        )
        assert first["ok"] is False
        assert second["ok"] is True

    def test_graph_file_registration(self, capsys, tmp_path, graph_file):
        import json

        requests = self._requests(
            tmp_path, ['{"graph": "mine", "source": 0, "algorithm": "dijkstra"}']
        )
        assert (
            main(
                [
                    "serve",
                    "--input",
                    requests,
                    "--graph-file",
                    f"mine={graph_file}",
                    "--scale",
                    "0.003",
                    "-q",
                ]
            )
            == 0
        )
        (response,) = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert response["ok"] is True
        assert response["graph"] == "mine"

    def test_metrics_and_events_artifacts(self, capsys, tmp_path):
        import json

        requests = self._requests(
            tmp_path, ['{"graph": "cal", "source": 0, "algorithm": "dijkstra"}']
        )
        metrics_path = tmp_path / "serve.metrics.json"
        events_path = tmp_path / "serve.events.jsonl"
        assert (
            main(
                [
                    "serve",
                    "--input",
                    requests,
                    "--scale",
                    "0.003",
                    "--metrics",
                    str(metrics_path),
                    "--events",
                    str(events_path),
                    "-q",
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(metrics_path.read_text())
        assert payload["stats"]["queries"] == 1
        assert payload["metrics"]["service.queries"]["value"] == 1
        events = [
            json.loads(line) for line in events_path.read_text().splitlines()
        ]
        # v4 serving telemetry: lifecycle events plus span events (the
        # query's worker/task, worker/task/kernel, engine/query,
        # protocol chain), all sharing the line's trace id
        types = [e["type"] for e in events]
        assert types[0] == "query_start"
        assert "query_end" in types
        span_names = {e["name"] for e in events if e["type"] == "span"}
        assert {"worker/task", "engine/query", "protocol"} <= span_names
        traces = {e.get("trace") for e in events}
        assert len(traces) == 1 and None not in traces

    def test_bad_graph_file_spec(self, tmp_path):
        requests = self._requests(tmp_path, ['{"op": "stats"}'])
        with pytest.raises(SystemExit):
            main(["serve", "--input", requests, "--graph-file", "nopath"])

    def test_serve_accepts_resilience_flags(self, capsys, tmp_path):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"graph": "cal", "source": 0, "algorithm": "dijkstra"}\n'
            '{"op": "health"}\n'
        )
        rc = main(
            [
                "serve",
                "--input",
                str(requests),
                "--scale",
                "0.003",
                "--timeout",
                "30",
                "-q",
            ]
        )
        assert rc == 0
        query, health = (
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        )
        assert query["ok"] is True
        assert health["op"] == "health"
        assert health["pool"]["alive"] is True


class TestQueryCommand:
    def test_one_shot_query(self, capsys):
        import json

        assert (
            main(
                [
                    "query",
                    "cal",
                    "--scale",
                    "0.003",
                    "--algorithm",
                    "dijkstra",
                    "--source",
                    "0",
                ]
            )
            == 0
        )
        (response,) = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert response["ok"] is True
        assert response["graph"] == "cal"
        assert response["source"] == 0

    def test_repeat_hits_cache(self, capsys):
        import json

        assert (
            main(
                [
                    "query",
                    "cal",
                    "--scale",
                    "0.003",
                    "--algorithm",
                    "dijkstra",
                    "--repeat",
                    "2",
                ]
            )
            == 0
        )
        first, second = (
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        )
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert second["reached"] == first["reached"]

    def test_default_source_is_hub(self, capsys):
        import json

        assert main(["query", "cal", "--scale", "0.003", "--algorithm", "dijkstra"]) == 0
        (response,) = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert response["ok"] is True

    def test_unknown_graph_exits(self):
        with pytest.raises(SystemExit):
            main(["query", "no-such-graph", "--scale", "0.003"])


# option values serve and query reject alike: (options, the one line)
_SHARED_BAD = {
    "workers": (["--workers", "0"], "bad --workers: must be >= 1, got 0"),
    "max-batch": (["--max-batch", "0"], "bad --max-batch: must be >= 1, got 0"),
    "timeout-0": (["--timeout", "0"], "bad --timeout: must be > 0, got 0.0"),
    "timeout-neg": (["--timeout", "-1"], "bad --timeout: must be > 0, got -1.0"),
    "cache-size": (["--cache-size", "-1"], "bad --cache-size: must be >= 0, got -1"),
    "scale": (["--scale", "-1"], "bad --scale: must be > 0, got -1.0"),
}
_SERVE = ["serve", "--scale", "0.003", "-q"]
_QUERY = ["query", "cal", "--scale", "0.003", "-q"]
_BAD_OPTIONS = {
    **{
        f"{command[0]}-{case}": (command + options, message)
        for command in (_SERVE, _QUERY)
        for case, (options, message) in _SHARED_BAD.items()
    },
    "listen-nonsense": (
        _SERVE + ["--listen", "nonsense"],
        "bad --listen: expected HOST:PORT, got 'nonsense'",
    ),
    "listen-port": (
        _SERVE + ["--listen", "127.0.0.1:99999"],
        "bad --listen: port 99999 is not in 0-65535",
    ),
    "serve-heartbeat": (
        _SERVE + ["--shards", "2", "--heartbeat-ms", "0"],
        "bad --heartbeat-ms: must be > 0, got 0.0",
    ),
    "loadgen-target": (
        ["loadgen", "notanaddress"],
        "bad target: expected HOST:PORT, got 'notanaddress'",
    ),
    "chaos-crash-at": (["chaos-net", "--crash-at", "-1"], "bad --crash-at: must be >= 0, got -1"),
    "chaos-workers": (["chaos-net", "--workers", "0"], "bad --workers: must be >= 1, got 0"),
    "chaos-scale": (["chaos-net", "--scale", "-1"], "bad --scale: must be > 0, got -1.0"),
    "chaos-heartbeat": (
        ["chaos-net", "--heartbeat-ms", "0"],
        "bad --heartbeat-ms: must be > 0, got 0.0",
    ),
}


class TestBadOptionValues:
    """An option value out of range exits with one line, no traceback."""

    @pytest.mark.parametrize("case", sorted(_BAD_OPTIONS))
    def test_exits_with_one_line(self, case):
        argv, message = _BAD_OPTIONS[case]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value) == message

    def test_help_names_no_removed_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for removed in ("--fault-rate", "--fault-hang", "--fault-kinds", "poolbreak",
                        "--pool-mode"):
            assert removed not in out

    def test_process_exits_1_without_traceback(self):
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [
                _sys.executable, "-m", "repro", "serve", "--scale", "0.003",
                "--workers", "0",
            ],
            capture_output=True, text=True, env=env, timeout=60,
            stdin=subprocess.DEVNULL,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip() == "bad --workers: must be >= 1, got 0"


class TestClosedStdout:
    """A reader that closes stdout early ends the command quietly."""

    def test_serve_ends_without_traceback(self):
        import json
        import subprocess

        # 400 answers (~120 KB) overflow the pipe, so writes after the
        # close must fail; repeated sources answer from the cache
        lines = "".join(
            json.dumps({"graph": "cal", "source": i % 40, "algorithm": "dijkstra"}) + "\n"
            for i in range(400)
        )
        proc = _serve_proc(
            "--scale", "0.005", "-q",
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdin.write(lines.encode())
        proc.stdin.close()
        assert json.loads(_read_line(proc.stdout, 60))["ok"]
        proc.stdout.close()
        assert proc.wait(timeout=60) in (0, 141)
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert "Traceback" not in stderr, stderr


class TestBadSampleRate:
    """``serve --sample-rate`` outside [0, 1], NaN included, exits with one line."""

    MESSAGE = "bad --sample-rate: sample rate must be in [0, 1]"

    @pytest.mark.parametrize("rate", ["-0.5", "1.5", "nan", "inf"])
    def test_exits_with_one_line(self, rate):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--scale", "0.003", "-q", "--sample-rate", rate])
        assert str(exc.value) == self.MESSAGE

    @pytest.mark.parametrize("rate", ["0", "0.5", "1"])
    def test_in_range_rates_serve(self, rate, capsys, tmp_path):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"graph": "cal", "source": 0, "algorithm": "dijkstra"}\n'
        )
        argv = [
            "serve", "--input", str(requests), "--scale", "0.003", "-q",
            "--sample-rate", rate,
        ]
        assert main(argv) == 0
        (response,) = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert response["ok"] is True

    def test_process_exits_1_without_traceback(self):
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [
                _sys.executable, "-m", "repro", "serve", "--scale", "0.003",
                "--sample-rate", "-0.5",
            ],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip() == self.MESSAGE


class TestBadKnobValue:
    """``sssp`` and ``trace record`` answer a bad knob value with one line."""

    CASES = {
        "sssp --setpoint 0": "bad --setpoint: setpoint must be finite and positive, got 0.0",
        "sssp --setpoint nan": "bad --setpoint: setpoint must be finite and positive, got nan",
        "sssp --setpoint inf": "bad --setpoint: setpoint must be finite and positive, got inf",
        "sssp --algorithm delta-stepping --delta 0": (
            "bad --delta: delta must be finite and positive, got 0.0"
        ),
        "sssp --algorithm nearfar --delta inf": (
            "bad --delta: delta must be finite and positive, got inf"
        ),
        "sssp --algorithm kla --k 0": "bad --k: must be >= 1, got 0",
        "trace record --algorithm nearfar --delta -1": (
            "bad --delta: delta must be finite and positive, got -1.0"
        ),
        "trace record --setpoint nan": (
            "bad --setpoint: setpoint must be finite and positive, got nan"
        ),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_exits_with_one_line(self, graph_file, tmp_path, command):
        argv = [*command.split(), graph_file]
        if command.startswith("trace"):
            argv += ["-o", str(tmp_path / "run")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value) == self.CASES[command]
        assert not list(tmp_path.glob("run.*"))  # refused before anything ran

    def test_process_exits_1_without_traceback(self, graph_file):
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [_sys.executable, "-m", "repro", "sssp", graph_file, "--setpoint", "nan"],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip() == (
            "bad --setpoint: setpoint must be finite and positive, got nan"
        )


class TestVersionCommand:
    def test_version(self, capsys):
        from repro import __version__

        assert main(["version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_version_verbose(self, capsys):
        assert main(["version", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "python" in out and "numpy" in out


class TestVerbosityFlags:
    def test_quiet_suppresses_chatter(self, capsys, graph_file):
        assert main(["sssp", graph_file, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "CSRGraph" not in out
        assert "reached" in out  # the result itself still prints

    def test_quiet_before_subcommand(self, capsys, graph_file):
        assert main(["--quiet", "sssp", graph_file]) == 0
        assert "CSRGraph" not in capsys.readouterr().out

    def test_verbose_prints_metrics(self, capsys, graph_file):
        assert main(["sssp", graph_file, "--algorithm", "nearfar", "-v"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "sssp.relaxations" in out

    def test_default_is_neither(self, capsys, graph_file):
        assert main(["sssp", graph_file, "--algorithm", "nearfar"]) == 0
        out = capsys.readouterr().out
        assert "CSRGraph" in out
        assert "metrics:" not in out


class TestTraceCommand:
    def test_record_produces_all_artifacts(self, capsys, graph_file, tmp_path):
        import json

        base = tmp_path / "run"
        assert (
            main(
                ["trace", "record", graph_file, "--setpoint", "50", "-o", str(base)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "reached" in out
        trace_path = tmp_path / "run.trace.json"
        events_path = tmp_path / "run.events.jsonl"
        metrics_path = tmp_path / "run.metrics.json"
        assert trace_path.exists() and events_path.exists() and metrics_path.exists()

        def strict(token):  # NaN/Infinity are not JSON
            raise AssertionError(f"non-JSON constant {token} in the event log")

        lines = events_path.read_text().splitlines()
        events = [json.loads(line, parse_constant=strict) for line in lines]
        assert [e["type"] for e in events] == ["run_start", "iterations", "run_end"]
        columns = events[1]
        iterations = events[-1]["iterations"]
        records = json.loads(trace_path.read_text())["records"]
        assert len(records) == iterations > 0
        for name in ("x1", "x2", "x3", "x4", "delta", "far_size", "d_estimate"):
            assert columns[name] == [rec[name] for rec in records]

        metrics = json.loads(metrics_path.read_text())
        assert metrics["metrics"]["sssp.iterations"]["value"] == iterations
        assert metrics["wall_seconds"] > 0
        assert any(s["path"] == "run" for s in metrics["spans"])

    def test_two_adaptive_recordings_diff_equal(self, graph_file, tmp_path):
        """No row of a recording carries wall clock: two recordings of
        one run differ only in the controller's run total in ``meta``."""
        import json

        files = []
        for name in ("a", "b"):
            base = tmp_path / name
            main(["-q", "trace", "record", graph_file, "--setpoint", "50", "-o", str(base)])
            files.append(json.loads((tmp_path / f"{name}.trace.json").read_text()))
        totals = [f["meta"].pop("controller_seconds") for f in files]
        assert min(totals) > 0
        assert files[0] == files[1]

    def test_two_adaptive_recordings_byte_identical(
        self, graph_file, tmp_path, monkeypatch
    ):
        """With the controller's clock pinned (its run total is the
        file's one wall-clock value), two recordings match byte for byte."""
        import itertools

        from repro.core import controller as controller_module

        paths = []
        for name in ("a", "b"):
            ticks = itertools.count()
            monkeypatch.setattr(
                controller_module, "perf_counter", lambda: next(ticks) * 1e-6
            )
            main(["-q", "trace", "record", graph_file, "--setpoint", "50", "-o", str(tmp_path / name)])
            paths.append(tmp_path / f"{name}.trace.json")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_record_nearfar(self, capsys, graph_file, tmp_path):
        base = tmp_path / "nf"
        assert (
            main(
                ["trace", "record", graph_file, "--algorithm", "nearfar", "-o", str(base)]
            )
            == 0
        )
        assert (tmp_path / "nf.trace.json").exists()

    def test_show(self, capsys, graph_file, tmp_path):
        base = tmp_path / "run"
        main(["-q", "trace", "record", graph_file, "--setpoint", "50", "-o", str(base)])
        capsys.readouterr()
        assert main(["trace", "show", str(tmp_path / "run.trace.json")]) == 0
        out = capsys.readouterr().out
        assert "iterations" in out
        assert "par mean" in out

    def test_show_renders_the_iterations_event_as_one_line(
        self, capsys, graph_file, tmp_path
    ):
        from repro.instrument.serialize import load_trace

        base = tmp_path / "nf"
        main(["-q", "trace", "record", graph_file, "--algorithm", "nearfar", "-o", str(base)])
        capsys.readouterr()
        assert main(["trace", "show", str(tmp_path / "nf.events.jsonl")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("3 events in") and "iterations=1" in out[0]
        trace = load_trace(tmp_path / "nf.trace.json")
        [line] = [row for row in out if row.startswith("iterations ")]
        assert f"rows={len(trace)} " in line
        assert f"x2 sum={trace.total_edges_expanded:,} " in line
        assert len(out) == 4  # the count line, then one line per event

    def test_diff_reports_deltas(self, capsys, graph_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["-q", "trace", "record", graph_file, "--setpoint", "50", "-o", str(a)])
        main(
            ["-q", "trace", "record", graph_file, "--algorithm", "nearfar", "-o", str(b)]
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "trace",
                    "diff",
                    str(tmp_path / "a.trace.json"),
                    str(tmp_path / "b.trace.json"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "b - a" in out
        assert "iterations" in out
        assert "par cv" in out
        assert "d settle" in out

    def test_diff_accepts_save_trace_output(self, capsys, graph_file, tmp_path):
        """Traces saved by `sssp --save-trace` diff against recorded ones."""
        t1 = tmp_path / "t1.json"
        main(["-q", "sssp", graph_file, "--save-trace", str(t1)])
        base = tmp_path / "r"
        main(["-q", "trace", "record", graph_file, "--setpoint", "50", "-o", str(base)])
        capsys.readouterr()
        assert (
            main(["trace", "diff", str(t1), str(tmp_path / "r.trace.json")]) == 0
        )
        assert "iterations" in capsys.readouterr().out


class TestMetricsAndTopCommands:
    """The v4 observability surface: metrics exposition and repro top."""

    def _served_metrics(self, tmp_path, capsys, events=False):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(
                f'{{"graph": "cal", "source": {s}, "algorithm": "nearfar"}}'
                for s in range(3)
            )
            + "\n"
        )
        metrics_path = tmp_path / "serve.metrics.json"
        argv = [
            "-q", "serve", "--input", str(requests), "--scale", "0.003",
            "--metrics", str(metrics_path),
        ]
        if events:
            argv += ["--events", str(tmp_path / "serve.events.jsonl")]
        assert main(argv) == 0
        capsys.readouterr()
        return metrics_path

    def test_metrics_human_summary(self, capsys, tmp_path):
        path = self._served_metrics(tmp_path, capsys)
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "service.query.latency" in out
        assert "p50=" in out and "p99=" in out

    def test_metrics_prometheus_exposition(self, capsys, tmp_path):
        path = self._served_metrics(tmp_path, capsys)
        assert main(["metrics", str(path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_query_latency histogram" in out
        assert 'le="+Inf"' in out
        assert "repro_service_queries_total 3" in out

    def test_metrics_missing_file_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["metrics", str(tmp_path / "absent.json")])

    def test_top_once_renders_dashboard(self, capsys, tmp_path):
        path = self._served_metrics(tmp_path, capsys)
        assert main(["top", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "queries" in out
        assert "p99" in out
        assert "cal" in out and "nearfar" in out

    def test_top_once_waits_out_missing_file(self, capsys, tmp_path):
        assert main(["top", str(tmp_path / "absent.json"), "--once"]) == 0
        out = capsys.readouterr().out
        assert "waiting" in out

    def test_trace_show_renders_event_log(self, capsys, tmp_path):
        self._served_metrics(tmp_path, capsys, events=True)
        events_path = tmp_path / "serve.events.jsonl"
        assert events_path.exists()
        assert main(["trace", "show", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "query_start" in out
        assert "query_end" in out
        assert "span" in out

    def test_trace_show_renders_batch_events(self, capsys, tmp_path):
        """Satellite 2: batch_dispatch / batch_run_* render, round-tripped
        through a real serve session that coalesced a sources batch."""
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"graph": "cal", "sources": [0, 5, 9], "algorithm": "nearfar"}\n'
        )
        events_path = tmp_path / "serve.events.jsonl"
        assert (
            main(
                [
                    "-q", "serve", "--input", str(requests),
                    "--scale", "0.003", "--max-batch", "8",
                    "--events", str(events_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        recorded = [
            json.loads(line) for line in events_path.read_text().splitlines()
        ]
        types = {e["type"] for e in recorded}
        assert {"batch_dispatch", "batch_run_start", "batch_run_end"} <= types
        assert main(["trace", "show", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "batch_dispatch" in out
        assert "batch=3" in out or "batch_size=3" in out or "size=3" in out
        assert "batch_run_start" in out and "batch_run_end" in out


class TestNetServeAndLoadgen:
    """serve --shards / --listen plumbing and the loadgen command."""

    def _requests(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            "\n".join(
                f'{{"graph": "cal", "source": {s}, "algorithm": "dijkstra"}}'
                for s in range(3)
            )
            + "\n"
        )
        return str(path)

    def test_sharded_stdin_serve_matches_single_engine(self, capsys, tmp_path):
        import json

        requests = self._requests(tmp_path)
        assert (
            main(["serve", "--input", requests, "--scale", "0.003", "-q"]) == 0
        )
        single = capsys.readouterr().out
        assert (
            main(
                [
                    "serve", "--input", requests, "--scale", "0.003",
                    "--shards", "2", "-q",
                ]
            )
            == 0
        )
        sharded = capsys.readouterr().out

        def strip(text):
            rows = [json.loads(line) for line in text.splitlines()]
            return [
                {
                    k: v
                    for k, v in row.items()
                    if k not in ("wall_seconds", "trace")
                }
                for row in rows
            ]

        assert strip(sharded) == strip(single)

    def test_sharded_serve_metrics_carry_shard_labels(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "serve", "--input", self._requests(tmp_path),
                    "--scale", "0.003", "--shards", "2",
                    "--metrics", str(metrics_path), "-q",
                ]
            )
            == 0
        )
        capsys.readouterr()
        data = json.loads(metrics_path.read_text())
        latency_keys = [
            k for k in data["metrics"] if k.startswith("service.query.latency")
        ]
        assert latency_keys and all('shard="' in k for k in latency_keys)
        # and repro top renders the per-shard table for that file
        assert main(["top", str(metrics_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "shard" in out

    def test_serve_rejects_bad_shard_count(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "serve", "--input", self._requests(tmp_path),
                    "--shards", "0", "-q",
                ]
            )

    def test_loadgen_validates_arguments(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "127.0.0.1:1", "--connections", "0"])
        with pytest.raises(SystemExit):
            main(["loadgen", "127.0.0.1:1", "--duration", "0"])
        with pytest.raises(SystemExit):
            main(["loadgen", "127.0.0.1:1", "--batch", "0"])

    def test_loadgen_reports_unreachable_target(self):
        # port 1 is never listening in the test environment
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["loadgen", "127.0.0.1:1", "--duration", "0.2"])

    def test_chaos_net_drill_passes_and_writes_metrics(
        self, tmp_path, capsys
    ):
        import json

        metrics_path = tmp_path / "chaos.json"
        assert (
            main(
                [
                    "chaos-net", "--scale", "0.003",
                    "--connections", "2", "--duration", "0.8",
                    "--metrics", str(metrics_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "chaos-net: PASS" in out
        assert "0 hung" in out
        assert "Dijkstra mismatches" in out
        saved = json.loads(metrics_path.read_text())
        assert saved["chaos"]["ok"] is True
        assert saved["chaos"]["restarts"] >= 1
        assert saved["metrics"]["bench.net.recovery_ms"]["value"] >= 0
        assert saved["metrics"]["bench.net.hung"]["value"] == 0

    def test_chaos_net_validates_arguments(self):
        with pytest.raises(SystemExit, match="--shards"):
            main(["chaos-net", "--shards", "0"])
        with pytest.raises(SystemExit, match="--crash-shard"):
            main(["chaos-net", "--shards", "2", "--crash-shard", "5"])
        with pytest.raises(SystemExit, match="--duration"):
            main(["chaos-net", "--duration", "0"])
        with pytest.raises(SystemExit):
            main(["chaos-net", "--fault-kind", "meteor"])

    def test_process_mode_stdin_serve_matches_thread_mode(
        self, capsys, tmp_path
    ):
        """Satellite: --shard-mode process answers byte-match thread mode."""
        import json

        requests = self._requests(tmp_path)
        base = ["serve", "--input", requests, "--scale", "0.003",
                "--shards", "2", "-q"]
        assert main(base) == 0
        threaded = capsys.readouterr().out
        assert main(base + ["--shard-mode", "process"]) == 0
        process = capsys.readouterr().out

        def strip(text):
            return [
                {
                    k: v
                    for k, v in json.loads(line).items()
                    if k not in ("wall_seconds", "trace")
                }
                for line in text.splitlines()
            ]

        assert strip(process) == strip(threaded)

    def test_chaos_net_rejects_worker_kinds_in_thread_mode(self):
        with pytest.raises(SystemExit, match="process"):
            main(["chaos-net", "--fault-kind", "worker_kill"])

    def test_chaos_net_process_mode_gates_recovery_metric(
        self, tmp_path, capsys
    ):
        import json

        metrics_path = tmp_path / "chaos-process.json"
        assert (
            main(
                [
                    "chaos-net", "--scale", "0.003",
                    "--shard-mode", "process",
                    "--fault-kind", "worker_kill",
                    "--connections", "2", "--duration", "0.8",
                    "--heartbeat-ms", "150",
                    "--metrics", str(metrics_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "chaos-net: PASS" in out
        assert "process shards" in out
        saved = json.loads(metrics_path.read_text())
        assert saved["chaos"]["ok"] is True
        assert saved["chaos"]["shard_mode"] == "process"
        assert saved["chaos"]["restarts"] >= 1
        assert saved["metrics"]["bench.net.process_recovery_ms"]["value"] >= 0

    def test_shard_worker_requires_connection_arguments(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard-worker"])
        args = build_parser().parse_args(
            [
                "shard-worker", "--connect", "127.0.0.1:9999",
                "--shard", "3", "--token", "cafe",
            ]
        )
        assert args.shard == 3 and args.token == "cafe"

    def test_listen_serve_loadgen_roundtrip(self, tmp_path, capsys):
        """End to end over a real socket: serve --listen + loadgen."""
        import json
        import socket
        import subprocess
        import sys as _sys
        import time as _time

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        proc = subprocess.Popen(
            [
                _sys.executable, "-m", "repro", "serve",
                "--listen", f"127.0.0.1:{port}", "--scale", "0.003",
                "--workers", "2", "-q",
            ],
            stderr=subprocess.PIPE,
        )
        try:
            deadline = _time.time() + 30
            while _time.time() < deadline:
                try:
                    socket.create_connection(("127.0.0.1", port), 0.5).close()
                    break
                except OSError:
                    if proc.poll() is not None:
                        raise AssertionError(
                            proc.stderr.read().decode(errors="replace")
                        )
                    _time.sleep(0.2)
            else:
                raise AssertionError("serve --listen never came up")
            metrics_path = tmp_path / "loadgen.json"
            assert (
                main(
                    [
                        "loadgen", f"127.0.0.1:{port}",
                        "--connections", "2", "--duration", "0.5",
                        "--metrics", str(metrics_path),
                    ]
                )
                == 0
            )
            summary = json.loads(capsys.readouterr().out)
            assert summary["sent"] > 0 and summary["errors"] == 0
            saved = json.loads(metrics_path.read_text())
            assert saved["metrics"]["bench.net.qps"]["value"] > 0
        finally:
            proc.terminate()
            proc.wait(timeout=10)


def _serve_proc(*flags, **popen):
    """A ``repro serve`` subprocess (its own interpreter, this ``src``)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *flags], env=env, **popen
    )


def _read_line(stream, timeout: float) -> str:
    """One line from a pipe or socket file, or fail after ``timeout``."""
    import select

    ready, _, _ = select.select([stream], [], [], timeout)
    assert ready, f"no answer within {timeout}s"
    line = stream.readline()
    assert line, "the server closed its end"
    return line.decode() if isinstance(line, bytes) else line


class TestSupervisedServe:
    """Shards are replaced when dead, never for being slow."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_listen_answers_a_request_slower_than_any_guess(self, mode):
        """An honest long request answers: 256 Bellman-Ford sources, 3-4 s on 2 vCPUs."""
        import json
        import socket
        import subprocess
        import time

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        proc = _serve_proc(
            "--listen", f"127.0.0.1:{port}", "--scale", "0.003",
            "--shard-mode", mode, "-q",
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30.0
            while True:
                try:
                    conn = socket.create_connection(("127.0.0.1", port), 0.5)
                    break
                except OSError:
                    assert proc.poll() is None, "serve --listen exited"
                    assert time.monotonic() < deadline, "never came up"
                    time.sleep(0.2)
            heavy = {
                "graph": "cal", "sources": list(range(256)), "algorithm": "bellman-ford",
            }
            with conn, conn.makefile("rb") as answers:
                conn.sendall(json.dumps(heavy).encode() + b"\n")
                answer = json.loads(_read_line(answers, 30.0))
                assert answer["ok"], answer
                conn.sendall(b'{"op": "health"}\n')
                health = json.loads(_read_line(answers, 10.0))
            assert health["supervisor"]["shards"]["0"]["restarts"] == 0
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_stdin_serve_restarts_a_killed_worker(self):
        import json
        import os
        import signal
        import subprocess
        import time

        proc = _serve_proc(
            "--scale", "0.003", "--shard-mode", "process", "-q",
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )

        def ask(request: str) -> dict:
            proc.stdin.write(request.encode() + b"\n")
            proc.stdin.flush()
            return json.loads(_read_line(proc.stdout, 30.0))

        try:
            health = ask('{"op": "health"}')
            pid = health["shards"][0]["dispatcher"]["worker"]["pid"]
            os.kill(pid, signal.SIGKILL)
            query = '{"graph": "cal", "source": 0, "algorithm": "nearfar"}'
            deadline = time.monotonic() + 10.0
            while not ask(query)["ok"]:
                assert time.monotonic() < deadline, "the shard never came back"
                time.sleep(0.1)
            restarts = ask('{"op": "health"}')["supervisor"]["shards"]["0"]
            assert restarts["restarts"] >= 1
        finally:
            proc.stdin.close()
            proc.wait(timeout=10)
            proc.stdout.close()


def _metrics_while_serving(path, proc, ready, timeout: float = 30.0) -> dict:
    """The ``--metrics`` file once ``ready(snapshot)``, read while ``proc`` serves."""
    import json
    import time

    deadline = time.monotonic() + timeout
    while True:
        assert proc.poll() is None, "serve exited"
        try:
            saved = json.loads(path.read_text())
        except (OSError, ValueError):  # not written yet
            saved = None
        if saved is not None and ready(saved):
            return saved
        assert time.monotonic() < deadline, f"no ready snapshot in {path}"
        time.sleep(0.05)


class TestServeMetricsInterval:
    """``--metrics-interval`` rewrites the ``--metrics`` file while serving."""

    def test_stdin_serve_rewrites_metrics_while_serving(self, tmp_path):
        import json
        import subprocess

        path = tmp_path / "serve_metrics.json"
        proc = _serve_proc(
            "--scale", "0.003", "--metrics", str(path),
            "--metrics-interval", "0.05", "-q",
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            proc.stdin.write(
                b'{"graph": "cal", "source": 0, "algorithm": "dijkstra"}\n'
            )
            proc.stdin.flush()
            assert json.loads(_read_line(proc.stdout, 30.0))["ok"]
            live = _metrics_while_serving(
                path, proc, lambda s: s["stats"]["queries"] == 1
            )
            assert live["schema"] == 2
        finally:
            proc.stdin.close()
            assert proc.wait(timeout=10) == 0
            proc.stdout.close()
        final = json.loads(path.read_text())
        assert final["schema"] == 2 and final["ts"] >= live["ts"]

    def test_listen_serve_rewrites_metrics_while_serving(self, tmp_path):
        import json
        import socket
        import subprocess

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        path = tmp_path / "serve_metrics.json"
        proc = _serve_proc(
            "--listen", f"127.0.0.1:{port}", "--scale", "0.003",
            "--metrics", str(path), "--metrics-interval", "0.05", "-q",
            stderr=subprocess.DEVNULL,
        )
        try:
            live = _metrics_while_serving(path, proc, lambda s: True)
            assert live["schema"] == 2
            assert live["stats"]["admission"]["max_inflight"] == 256
        finally:
            proc.terminate()
            assert proc.wait(timeout=10) == 0
        final = json.loads(path.read_text())
        assert final["schema"] == 2 and final["ts"] >= live["ts"]
