"""CLI surface: subcommands, exit codes, file outputs."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from overlaysim import cli, runtime
from overlaysim.cli import main
from overlaysim.errors import EmptyFeatureBufferError, TaskExecutionError
from overlaysim.tensors import TensorBuffer, new_buffer, write_tensor_text
from overlaysim.apps import (
    dominant_matrix,
    lu_overlay,
    random_input,
    tiny_config,
    vgg_overlay,
)


def run_cli(*argv):
    return main(list(argv))


class TestBuild:
    def test_lu_manifest(self, tmp_path):
        out = tmp_path / "lu.overlay.json"
        assert run_cli("build", "lu", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert [ip["queue"] for ip in doc["ips"]] == [0, 1, 2, 3]
        assert [ip["name"] for ip in doc["ips"]] == [
            "LU", "TransformRowPanel", "TransformColumnPanel", "GEMM"]

    def test_vgg_manifest(self, tmp_path):
        out = tmp_path / "vgg.overlay.json"
        assert run_cli("build", "vgg", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert [ip["queue"] for ip in doc["ips"]] == [0, 1]

    def test_unknown_app_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("build", "fft")
        assert exc.value.code == 2

    def test_default_manifest_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("build", "lu") == 0
        assert (tmp_path / "lu.overlay.json").exists()


class TestRunLu:
    def test_verify_passes(self, capsys):
        assert run_cli("run", "lu", "--n", "4", "--m", "8", "--seed", "1", "--verify") == 0
        out = capsys.readouterr().out
        assert "verify lu" in out and "PASS" in out

    def test_dump_identical_across_worker_counts_and_trace_flags(self, tmp_path):
        d1, d4 = tmp_path / "w1.txt", tmp_path / "w4.txt"
        assert run_cli("run", "lu", "--n", "4", "--m", "8", "--seed", "1",
                       "--workers", "1", "--dump", str(d1)) == 0
        assert run_cli("run", "lu", "--n", "4", "--m", "8", "--seed", "1",
                       "--workers", "4", "--dump", str(d4),
                       "--trace", str(tmp_path / "t.trace")) == 0
        assert d1.read_bytes() == d4.read_bytes()

    def test_input_file_round_trip(self, tmp_path):
        src = tmp_path / "a.txt"
        write_tensor_text(dominant_matrix(2, 3, seed=9), src)
        dump = tmp_path / "out.txt"
        assert run_cli("run", "lu", "--m", "3", "--input", str(src),
                       "--dump", str(dump), "--verify") == 0

    def test_verify_hands_the_oracle_the_unfactored_input(self, monkeypatch):
        seen = []
        real = cli.oracle_lu

        def recording(a):
            seen.append(a.copy())
            return real(a)

        monkeypatch.setattr(cli, "oracle_lu", recording)
        assert run_cli("run", "lu", "--n", "3", "--m", "4", "--seed", "2", "--verify") == 0
        assert len(seen) == 1
        assert seen[0].tobytes() == dominant_matrix(3, 4, seed=2).data.tobytes()

    def test_run_without_verify_keeps_no_copy_of_the_input(self):
        """The oracle's copy of the input is taken only under --verify: a
        plain run's traced peak stays below two matrices' worth."""
        matrix_bytes = 512 * 512 * 8
        run_cli("run", "lu", "--n", "2", "--m", "256")  # warm-up
        tracemalloc.start()
        try:
            assert run_cli("run", "lu", "--n", "2", "--m", "256") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * matrix_bytes

    def test_check_races_clean(self, capsys):
        assert run_cli("run", "lu", "--n", "2", "--m", "2", "--check-races") == 0
        assert "conflict report: empty" in capsys.readouterr().out

    def test_check_races_with_conflicts_exits_before_the_run(self, tmp_path, capsys,
                                                             monkeypatch):
        """Without the factor<-update rule the report lists the pairs, the run
        exits 1, and no task runs, so nothing is dumped."""
        real = cli.lu_generate_tasks

        def weakened(problem, overlay):
            tasks, rules = real(problem, overlay)
            return tasks, [r for r in rules if (r.dependent_kind, r.prerequisite_kind)
                           != ("factor", "update")]

        monkeypatch.setattr(cli, "lu_generate_tasks", weakened)
        dump = tmp_path / "out.txt"
        assert run_cli("run", "lu", "--n", "3", "--m", "2", "--check-races",
                       "--dump", str(dump)) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "conflict report: 7 unordered conflicting pair(s)"
        assert re.fullmatch(r"  tasks 3 and 4 touch buffer \d+ region \[2,4\) x \[2,4\) "
                            r"as read_write/read_write with no ordering", lines[1])
        assert len(lines) == 8
        assert not dump.exists()

    def test_failing_verify_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "oracle_lu", lambda a: np.zeros_like(a))
        assert run_cli("run", "lu", "--n", "2", "--m", "2", "--verify") == 1
        out = capsys.readouterr().out
        assert out.startswith("verify lu: ") and "FAIL" in out

    @pytest.mark.parametrize("flags", [(), ("--check-races",)])
    def test_conflict_check_runs_once(self, monkeypatch, flags):
        count = []
        real = runtime.check_dependence_sufficiency

        def counting(graph):
            count.append(1)
            return real(graph)

        monkeypatch.setattr(cli, "check_dependence_sufficiency", counting)
        monkeypatch.setattr(runtime, "check_dependence_sufficiency", counting)
        assert run_cli("run", "lu", "--n", "2", "--m", "2", *flags) == 0
        assert len(count) == 1

    def test_overlay_manifest_path(self, tmp_path):
        manifest = tmp_path / "lu.overlay.json"
        assert run_cli("build", "lu", "--out", str(manifest)) == 0
        assert run_cli("run", "lu", "--n", "2", "--m", "2",
                       "--overlay", str(manifest), "--verify") == 0

    def test_mistyped_manifest_is_parse_failure(self, tmp_path, capsys):
        manifest = tmp_path / "lu.overlay.json"
        assert run_cli("build", "lu", "--out", str(manifest)) == 0
        good = json.loads(manifest.read_text())
        for field, value in (("queue", False), ("queue", 2.9), ("name", ["LU"]),
                             ("signature", 5)):
            doc = json.loads(json.dumps(good))
            doc["ips"][0][field] = value
            manifest.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run_cli("run", "lu", "--n", "2", "--m", "2",
                           "--overlay", str(manifest), "--verify") == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {manifest}: malformed ip entry")
            assert "Traceback" not in captured.err
            assert "PASS" not in captured.out

    def test_misaligned_input_fails(self, tmp_path):
        src = tmp_path / "a.txt"
        write_tensor_text(dominant_matrix(2, 3, seed=9), src)
        assert run_cli("run", "lu", "--m", "4", "--input", str(src)) == 1

    def test_kernel_failure_exits_one(self, tmp_path, capsys):
        src = tmp_path / "singular.txt"
        from overlaysim.tensors import new_buffer
        write_tensor_text(new_buffer([4, 4]), src)  # all zeros: singular pivot
        assert run_cli("run", "lu", "--m", "2", "--input", str(src)) == 1
        assert "failed" in capsys.readouterr().err

    def test_precision_f32(self, tmp_path):
        assert run_cli("run", "lu", "--n", "2", "--m", "4",
                       "--precision", "f32", "--verify") == 0

    def test_bad_sizes_are_usage_errors(self):
        assert run_cli("run", "lu", "--n", "0", "--m", "2") == 2
        assert run_cli("run", "lu", "--workers", "0") == 2

    def test_unsafe_is_not_a_run_flag(self, capsys):
        """Every graph the CLI builds has an empty conflict report, so run
        has no flag to skip the check."""
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "lu", "--unsafe")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --unsafe" in err
        assert "Traceback" not in err

    def test_manifest_swapping_the_panel_queues_fails_at_enqueue(self, tmp_path, capsys):
        manifest = tmp_path / "lu.overlay.json"
        assert run_cli("build", "lu", "--out", str(manifest)) == 0
        doc = json.loads(manifest.read_text())
        doc["ips"][1]["queue"], doc["ips"][2]["queue"] = 2, 1
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", "lu", "--n", "3", "--m", "2", "--overlay", str(manifest)) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: transform_column_panel: panel must be (k*m) x m "
                                "with k >= 2, got (2, 6)\n")
        assert captured.out == ""


@pytest.mark.parametrize("app", ["lu", "vgg"])
def test_negative_seed_is_usage_error(app, capsys):
    """Refused before numpy's generator sees it, with one line and no traceback."""
    assert run_cli("run", app, "--seed", "-1") == 2
    assert capsys.readouterr().err == "seed must be >= 0, got -1\n"


class TestTaskFailureReport:
    """A failed task's error names what its body raised, its iteration and
    the regions it writes; str(exc) and the exit code stay as they were."""

    def test_singular_pivot_names_the_block(self, tmp_path, capsys):
        a = 10 * np.eye(8)
        a[5, 5] = 0.0  # the second pivot of block (2, 2): rows and columns [4, 6)
        src = tmp_path / "pivot.txt"
        write_tensor_text(TensorBuffer(a), src)
        assert run_cli("run", "lu", "--m", "2", "--input", str(src)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[:3] == [
            "error: task 8 (factor) failed",
            "  cause: SingularPivotError: singular pivot at index 1 (|0.0| below threshold)",
            "  iteration: 2"]
        assert re.fullmatch(r"  writes: buffer \d+ region \[4,6\) x \[4,6\)", lines[3])
        assert len(lines) == 4

    def test_non_finite_gemm_coefficient_fails_its_task(self, capsys):
        """enqueue stores any float; the GEMM body checks the coefficients
        before it touches C."""
        overlay = lu_overlay()
        c = new_buffer([2, 2], fill=1.0)
        ones = [new_buffer([2, 2], fill=1.0).view() for _ in range(2)]
        task = overlay.enqueue(3, [c.view(), *ones, 1.0, float("inf"), 1.0], 4)
        with pytest.raises(TaskExecutionError) as exc:
            runtime.run(overlay, runtime.build_task_graph([task], []))
        assert str(exc.value) == f"task {task.id} (GEMM) failed"
        assert type(exc.value.__cause__) is ValueError
        assert (exc.value.iteration, exc.value.access_sets) == (4, task.access_sets)
        np.testing.assert_array_equal(c.data, np.ones((2, 2)))
        cli._print_failure(exc.value)
        assert capsys.readouterr().err.splitlines() == [
            "  cause: ValueError: coefficient beta must be finite",
            "  iteration: 4",
            f"  writes: buffer {c.id} region [0,2) x [0,2)"]

    def test_maxpool_on_an_empty_feature_buffer_names_the_slot(self, capsys):
        overlay = vgg_overlay()
        task = overlay.enqueue(1, [new_buffer([2, 2, 1]).view(), True], 0, kind="pool")
        with pytest.raises(TaskExecutionError) as exc:
            runtime.run(overlay, runtime.build_task_graph([task], []))
        assert type(exc.value.__cause__) is EmptyFeatureBufferError
        cli._print_failure(exc.value)
        assert capsys.readouterr().err.splitlines() == [
            "  cause: EmptyFeatureBufferError: maxpool reads the feature buffer, which is empty",
            "  iteration: 0",
            f"  writes: buffer {overlay.feature_buffer.cell.buffer.id} region [0,1)"]


class TestRunVgg:
    def test_verify_and_trace_record_count(self, tmp_path):
        trace = tmp_path / "t.trace"
        assert run_cli("run", "vgg", "--scale", "tiny", "--seed", "3",
                       "--verify", "--trace", str(trace)) == 0
        lines = [ln for ln in trace.read_text().splitlines() if ln.strip()]
        assert len(lines) == 21 + 1  # records plus the edges line

    def test_batch_scales_records(self, tmp_path):
        trace = tmp_path / "t.trace"
        assert run_cli("run", "vgg", "--batch", "2", "--seed", "3",
                       "--trace", str(trace), "--verify") == 0
        records = [ln for ln in trace.read_text().splitlines() if '"edges"' not in ln]
        assert len(records) == 42

    def test_dump_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli("run", "vgg", "--seed", "5", "--workers", "1", "--dump", str(d1)) == 0
        assert run_cli("run", "vgg", "--seed", "5", "--workers", "4", "--dump", str(d2)) == 0
        assert d1.read_bytes() == d2.read_bytes()

    @pytest.mark.parametrize("precision, dtype", [("f32", np.float32), ("f64", np.float64)])
    def test_input_file_gives_the_seeded_default_inputs_result(self, tmp_path, precision,
                                                               dtype):
        """--input with the seeded default input, written out, dumps the bytes
        of the run without --input at the same seed."""
        src = tmp_path / "x.txt"
        write_tensor_text(random_input(tiny_config(2), 4, dtype=dtype), src)
        seeded, from_file = tmp_path / "seeded.txt", tmp_path / "from_file.txt"
        common = ("run", "vgg", "--batch", "2", "--seed", "4", "--precision", precision)
        assert run_cli(*common, "--dump", str(seeded)) == 0
        assert run_cli(*common, "--input", str(src), "--dump", str(from_file)) == 0
        assert from_file.read_bytes() == seeded.read_bytes()

    def test_small_scale_runs(self):
        assert run_cli("run", "vgg", "--scale", "small", "--batch", "2",
                       "--workers", "2", "--check-races") == 0


class TestInspect:
    def test_serial_run_keeps_one_worker_fully_busy(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        assert run_cli("run", "lu", "--n", "3", "--m", "2", "--workers", "1",
                       "--trace", str(trace)) == 0
        capsys.readouterr()
        assert run_cli("inspect-trace", str(trace)) == 0
        out = capsys.readouterr().out
        assert "9 tasks" in out
        assert "worker 0: busy 9 (100.0% of span)" in out
        # the longest chain of edges is shorter than the serial span
        assert "critical path: 7 virtual time units" in out.splitlines()
        assert "validation OK" in out

    def test_critical_path_of_a_diamond(self, tmp_path, capsys):
        """Edges 0->1, 0->2, 1->3 and 2->3 with durations 1, 5, 2 and 1: the
        longest path runs through task 1, 1 + 5 + 1."""
        trace = tmp_path / "diamond.trace"
        trace.write_text(
            '{"id": 0, "kind": "a", "iter": 0, "queue": 0, "vstart": 0, "vend": 1, "worker": 0}\n'
            '{"id": 1, "kind": "b", "iter": 0, "queue": 1, "vstart": 1, "vend": 6, "worker": 0}\n'
            '{"id": 2, "kind": "c", "iter": 0, "queue": 2, "vstart": 1, "vend": 3, "worker": 1}\n'
            '{"id": 3, "kind": "d", "iter": 0, "queue": 3, "vstart": 6, "vend": 7, "worker": 0}\n'
            '{"edges": [[0, 1], [0, 2], [1, 3], [2, 3]]}\n')
        assert run_cli("inspect-trace", str(trace)) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "4 tasks, 4 edges, virtual span [0, 7)"
        assert "critical path: 7 virtual time units" in out
        assert out[-1].startswith("validation OK")

    def test_corrupted_trace_fails_validation(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        assert run_cli("run", "lu", "--n", "2", "--m", "2", "--trace", str(trace)) == 0
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["vstart"], rec["vend"] = rec["vend"], rec["vstart"]
        lines[0] = json.dumps(rec)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("inspect-trace", str(trace)) == 1
        assert "validation FAILED" in capsys.readouterr().out

    def test_worker_slot_overlap_fails_validation(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        trace.write_text(
            '{"id": 0, "kind": "a", "iter": 0, "queue": 0, "vstart": 0, "vend": 10, "worker": 0}\n'
            '{"id": 1, "kind": "b", "iter": 0, "queue": 1, "vstart": 5, "vend": 8, "worker": 0}\n'
            '{"edges": []}\n')
        assert run_cli("inspect-trace", str(trace)) == 1
        out = capsys.readouterr().out
        assert "validation FAILED" in out
        assert "worker 0: tasks 0 and 1 overlap in virtual time" in out

    def test_zero_length_records_fail_validation(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        trace.write_text(
            '{"id": 0, "kind": "a", "iter": 0, "queue": 0, "vstart": 5, "vend": 5, "worker": 0}\n'
            '{"id": 1, "kind": "b", "iter": 0, "queue": 0, "vstart": 5, "vend": 5, "worker": 0}\n'
            '{"edges": []}\n')
        assert run_cli("inspect-trace", str(trace)) == 1
        out = capsys.readouterr().out
        assert "validation FAILED (2 problem(s))" in out
        assert "task 1: zero length at vstart 5" in out

    def test_boolean_fields_are_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bool.trace"
        bad.write_text(
            '{"id": true, "kind": "a", "iter": 0, "queue": 0, "vstart": 0, "vend": 1, '
            '"worker": false}\n{"edges": []}\n')
        assert run_cli("inspect-trace", str(bad)) == 1
        captured = capsys.readouterr()
        assert f"{bad}:1: record field types do not match schema" in captured.err
        assert "validation OK" not in captured.out

    def test_malformed_trace_is_parse_failure(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("not json at all\n")
        assert run_cli("inspect-trace", str(bad)) == 1

    def test_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.trace"
        empty.write_text("")
        assert run_cli("inspect-trace", str(empty)) == 0
        assert "empty trace" in capsys.readouterr().out

    def test_edges_without_records_fail_validation(self, tmp_path, capsys):
        trace = tmp_path / "edges.trace"
        trace.write_text('{"edges": [[0, 1]]}\n')
        assert run_cli("inspect-trace", str(trace)) == 1
        out = capsys.readouterr().out
        assert "empty trace" not in out
        assert "validation FAILED" in out
        assert "edge (0, 1) references an unknown task" in out


LU_2x2 = ["run", "lu", "--n", "2", "--m", "2"]


class TestFileErrors:
    """A file the CLI cannot open, create or decode ends the run with one
    error line naming it, and exit 1."""

    @pytest.mark.parametrize("argv", [
        LU_2x2 + ["--overlay", "{missing}"],
        ["run", "lu", "--m", "2", "--input", "{missing}"],
        ["inspect-trace", "{missing}"],
        LU_2x2 + ["--dump", "{missing}/result.txt"],
        LU_2x2 + ["--trace", "{missing}/run.trace"],
        LU_2x2 + ["--overlay", "{undecodable}"],
        ["run", "lu", "--m", "2", "--input", "{undecodable}"],
        ["inspect-trace", "{undecodable}"],
    ], ids=["missing-overlay", "missing-input", "missing-trace", "dump-into-missing-dir",
            "trace-into-missing-dir", "undecodable-overlay", "undecodable-input",
            "undecodable-trace"])
    def test_one_error_line(self, tmp_path, capsys, argv):
        undecodable = tmp_path / "undecodable"
        undecodable.write_bytes(b"dims 2 2 2\n1.0 2.0\n3.0 \xff\n")  # 0xff is never UTF-8
        paths = {"missing": tmp_path / "missing", "undecodable": undecodable}
        assert run_cli(*(arg.format(**paths) for arg in argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert str(tmp_path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("header, message", [
        ("dims two 2 2", "malformed dims header"),
        ("dims 3 2 2", "dims header shorter than declared rank 3"),
        # the header is line 1 alone: the next line's 4 is not its second extent
        ("dims 2 4\n4 10 0 0 0 0 10 0 0 0 0 10 0 0 0 0 10",
         "dims header shorter than declared rank 2"),
    ], ids=["rank-not-an-integer", "short-header", "header-split-over-two-lines"])
    def test_bad_dims_header(self, tmp_path, capsys, header, message):
        src = tmp_path / "a.txt"
        src.write_text(header + "\n")
        assert run_cli("run", "lu", "--m", "2", "--input", str(src)) == 1
        assert capsys.readouterr().err == f"error: {src}: {message}\n"
