import io
import json
import math
import os
import tracemalloc

import pytest

from contactsim.cli import main
from contactsim.errors import ContactSimError
from contactsim.export import (
    CHUNK_ROWS,
    EVENT_COLUMNS,
    SAMPLE_COLUMNS,
    _event_row,
    _sample_row,
    export_plot,
    export_trajectory,
)
from contactsim.geometry import BodyState, Circle, body2d, body3d
from contactsim.scenarios import _REGISTRY, SCENARIO_NAMES, build_scenario
from contactsim.simulate import ContactEvent, SimConfig, Trajectory, run_scenario


# config documents that exit 1, each with the text its message must hold
MALFORMED_CONFIGS = [
    ('[1, 2]', "document"),
    ('{"solver": [1, 2]}', "solver"),
    ('{"solver": {"bogus": 1}}', "bogus"),
    ('{"solver": {"tol": "abc"}}', "solver.tol"),
    ('{"solver": {"max_iters": 1.5}}', "solver.max_iters"),
    ('{"solver": {"tol": Infinity}}', "solver.tol"),
    ('{"material": 5}', "material"),
    ('{"material": {"bogus": 1}}', "bogus"),
    ('{"gravity": 5}', "gravity"),
    ('{"gravity": [0, NaN]}', "gravity"),
    ('{"gravity": [0, 1e400]}', "gravity"),
    ('{"gravity": [0, 0, -9.81]}', "gravity"),
    ('{"bodies": 3}', "bodies"),
    ('{"dt": null}', "dt"),
    ('{"bodies": [{"orientation": [1, 0, 0, 0]}]}', "body 0"),
    ('{"bodies": [{"static": "no"}]}', "bodies[0].static"),
    ('{"bodies": [null, {"shape": {"type": "circle"}}]}', "radius"),
    ('{"bodies": [{"shape": {"type": [1]}}]}', "bodies[0].shape"),
    ('{"bodies": [null, {"shape": {"type": "sphere", "radius": 1}}]}',
     "body 1"),
    ('{"bodies": [{"position": [0, 1e400]}]}', "bodies[0].position"),
    ('{"bodies": [{"inertia": 0}]}', "inertia"),
    ('{"gravty": [0, -9.81]}', "gravty"),
    ('{"bodies": [{"positon": [5, 0]}]}', "positon"),
    ('{"duration": 0}', "duration"),
    ('{"duration": -1.0}', "duration"),
    ('{"solver": {"record_history": true}}', "record_history"),
]


@pytest.fixture(scope="module")
def short_run():
    return run_scenario("circle-circle", SimConfig(dt=1e-3, duration=0.8))


@pytest.fixture(scope="module")
def short_run_3d():
    return run_scenario("sphere-cuboid", SimConfig(dt=1e-3, duration=0.3))


class TestCsvExport:
    def test_header_and_row_count(self, short_run, tmp_path):
        out = tmp_path / "t.csv"
        export_trajectory(short_run, "csv", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SAMPLE_COLUMNS)
        assert lines[0] == "t,body_id,x,y,z,q0,q1,q2,q3,vx,vy,vz,wx,wy,wz"
        assert len(lines) == 1 + len(short_run.samples) * 2

    def test_events_sibling_file(self, short_run, tmp_path):
        out = tmp_path / "t.csv"
        export_trajectory(short_run, "csv", str(out))
        events = (tmp_path / "t.csv.events.csv").read_text().splitlines()
        assert events[0] == ",".join(EVENT_COLUMNS)
        assert events[0] == "t,pair,phi,rho,Fn,Ft,saturated"
        assert len(events) == 1 + len(short_run.events)
        assert all(row.split(",")[1] == "0-1" for row in events[1:])

    def test_empty_trajectory_writes_header_only(self, tmp_path):
        empty = Trajectory((), (), ())
        out = tmp_path / "empty.csv"
        export_trajectory(empty, "csv", str(out))
        assert out.read_text() == ",".join(SAMPLE_COLUMNS) + "\n"

    def test_planar_embedding_columns(self, short_run, tmp_path):
        out = tmp_path / "t.csv"
        export_trajectory(short_run, "csv", str(out))
        first = out.read_text().splitlines()[1].split(",")
        row = dict(zip(SAMPLE_COLUMNS, first))
        assert row["z"] == "0.0" and row["vz"] == "0.0"
        assert float(row["q0"]) == 1.0 and float(row["q3"]) == 0.0

    def test_rejects_unknown_format(self, short_run, tmp_path):
        with pytest.raises(ValueError):
            export_trajectory(short_run, "xml", str(tmp_path / "t.xml"))


def _reference_field(value) -> str:
    """The export's field rule: shortest round-trip floats, str otherwise."""
    return repr(value) if isinstance(value, float) else str(value)


def _reference_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_reference_field(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def _reference_samples_csv(trajectory) -> str:
    return _reference_csv(SAMPLE_COLUMNS, (
        _sample_row(t, body_id, state)
        for t, states in trajectory.samples
        for body_id, state in enumerate(states)))


def _reference_events_csv(trajectory) -> str:
    return _reference_csv(EVENT_COLUMNS,
                          (_event_row(event) for event in trajectory.events))


class TestCsvBytes:
    """The CSV writer's bytes equal the per-field rule over the row dicts."""

    @pytest.mark.parametrize("backend", ["sat", "co"])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenario_samples_match_reference_rule(self, name, backend, tmp_path):
        trajectory = run_scenario(name, SimConfig(backend=backend, duration=0.2))
        out = tmp_path / "t.csv"
        export_trajectory(trajectory, "csv", str(out))
        assert out.read_bytes() == _reference_samples_csv(trajectory).encode()
        events = tmp_path / "t.csv.events.csv"
        assert events.read_bytes() == _reference_events_csv(trajectory).encode()

    def test_events_match_reference_rule(self, short_run, tmp_path):
        assert short_run.events
        out = tmp_path / "t.csv"
        export_trajectory(short_run, "csv", str(out))
        events = tmp_path / "t.csv.events.csv"
        assert events.read_bytes() == _reference_events_csv(short_run).encode()

    def test_int_valued_fields_print_as_str_does(self, tmp_path):
        body = body2d((1, -2), velocity=(3, 0))
        assert body.position == (1, -2)  # ints are kept as given
        trajectory = Trajectory(((0, (body,)), (0.5, (body,))), (), (Circle(1.0),))
        out = tmp_path / "t.csv"
        export_trajectory(trajectory, "csv", str(out))
        text = out.read_text()
        assert text == _reference_samples_csv(trajectory)
        assert text.splitlines()[1].startswith("0,0,1,-2,0.0,1.0,")

    def test_rows_across_chunk_boundaries(self, tmp_path):
        # three bodies do not divide a chunk, so a chunk ends short of
        # CHUNK_ROWS rows, and the events fill more than two chunks
        floor = body2d((0.0, -1.0), 0.25, static=True)
        samples = [(k * 0.5, (floor, _planar(0.001 * k, (0.5, -0.1 * k), 0.0),
                              _planar(0.0, (0.25 * k, 0.0), 1.0 / (k + 1))))
                   for k in range(CHUNK_ROWS)]
        events = [ContactEvent(k * 0.5, (0, 1 + k % 2), -1.0 / (k + 1), 1.0 / (k + 1),
                               float(k), -0.5 * k, k % 3 == 0)
                  for k in range(2 * CHUNK_ROWS + 7)]
        trajectory = Trajectory(tuple(samples), tuple(events), ())
        out = tmp_path / "t.csv"
        export_trajectory(trajectory, "csv", str(out))
        assert out.read_bytes() == _reference_samples_csv(trajectory).encode()
        events_path = tmp_path / "t.csv.events.csv"
        assert events_path.read_bytes() == _reference_events_csv(trajectory).encode()


class _Tagged(float):
    """A float subclass that prints its own way, as every field must."""

    def __repr__(self):
        return f"tagged({float(self)!r})"


def _planar(angle, velocity, angular_velocity, position=(0.5, 1.5)):
    return BodyState(position, angle, velocity, angular_velocity, 1.0, 1.0)


class TestCsvReuse:
    """The writers reuse a body's text only where its bytes cannot differ.

    Each trajectory is hand-built so that consecutive rows repeat values
    whose text differs though they compare equal (0.0 and -0.0, 3 and 3.0,
    a float and a float subclass), or come back after a change; the bytes
    must equal the per-field rule over ``_sample_row`` and ``_event_row``.
    """

    def _assert_reference_bytes(self, tmp_path, samples, events=()):
        # the writers read no shape
        trajectory = Trajectory(tuple(samples), tuple(events), ())
        out = tmp_path / "t.csv"
        export_trajectory(trajectory, "csv", str(out))
        assert out.read_bytes() == _reference_samples_csv(trajectory).encode()
        events_path = tmp_path / "t.csv.events.csv"
        assert events_path.read_bytes() == _reference_events_csv(trajectory).encode()

    def test_static_body_next_to_a_moving_one(self, tmp_path):
        floor = body2d((0.0, -1.0), 0.25, static=True)
        samples = [(k * 0.5, (floor, _planar(0.0, (0.0, -0.5 * k), 0.0)))
                   for k in range(4)]
        self._assert_reference_bytes(tmp_path, samples)

    def test_planar_signed_zeros_flip_row_to_row(self, tmp_path):
        values = [(0.0, (0.0, 0.0), 0.0), (-0.0, (-0.0, 0.0), 0.0),
                  (0.0, (0.0, -0.0), -0.0), (-0.0, (-0.0, -0.0), -0.0),
                  (-0.0, (-0.0, -0.0), 0.0), (0.0, (0.0, 0.0), 0.0)]
        samples = [(0.25 * k, (_planar(*v),)) for k, v in enumerate(values)]
        self._assert_reference_bytes(tmp_path, samples)
        # a writer keyed on == would print the first row's zeros throughout
        text = (tmp_path / "t.csv").read_text().splitlines()
        assert text[2].split(",")[9] == "-0.0" and text[3].split(",")[10] == "-0.0"

    def test_values_that_change_and_come_back(self, tmp_path):
        a = (0.75, (1.5, 2.0), 0.125)
        b = (0.5, (1.25, 2.0), -0.125)
        samples = [(0.25 * k, (_planar(*v),)) for k, v in enumerate((a, b, a, a, b))]
        self._assert_reference_bytes(tmp_path, samples)

    def test_equal_values_of_another_type(self, tmp_path):
        values = [(0.0, (3, 0), 1), (0.0, (3.0, 0.0), 1.0), (0.0, (3, 0), 1),
                  (0.0, (_Tagged(3.0), 0.0), 1.0), (0.0, (3.0, 0.0), _Tagged(1.0)),
                  (0.0, (3.0, 0.0), 1.0)]
        samples = [(0.25 * k, (_planar(*v),)) for k, v in enumerate(values)]
        self._assert_reference_bytes(tmp_path, samples)

    def test_spatial_body(self, tmp_path):
        turned = (0.5, 0.5, 0.5, 0.5)
        values = [((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 0.0, 0.0)),
                  ((1.0, -0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, -0.0, 0.0)),
                  ((1.0, -0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, -0.0, 0.0)),
                  (turned, (0.0, 0.0, -1.5), (0.0, -0.0, 0.0)),
                  ((1.0, 0.0, 0.0, 0.0), (0, 0, -1), (0.0, 0.0, 0)),
                  ((1, 0, 0, 0), (0.0, 0.0, -1.0), (0.0, 0.0, 0.0))]
        floor = body3d((0.0, 0.0, -1.0), static=True)
        samples = [(0.25 * k, (floor, body3d((0.5, 1.5, -2.0), *v)))
                   for k, v in enumerate(values)]
        self._assert_reference_bytes(tmp_path, samples)

    def test_event_rho_against_phi(self, tmp_path):
        b = 0.1  # a shrink margin: a saturated co contact reads phi -b, rho b
        events = [ContactEvent(0.0, (0, 1), -0.003, 0.003, 1.5, -0.25, False),
                  ContactEvent(0.0, (0, 1), -0.25, 0.45, 2.0, 0.0, False),
                  ContactEvent(0.5, (0, 1), -b, b, 3.0, -0.0, True),
                  ContactEvent(0.5, (1, 2), -0.0, 0.0, 0.0, 0.0, False),
                  ContactEvent(0.5, (1, 2), -0.0, -0.0, 0.0, 0.0, False),
                  ContactEvent(0.75, (0, 2), 0.0, -0.0, 0.0, 0.0, False),
                  ContactEvent(0.75, (0, 2), 0.5, -0.5, 0.0, 0.0, False),
                  ContactEvent(0.75, (0, 2), -3, 3.0, 1.0, 1.0, False),
                  ContactEvent(1.0, (0, 2), -3.0, 3, 1.0, 1.0, False),
                  ContactEvent(1.0, (0, 2), -0.5, _Tagged(0.5), 1.0, 1.0, False),
                  ContactEvent(1.0, (0, 2), -1e300, 1e300, 1.0, 1.0, True)]
        samples = [(0.0, (body2d((0.0, 0.0)),) * 3)]
        self._assert_reference_bytes(tmp_path, samples, events)
        rows = (tmp_path / "t.csv.events.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows[:7]] == [
            "0.003", "0.45", "0.1", "0.0", "-0.0", "-0.0", "-0.5"]


class TestJsonExport:
    def test_round_trip_is_bit_exact(self, short_run, tmp_path):
        out = tmp_path / "t.json"
        export_trajectory(short_run, "json", str(out))
        loaded = json.loads(out.read_text())
        assert len(loaded["samples"]) == len(short_run.samples) * 2
        index = 0
        for t, states in short_run.samples:
            for body_id, state in enumerate(states):
                row = loaded["samples"][index]
                assert row["t"] == t
                assert row["body_id"] == body_id
                assert row["x"] == state.position[0]
                assert row["y"] == state.position[1]
                assert row["vx"] == state.velocity[0]
                assert row["wz"] == state.angular_velocity
                index += 1
        assert len(loaded["events"]) == len(short_run.events)
        for row, event in zip(loaded["events"], short_run.events):
            assert row["t"] == event.t
            assert row["rho"] == event.rho
            assert row["Fn"] == event.f_normal

    @pytest.mark.parametrize("run", ["short_run", "short_run_3d", None])
    def test_bytes_equal_json_dump_of_the_rows(self, run, request, tmp_path):
        trajectory = (request.getfixturevalue(run) if run
                      else Trajectory((), (), ()))
        out = tmp_path / "t.json"
        export_trajectory(trajectory, "json", str(out))
        reference = io.StringIO()
        json.dump({"samples": [_sample_row(t, body_id, state)
                               for t, states in trajectory.samples
                               for body_id, state in enumerate(states)],
                   "events": [_event_row(event) for event in trajectory.events]},
                  reference)
        assert out.read_bytes() == (reference.getvalue() + "\n").encode()


class TestStreamedExport:
    """An export is written in chunks, so its memory does not grow with the run."""

    # files of 2.2 MB (CSV) and 1.6 MB (JSON, whose rows are longer and
    # slower to trace); a writer that builds a file's whole text before
    # writing it peaks at more than twice the file's size
    @pytest.mark.parametrize("fmt, duration", [("csv", 12.0), ("json", 4.0)])
    def test_peak_memory_is_bounded(self, fmt, duration, tmp_path):
        trajectory = run_scenario("rect-circle", SimConfig(duration=duration))
        out = tmp_path / f"t.{fmt}"
        tracemalloc.start()
        try:
            export_trajectory(trajectory, fmt, str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 1_500_000
        assert peak < 1_000_000, f"{fmt} export peaked at {peak} bytes"

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device whose writes fail")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_names_the_path(self, short_run, fmt):
        with pytest.raises(ContactSimError, match="failed to write /dev/full"):
            export_trajectory(short_run, fmt, "/dev/full")


class TestSvgExport:
    def test_polyline_per_body_and_outlines(self, short_run, tmp_path):
        out = tmp_path / "t.svg"
        export_plot(short_run, str(out))
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert text.count("<circle") > 10

    def test_deterministic_bytes(self, short_run, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        export_plot(short_run, str(a))
        export_plot(short_run, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_three_dimensional_skipped_with_note(self, short_run_3d, tmp_path,
                                                 capsys):
        out = tmp_path / "t3.svg"
        export_plot(short_run_3d, str(out))
        assert "skipped" in capsys.readouterr().out
        assert not out.exists()


class TestCli:
    def test_simulate_happy_path(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["simulate", "--scenario", "rect-circle", "--backend", "sat",
                     "--dt", "0.001", "--duration", "0.5",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "run.csv.events.csv").exists()

    def test_unknown_scenario_is_usage_error(self, capsys):
        code = main(["simulate", "--scenario", "bogus", "--backend", "sat"])
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_summary_printed_without_out(self, capsys):
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     "sat", "--duration", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "samples" in out and "body 0" in out

    def test_plot_flag_writes_svg(self, tmp_path):
        svg = tmp_path / "run.svg"
        code = main(["simulate", "--scenario", "bouncing-circle", "--backend",
                     "sat", "--duration", "0.3", "--plot", str(svg)])
        assert code == 0
        assert svg.exists()

    def test_plot_skips_for_3d(self, tmp_path, capsys):
        svg = tmp_path / "run3.svg"
        code = main(["simulate", "--scenario", "sphere-cuboid", "--backend",
                     "sat", "--duration", "0.2", "--plot", str(svg)])
        assert code == 0
        assert "skipped" in capsys.readouterr().out

    def test_config_overrides_apply(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dt": 0.002,
            "duration": 0.2,
            "material": {"friction": 0.0},
            "bodies": [None, {"position": [3.0, 0.0]}],
        }))
        out = tmp_path / "run.csv"
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     "sat", "--config", str(config), "--out", str(out),
                     "--format", "json"])
        assert code == 0
        loaded = json.loads(out.read_text())
        assert loaded["samples"][1]["x"] == 3.0
        ts = sorted({row["t"] for row in loaded["samples"]})
        assert math.isclose(ts[1] - ts[0], 0.002, abs_tol=1e-15)

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # a box-box solve needs two iterations; the ball pairings read no
        # budget
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"solver": {"max_iters": 1}}))
        code = main(["simulate", "--scenario", "rect-rect", "--backend",
                     "co", "--duration", "1.0", "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert "in pair (0, 1) (co backend): solver did not converge after 1 " in err
        assert "on rect-rect" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_registry_document_as_config_exports_the_same_bytes(self, name,
                                                                 tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_REGISTRY[name]))
        outputs = []
        for extra in ([], ["--config", str(config)]):
            out = tmp_path / f"run{len(extra)}.csv"
            code = main(["simulate", "--scenario", name, "--backend", "sat",
                         "--out", str(out)] + extra)
            assert code == 0
            outputs.append((out.read_bytes(),
                            (tmp_path / f"{out.name}.events.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv, config", [
        (["--duration", "0.0001"], None),
        ([], {"duration": 0.0001}),
    ])
    def test_duration_shorter_than_a_step_runs_one_step(self, argv, config,
                                                        tmp_path, capsys):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     "sat"] + argv)
        assert code == 0
        assert "2 samples" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_duration_must_be_positive(self, value, capsys):
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     "sat", "--duration", value])
        assert code == 1
        assert "duration" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--duration", "--dt"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_flag_is_usage_error(self, flag, value, capsys):
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     "sat", flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--dt", "1e-300", "--duration", "1e10"],
        ["--dt", "1e-320"],
    ])
    def test_step_count_overflow_is_usage_error(self, argv, capsys):
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     "sat"] + argv)
        assert code == 1
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err

    def test_step_count_above_the_cap_is_usage_error(self, capsys):
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     "sat", "--dt", "1e-300"])
        assert code == 1
        err = capsys.readouterr().err
        assert "steps" in err and "Traceback" not in err

    def test_step_longer_than_scenario_duration_runs(self, capsys):
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     "sat", "--dt", "2.5"])
        assert code == 0
        assert "2 samples" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        '{"duration": 1e400}',
        '{"dt": 1e400}',
        '{"material": {"stiffness": 1e400}}',
        '{"material": {"damping": 1e400}}',
    ])
    def test_non_finite_config_is_usage_error(self, text, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(text)
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     "sat", "--config", str(config)])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["sat", "co"])
    @pytest.mark.parametrize("text, names", MALFORMED_CONFIGS)
    def test_malformed_config_is_usage_error(self, text, names, backend,
                                             tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(text)
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     backend, "--duration", "0.005", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("contactsim: ") and names in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, names", [
        (text, names) for text, names in MALFORMED_CONFIGS
        if isinstance(json.loads(text), dict)
        and not {"dt", "solver"} & set(json.loads(text))
    ])
    def test_library_rejects_what_the_cli_rejects(self, text, names):
        with pytest.raises(ValueError) as caught:
            build_scenario("circle-circle", json.loads(text))
        assert names in str(caught.value)

    @pytest.mark.parametrize("scenario, backend, document, body", [
        # a step of gravity pushes body 1's velocity, already near the float
        # maximum, past it, so the velocity ends in inf
        ("circle-circle", "sat", {"gravity": [0.0, 1.7e308], "bodies": [
            None, {"velocity": [0.0, 1.797e308]}]}, 1),
        # a step of spin turns the rectangle's angle inf, whose cosine the
        # next step cannot take
        ("rect-circle", "sat", {"bodies": [
            {"orientation": 1.797e308, "angular_velocity": 1e308}]}, 0),
        ("rect-circle", "co", {"bodies": [
            {"orientation": 1.797e308, "angular_velocity": 1e308}]}, 0),
    ])
    def test_diverged_run_is_runtime_error(self, scenario, backend, document,
                                           body, tmp_path, capsys):
        # finite inputs whose run leaves the float range
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        code = main(["simulate", "--scenario", scenario, "--backend", backend,
                     "--duration", "0.005", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"diverged: body {body}" in err and "t=0.001" in err
        assert f"({backend} backend)" in err and "Traceback" not in err

    def test_overflowing_contact_force_is_runtime_error(self, tmp_path, capsys):
        # a circle 1e120 deep inside a rectangle: the cubic force overflows
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bodies": [{"shape": {
            "type": "rectangle", "half_length": 1e120, "half_width": 1e120}}]}))
        code = main(["simulate", "--scenario", "rect-circle", "--backend", "sat",
                     "--duration", "0.005", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 2
        assert "overflow" in err and "Traceback" not in err

    @pytest.mark.parametrize("text, backend", [
        ('{"gravity": [1.0, 1.0, 1.3407807929942597e+159]}', "sat"),
        ('{"gravity": [1.0, 1.0, 1.3407807929942597e+159]}', "co"),
        ('{"bodies": [null, {"velocity": [1e300, 0, 0]}]}', "co"),
    ])
    def test_sphere_flung_off_the_slab_skips_the_narrow_phase(self, text, backend,
                                                              tmp_path, capsys):
        # the sphere's offset from the slab would square to inf in a
        # detector, but its box never meets the slab's, so none runs
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "run.csv"
        code = main(["simulate", "--scenario", "sphere-cuboid", "--backend",
                     backend, "--duration", "0.005", "--config", str(config),
                     "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 6
        assert all(math.isfinite(float(field))
                   for line in lines[1:] for field in line.split(","))
        assert (tmp_path / "run.csv.events.csv").read_text().count("\n") == 1

    @pytest.mark.parametrize("backend", ["sat", "co"])
    def test_overflowing_detection_names_the_pair(self, backend, tmp_path,
                                                  capsys):
        # the two overlapping circles' radii sum to a depth whose cube overflows
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bodies": [
            {"shape": {"type": "circle", "radius": 1e150}, "mass": 1e-250}] * 2}))
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     backend, "--duration", "0.005", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 2
        assert "diverged at t=0:" in err and "numerical overflow in pair (0, 1)" in err
        # co clamps the depth to its shrink margin, half the radius
        depth = {"sat": "2e+150", "co": "5e+149"}[backend]
        assert f"the cubic penalty force overflows at depth {depth} " in err
        assert "Traceback" not in err

    def test_singular_inertia_names_body_and_mass(self, tmp_path, capsys):
        # 0.4 * 1e-310 * 0.25**2 on the diagonal: the determinant underflows
        config = tmp_path / "config.json"
        config.write_text('{"bodies": [null, {"mass": 1e-310}]}')
        code = main(["simulate", "--scenario", "sphere-cuboid", "--backend",
                     "sat", "--duration", "0.5", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert "body 1" in err and "mass 1e-310" in err and "singular" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("body", [
        {"position": [-0.5, 0.0], "mass": 1e-310},  # 1 / mass is inf
        {"shape": {"type": "circle", "radius": 1e-160}, "mass": 1.0},  # 1 / inertia
    ])
    def test_planar_mass_without_a_finite_inverse_names_body_and_mass(
            self, body, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bodies": [None, body]}))
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     "sat", "--duration", "0.005", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"body 1: mass {body['mass']!r}" in err and "singular" in err
        assert "Traceback" not in err

    def test_unsupported_pairing_names_the_pair(self, tmp_path, capsys):
        # the two spheres never come near each other
        config = tmp_path / "config.json"
        config.write_text('{"bodies": [{"shape": {"type": "sphere", "radius": 0.5},'
                          ' "position": [10, 0, 0]}, null]}')
        code = main(["simulate", "--scenario", "sphere-cuboid", "--backend",
                     "sat", "--duration", "0.005", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 2
        assert "pair (0, 1)" in err and "Sphere-Sphere" in err

    @pytest.mark.parametrize("text, backend, code, names", [
        ('{"bodies": [null, {"angular_velocity": [1e300, 0, 0]}]}', "sat", 2,
         ("diverged at t=0:", "body 1", "normalized")),
        ('{"solver": {"shrink_margin": 5}}', "co", 1,
         ("pair (0, 1)", "shrink margin")),
    ])
    def test_diverged_3d_run_names_time_and_culprit(self, text, backend, code,
                                                     names, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert main(["simulate", "--scenario", "sphere-cuboid", "--backend",
                     backend, "--duration", "0.005", "--config",
                     str(config)]) == code
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert "Traceback" not in err

    def test_missing_config_file_is_runtime_error(self):
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     "sat", "--config", "/nonexistent/config.json"])
        assert code == 2

    def test_bench_structure(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["bench", "--repeat", "2", "--scenarios", "circle-circle",
                     "--backends", "sat,co", "--micro-calls", "500",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["repeat"] == 2
        assert len(report["rows"]) == 2
        assert {row["backend"] for row in report["rows"]} == {"sat", "co"}
        assert len(report["micro"]) == 8
        assert "environment" in report

    def test_bench_unknown_scenario_is_usage_error(self):
        assert main(["bench", "--scenarios", "nope", "--repeat", "1"]) == 1

    def test_bench_unknown_backend_is_usage_error(self, capsys):
        assert main(["bench", "--backends", "sat,nope", "--repeat", "1"]) == 1
        assert "unknown backend 'nope'" in capsys.readouterr().err

    def test_bench_negative_micro_calls_is_usage_error(self, capsys):
        assert main(["bench", "--scenarios", "circle-circle", "--backends",
                     "sat", "--repeat", "1", "--micro-calls", "-3"]) == 1
        assert "micro_calls" in capsys.readouterr().err

    def test_log_env_variable_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("CONTACTSIM_LOG", "debug")
        code = main(["simulate", "--scenario", "circle-circle", "--backend",
                     "sat", "--duration", "0.1"])
        assert code == 0
        assert "samples" in capsys.readouterr().out
