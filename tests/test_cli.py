"""Command-line behavior: parsing, output formats, exit codes."""
import argparse
import dataclasses
import errno
import json
import math
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcorr import channels, cli
from qcorr.channels import (
    ChannelSpec,
    analytic_evolve,
    apply_pauli_channel,
    integrate_rk4,
    kraus_apply,
)
from qcorr.cli import (
    DEFAULT_RK4_STEPS,
    MAX_RK4_STEPS,
    MAX_SWEEP_POINTS,
    MAX_TIME_POINTS,
    build_parser,
    main,
    parse_angle,
)
from qcorr.dynamics import SweepGrid, sweep
from qcorr.measures import MEASURE_NAMES, OptimizerSettings
from qcorr.states import initial_state, make_params, state_from_json, state_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_angle_tokens():
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/8") == pytest.approx(math.pi / 8)
    assert parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
    assert parse_angle("0.5*pi") == pytest.approx(math.pi / 2)
    assert parse_angle("1.25") == 1.25
    assert parse_angle("-pi/4") == pytest.approx(-math.pi / 4)
    assert parse_angle("+3pi/4") == pytest.approx(3 * math.pi / 4)
    assert parse_angle("-0.5*pi") == pytest.approx(-math.pi / 2)
    assert parse_angle("2e-1pi") == pytest.approx(0.2 * math.pi)
    assert parse_angle("-0.7") == -0.7
    assert parse_angle("1e-3") == 1e-3
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("two")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("pi/0")


def test_state_json_payload(capsys):
    code, out = run(capsys, "state", "--theta", "pi/4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["eta"] == pytest.approx(0.125)
    assert payload["xi"] == pytest.approx(0.375)
    assert payload["q"] == pytest.approx(0.5)
    m = payload["measures"]
    assert m["concurrence"]["closed"] == pytest.approx(0.5)
    assert m["concurrence"]["oracle"] == pytest.approx(0.5, abs=1e-9)
    assert m["quantum_discord"]["closed"] == pytest.approx(0.18872187554086717)
    # serialized matrix round-trips to the family member
    re = np.array(payload["state"]["re"]).reshape(4, 4)
    assert re[0, 0] == pytest.approx(0.125)
    assert re[1, 2] == pytest.approx(-0.375)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("state_pi_4.txt", ["state", "--theta", "pi/4"]),
        ("state_pi_4.json", ["state", "--theta", "pi/4", "--json"]),
        ("evolve_z_check.txt", ["evolve", "--theta", "pi/4", "--axis", "z", "--time", "0.5", "--check"]),
        ("evolve_z_check.json",
         ["evolve", "--theta", "pi/4", "--axis", "z", "--time", "0.5", "--check", "--json"]),
    ],
)
def test_state_and_evolve_output_golden(capsys, golden, argv):
    # byte for byte, JSON key order included
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("sweep_oracle.json",
         ["sweep", "--thetas", "pi/8,pi/2", "--times", "0,0.5", "--axes", "x,y",
          "--measures", "concurrence,geometric_discord", "--oracle", "--json"]),
        ("deathtime_esd.json", ["deathtime", "--theta", "pi/4", "--axis", "z", "--json"]),
        ("deathtime_asymptotic.json", ["deathtime", "--theta", "pi/4", "--axis", "y", "--json"]),
        ("deathtime_none.json", ["deathtime", "--theta", "pi/2", "--axis", "y", "--json"]),
        ("deathtime_half_life.json",
         ["deathtime", "--theta", "pi/4", "--axis", "y", "--measure", "geometric_discord",
          "--json"]),
    ],
)
def test_sweep_and_deathtime_json_golden(capsys, golden, argv):
    # byte for byte, JSON key order included
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_negative_angle_joined_to_its_option(capsys):
    code, out = run(capsys, "state", "--theta=-pi/4", "--json", "--measures", "concurrence")
    assert code == 0
    assert json.loads(out)["theta"] == pytest.approx(-math.pi / 4)


def test_state_degrees_flag(capsys):
    code, out = run(capsys, "state", "--theta", "45", "--degrees", "--json")
    assert code == 0
    assert json.loads(out)["theta"] == pytest.approx(math.pi / 4)


@pytest.mark.parametrize("token", ["pi/4", "0.25*pi", "-pi/4"])
def test_state_degrees_rejects_a_pi_token(capsys, token):
    # a pi token is already in radians; converting it again would be silent
    with pytest.raises(SystemExit) as err:
        main(["state", f"--theta={token}", "--degrees"])
    assert err.value.code == 2
    assert "--degrees" in capsys.readouterr().err


def test_state_text_output(capsys):
    code, out = run(capsys, "state", "--theta", "pi/3", "--measures", "concurrence")
    assert code == 0
    assert "eta = 0.1875" in out
    assert "concurrence" in out


def test_evolve_rk4_agrees_with_kraus(capsys):
    base = ["evolve", "--theta", "pi/5", "--axis", "x", "--time", "1.2", "--json",
            "--measures", "concurrence"]
    _, out_k = run(capsys, *base)
    _, out_r = run(capsys, *base, "--method", "rk4", "--steps", "800")
    mk = json.loads(out_k)["state"]["re"]
    mr = json.loads(out_r)["state"]["re"]
    assert np.abs(np.array(mk) - np.array(mr)).max() < 1e-8


def test_evolve_reports_gamma_t(capsys):
    code, out = run(capsys, "evolve", "--theta", "pi/4", "--axis", "z", "--time", "0.5",
                    "--gamma", "2", "--json", "--measures", "concurrence")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_t"] == pytest.approx(1.0)
    assert payload["measures"]["concurrence"]["closed"] == pytest.approx(
        payload["measures"]["concurrence"]["oracle"], abs=1e-9
    )


def test_evolve_check_footer(capsys):
    code, out = run(capsys, "evolve", "--theta", "pi/4", "--channel", "z", "--t", "0.5",
                    "--method", "rk4", "--steps", "600", "--check",
                    "--measures", "concurrence")
    assert code == 0
    footer = out.strip().splitlines()[-1]
    assert footer.startswith("check: max deviation vs analytic")
    assert footer.endswith("-> ok")
    code, out = run(capsys, "evolve", "--theta", "pi/4", "--axis", "z", "--time", "0.5",
                    "--method", "analytic", "--check", "--json",
                    "--measures", "concurrence")
    assert code == 0
    check = json.loads(out)["check"]
    assert check["reference"] == "kraus" and check["passed"]
    assert check["max_deviation"] <= 1e-14


@pytest.mark.parametrize("method, reference, tolerance", [
    ("kraus", "analytic", 1e-13),
    ("analytic", "kraus", 1e-13),
    ("rk4", "analytic", 1e-8),
])
def test_evolve_method_routes_and_check_references(capsys, method, reference, tolerance):
    code, out = run(capsys, "evolve", "--theta", "0.9", "--axis", "x", "--time", "0.7",
                    "--noisy-qubit", "A", "--method", method, "--check", "--json",
                    "--measures", "concurrence")
    assert code == 0
    payload = json.loads(out)
    params, channel = make_params(0.9), ChannelSpec(axis="x", qubit="A")
    rho0 = initial_state(params)
    expected = {
        "kraus": lambda: kraus_apply(rho0, channel, 0.7),
        "analytic": lambda: analytic_evolve(params, channel, 0.7),
        "rk4": lambda: integrate_rk4(rho0, channel, 0.7, steps=DEFAULT_RK4_STEPS),
    }[method]()
    assert payload["method"] == method
    assert payload["state"] == state_to_json(expected)
    check = payload["check"]
    assert (check["reference"], check["tolerance"], check["passed"]) == (reference, tolerance, True)


def test_sweep_csv_format(capsys):
    code, out = run(capsys, "sweep", "--thetas", "pi/8,pi/4", "--times", "0:1:0.5",
                    "--axes", "x", "--measures", "concurrence")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "channel,measure,theta,gamma_t,value_closed,value_oracle"
    assert len(lines) == 1 + 2 * 3  # two thetas, three times from the range
    # oracle column stays empty without --oracle
    assert lines[1].endswith(",")
    assert lines[1].startswith("x,concurrence,")


GOLDEN_SWEEP = """\
channel,measure,theta,gamma_t,value_closed,value_oracle
x,concurrence,0.392699,0,0.853553,
x,concurrence,0.392699,0.5,0.267719,
x,concurrence,1.5708,0,0,
x,concurrence,1.5708,0.5,0,
y,concurrence,0.392699,0,0.853553,
y,concurrence,0.392699,0.5,0.314005,
y,concurrence,1.5708,0,0,
y,concurrence,1.5708,0.5,0,
x,quantum_discord,0.392699,0,0.622161,
x,quantum_discord,0.392699,0.5,0.0999544,
x,quantum_discord,1.5708,0,0,
x,quantum_discord,1.5708,0.5,0,
y,quantum_discord,0.392699,0,0.622161,
y,quantum_discord,0.392699,0.5,0.0723416,
y,quantum_discord,1.5708,0,0,
y,quantum_discord,1.5708,0.5,0,
"""


def test_sweep_csv_golden(capsys):
    code, out = run(capsys, "sweep", "--thetas", "pi/8,pi/2", "--times", "0,0.5", "--axes", "x,y",
                    "--measures", "concurrence,quantum_discord", "--precision", "6")
    assert code == 0
    assert out == GOLDEN_SWEEP
    code, out = run(capsys, "sweep", "--thetas", "0.3", "--times", "0,1.5", "--axes", "z",
                    "--measures", "geometric_discord", "--oracle", "--precision", "6")
    assert out.splitlines()[1:] == [
        "z,geometric_discord,0.3,0,0.416481,0.416481",
        "z,geometric_discord,0.3,1.5,0.00113586,0.00113586",
    ]
    code, out = run(capsys, "sweep", "--thetas", "pi/7", "--times", "0.1", "--axes", "y",
                    "--measures", "mutual_information", "--precision", "17")
    theta, gamma_t, value = out.splitlines()[1].split(",")[2:5]
    assert (theta, gamma_t) == ("0.44879895051282759", "0.10000000000000001")
    assert float(value) == pytest.approx(1.347584383270402, abs=1e-14)


def test_sweep_tmax_tsteps_grid(capsys):
    code, out = run(capsys, "sweep", "--thetas", "pi/8,pi/4,3pi/8", "--channel", "y",
                    "--measures", "concurrence", "--tmax", "3", "--tsteps", "61")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3 * 61
    # y noise never kills the entanglement on this family
    values = [float(line.split(",")[4]) for line in lines[1:]]
    assert min(values) > 0.0


@pytest.mark.parametrize("tmax, tsteps", [(0.1, 4), (1e308, 3)])
def test_sweep_tmax_grid_ends_at_tmax(capsys, tmax, tsteps):
    # T k/(N - 1) ended at 0.10000000000000002 and overflowed to inf at 1e308
    code, out = run(capsys, "sweep", "--thetas", "pi/4", "--axes", "z", "--measures",
                    "concurrence", "--tmax", repr(tmax), "--tsteps", str(tsteps),
                    "--precision", "17")
    assert code == 0
    gamma_ts = [float(line.split(",")[3]) for line in out.strip().splitlines()[1:]]
    assert len(gamma_ts) == tsteps
    assert gamma_ts[0] == 0.0 and gamma_ts[-1] == tmax


@pytest.mark.parametrize("times, count, stop", [("0:0.3:0.1", 4, 0.3), ("0:0.7:0.1", 8, 0.7)])
def test_sweep_time_range_ends_at_stop(capsys, times, count, stop):
    # start + k step ended at 0.30000000000000004 and 0.7000000000000001
    code, out = run(capsys, "sweep", "--thetas", "pi/4", "--axes", "z", "--measures",
                    "concurrence", "--times", times, "--precision", "17")
    assert code == 0
    gamma_ts = [float(line.split(",")[3]) for line in out.strip().splitlines()[1:]]
    assert len(gamma_ts) == count
    assert gamma_ts[0] == 0.0 and gamma_ts[-1] == stop
    assert gamma_ts == sorted(gamma_ts)


def test_time_range_short_of_a_whole_step_keeps_its_last_point():
    # 1/0.3 is not a whole number of steps, so the range stops short of 1
    assert cli._time_list("0:1:0.3") == [0.0, 0.3, 0.6, 0.3 * 3]


def test_sweep_time_flags_are_exclusive():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--thetas", "pi/4", "--times", "0,1", "--tmax", "2", "--tsteps", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--thetas", "pi/4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--thetas", "pi/4", "--tsteps", "5"])
    assert exc.value.code == 2


def test_sweep_oracle_column_filled(capsys):
    code, out = run(capsys, "sweep", "--thetas", "pi/4", "--times", "0.5",
                    "--axes", "z", "--measures", "concurrence", "--oracle")
    lines = out.strip().splitlines()
    closed, oracle = lines[1].split(",")[4:6]
    assert abs(float(closed) - float(oracle)) < 1e-9


def test_sweep_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _ = run(capsys, "sweep", "--thetas", "pi/4", "--times", "0,1",
                  "--axes", "y", "--measures", "geometric_discord", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("channel,measure")
    assert len(lines) == 3


def test_sweep_json_is_written_in_flat_memory(tmp_path):
    # 3 axes x 20 thetas x 50 times, all five measures: 15,000 rows, about
    # 2.8 MB of JSON; one json.dumps of every row peaked near 24 MB
    target = tmp_path / "rows.json"
    thetas = ",".join(repr(0.1 + 0.15 * k) for k in range(20))
    argv = ["sweep", "--thetas", thetas, "--tmax", "3", "--tsteps", "50",
            "--measures", "all", "--json", "--out", str(target)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    # the bytes of one json.dumps over every row, across many blocks
    table = sweep(SweepGrid(tuple(0.1 + 0.15 * k for k in range(20)),
                            tuple(3.0 * (k / 49) for k in range(50))), measures=MEASURE_NAMES)
    rows = [dataclasses.asdict(r) for r in table]
    assert len(rows) == 15_000
    assert target.read_text(encoding="utf-8") == json.dumps(rows, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_memory_is_flat_in_the_number_of_times(fmt):
    # one theta, one axis and 20,000 times: the sweep itself peaks near
    # 4.4 MB and the whole call at 5.2 MB in both formats, where a writer
    # that formats a whole (measure, axis, theta) block at once peaked at
    # 6.7 MB (CSV) and 16.2 MB (JSON)
    argv = ["sweep", "--thetas", "pi/4", "--axes", "z", "--tmax", "3", "--tsteps", "20000",
            "--out", os.devnull] + (["--json"] if fmt == "json" else [])
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


def test_failing_command_leaves_an_existing_out_file_as_it_was(tmp_path, capsys):
    target = tmp_path / "keep.txt"
    target.write_text("kept text\nsecond line\n")
    code = main(["sweep", "--thetas", "pi/4", "--times", "nan", "--out", str(target)])
    assert code == 3
    assert "sweep times must be >= 0" in capsys.readouterr().err
    assert target.read_text() == "kept text\nsecond line\n"


def test_failing_command_leaves_no_new_out_file(tmp_path, capsys):
    target = tmp_path / "new.txt"
    code = main(["sweep", "--thetas", "pi/4", "--times", "nan", "--out", str(target)])
    assert code == 3
    assert "sweep times must be >= 0" in capsys.readouterr().err
    assert not os.path.lexists(target)


def test_out_file_is_replaced_not_appended_to(tmp_path, capsys):
    argv = ("sweep", "--thetas", "pi/4", "--times", "0,1", "--axes", "x",
            "--measures", "concurrence")
    _, want = run(capsys, *argv)
    target = tmp_path / "rows.csv"
    target.write_text("stale\n" * 1000)
    for _ in range(2):
        code, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0
        assert target.read_text() == want


def test_out_device_is_written_without_emptying(capsys):
    code, _ = run(capsys, "state", "--theta", "pi/4", "--measures", "concurrence",
                  "--out", os.devnull)
    assert code == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_out_device_exits_3_with_one_error_line(capsys):
    code = main(["sweep", "--thetas", "pi/4", "--times", "0,1", "--out", "/dev/full"])
    assert code == 3
    assert capsys.readouterr().err == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


def test_write_error_removes_the_out_file_it_created(tmp_path, monkeypatch, capsys):
    def full(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli._OutFile, "write", full)
    target = tmp_path / "new.csv"
    assert main(["sweep", "--thetas", "pi/4", "--times", "0,1", "--out", str(target)]) == 3
    assert capsys.readouterr().err == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    assert not os.path.lexists(target)


def test_closed_stdout_pipe_exits_3_and_points_stdout_at_devnull(tmp_path, monkeypatch, capsys):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as held:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(held.fileno()))
        code = main(["sweep", "--thetas", "pi/4", "--times", "0,1"])
        # what stdout still holds would be flushed to devnull at exit
        assert os.path.samestat(os.fstat(held.fileno()), os.stat(os.devnull))
    assert code == 3
    assert capsys.readouterr().err == f"error: cannot write output: {os.strerror(errno.EPIPE)}\n"


def _reference_sweep(table, precision, kind):
    """The sweep output written one value and one row at a time (CSV), or
    by one json.dumps over every row (JSON)."""
    if kind == "json":
        return json.dumps([dataclasses.asdict(r) for r in table], indent=2) + "\n"
    fmt = f"%.{precision}g"
    lines = ["channel,measure,theta,gamma_t,value_closed,value_oracle"]
    for m, measure in enumerate(table.measures):
        for a, axis in enumerate(table.axes):
            for i, theta in enumerate(table.thetas):
                for k, gamma_t in enumerate(table.gamma_ts):
                    closed = fmt % float(table.closed[m, a, i, k])
                    oracle = "" if table.oracle is None else fmt % float(table.oracle[m, a, i, k])
                    lines.append(f"{axis},{measure},{fmt % theta},{fmt % gamma_t},{closed},{oracle}")
    return "\n".join(lines) + "\n"


def _sweep_and_table(capsys, monkeypatch, kind, *argv):
    """main's exit code and output for a sweep argv in the format kind
    (csv or json), and the table it wrote."""
    tables, compute = [], cli.sweep

    def keep(*args, **kwargs):
        tables.append(compute(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(cli, "sweep", keep)
    code, out = run(capsys, "sweep", *argv, *(["--json"] if kind == "json" else []))
    return code, out, tables[0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("precision", ["6", "9", "17"])
@pytest.mark.parametrize("axes", ["y", "x,y,z"])
@pytest.mark.parametrize("oracle", [False, True])
def test_sweep_output_is_the_per_value_reference(capsys, monkeypatch, precision, axes, oracle, fmt):
    argv = ["--thetas", "0,1e-8,pi/4,pi/2,3.14159265,pi", "--times", "0,1e-3,0.7,20,inf",
            "--axes", axes, "--measures", "all" if not oracle else "concurrence,geometric_discord",
            "--gamma", "1.3", "--precision", precision] + (["--oracle"] if oracle else [])
    code, out, table = _sweep_and_table(capsys, monkeypatch, fmt, *argv)
    assert code == 0
    assert out == _reference_sweep(table, int(precision), fmt)
    if fmt == "json":
        assert '"gamma_t": 0.0,' in out and '"gamma_t": Infinity,' in out
    else:
        assert (",0," in out) and (",inf," in out)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_block_longer_than_a_slice_is_the_reference(capsys, monkeypatch, fmt):
    # one theta, so each block is one (measure, axis) pair over every time,
    # written in several slices of cli._BLOCK_ROWS rows and a short last one
    times = 2 * cli._BLOCK_ROWS + 37
    argv = ["--thetas", "pi/3", "--tmax", "4", "--tsteps", str(times), "--axes", "x,y",
            "--measures", "concurrence,quantum_discord", "--oracle", "--precision", "17"]
    code, out, table = _sweep_and_table(capsys, monkeypatch, fmt, *argv)
    assert code == 0
    assert len(table) == 4 * times
    assert out == _reference_sweep(table, 17, fmt)


def test_deathtime_json(capsys):
    code, out = run(capsys, "deathtime", "--theta", "pi/4", "--axis", "z", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "esd"
    # ln sqrt(3): the closed-form death time at this angle
    assert payload["time"] == pytest.approx(0.5493061443340549, rel=1e-6)
    assert payload["closed_form_time"] == pytest.approx(0.5493061443340549, rel=1e-12)


def test_deathtime_half_life_text(capsys):
    code, out = run(capsys, "deathtime", "--theta", "pi/4", "--axis", "y",
                    "--measure", "geometric_discord")
    assert code == 0
    assert "half_life" in out


def test_verify_quick_json(capsys):
    code, out = run(capsys, "verify", "--quick", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    statuses = {c["status"] for c in payload["checks"]}
    assert statuses <= {"pass", "expected_fail"}


def test_verify_quick_text_lines(capsys):
    code, out = run(capsys, "verify", "--quick")
    assert code == 0
    assert "[PASS]" in out and "[XFAIL]" in out


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["state", "--theta", "nonsense"])
    assert err.value.code == 2
    # argparse reads a separate "-pi/4" as an option, so --theta has no value
    with pytest.raises(SystemExit) as err:
        main(["state", "--theta", "-pi/4"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--thetas", "pi/4", "--times", "0,1", "--measures", "bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["state", "--theta", "pi/4", "--precision", "30"])
    assert err.value.code == 2
    # time grids are counted before any list is built
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--thetas", "pi/4", "--times", "0:1e9:1e-9"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--thetas", "pi/4", "--times", "0:inf:1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--thetas", "pi/4", "--tmax", "1", "--tsteps", str(MAX_TIME_POINTS + 1)])
    assert err.value.code == 2
    # a zero step is a bad range, not a division by zero
    for times in ("0:1:0", "1:1:0"):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--thetas", "pi/4", "--times", times])
        assert err.value.code == 2
        assert f"bad time range '{times}'" in capsys.readouterr().err
    # an empty angle list fails like every other empty list
    for thetas in ("", ","):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--thetas", thetas, "--times", "0"])
        assert err.value.code == 2
        assert "empty angle list" in capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize("name", ["missing/x.txt", "."])
def test_unwritable_out_exits_2_before_computing(tmp_path, capsys, monkeypatch, name):
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: pytest.fail("computed"))
    path = str(tmp_path / name)
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--thetas", "pi/4", "--times", "0", "--out", path])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert path in message and "Traceback" not in message


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_rk4_step_count_is_bounded_before_anything_runs(capsys, monkeypatch):
    # the cap is integrate_rk4's: it refuses the count before it builds the
    # propagator from lindblad_rhs
    assert MAX_RK4_STEPS is channels.MAX_RK4_STEPS
    monkeypatch.setattr(channels, "lindblad_rhs", lambda *args: pytest.fail("integrated"))
    code = main(["evolve", "--theta", "pi/4", "--axis", "z", "--time", "1", "--method", "rk4",
                 "--steps", str(MAX_RK4_STEPS + 1)])
    assert code == 3
    assert f"steps must be an integer in [1, {MAX_RK4_STEPS}]" in _one_error_line(capsys)


@pytest.mark.parametrize("time, gamma, steps, message", [
    # 2 gamma h = 2.785, where the RK4 factor reaches 1
    ("557", "1", None, "steps must be >= gamma*t = 557, got 400"),
    ("1e300", "1", None, "steps must be >= gamma*t = 1e+300, got 400"),
    ("nan", "1", None, "t must be finite and non-negative, got nan"),
    ("2", "3", "5", "steps must be >= gamma*t = 6, got 5"),
])
def test_rk4_steps_cover_every_decay_time_before_anything_runs(capsys, monkeypatch, time,
                                                                gamma, steps, message):
    # integrate_rk4 owns the rule, so the run exits 3 with its message
    monkeypatch.setattr(channels, "lindblad_rhs", lambda *args: pytest.fail("integrated"))
    argv = ["evolve", "--theta", "pi/4", "--axis", "x", "--time", time, "--gamma", gamma,
            "--method", "rk4"]
    assert main(argv + ([] if steps is None else ["--steps", steps])) == 3
    assert message in _one_error_line(capsys)


@pytest.mark.parametrize("method, time", [
    ("kraus", "nan"), ("analytic", "nan"), ("rk4", "nan"), ("rk4", "inf"),
])
def test_evolve_rejects_a_time_its_route_cannot_take(capsys, method, time):
    code = main(["evolve", "--theta", "pi/4", "--axis", "z", "--time", time, "--method", method])
    assert code == 3
    err = _one_error_line(capsys)
    assert "t must be" in err and f"got {time}" in err


@pytest.mark.parametrize("method", ["kraus", "analytic"])
def test_evolve_infinite_time_is_the_mu_0_limit_on_the_exact_routes(capsys, method):
    code, out = run(capsys, "evolve", "--theta", "pi/4", "--axis", "z", "--time", "inf",
                    "--method", method, "--json", "--measures", "concurrence")
    assert code == 0
    limit = apply_pauli_channel(initial_state(make_params(math.pi / 4)), "z", 0.0)
    np.testing.assert_allclose(state_from_json(json.loads(out)["state"]), limit, atol=1e-15)


@pytest.mark.parametrize("method", ["kraus", "analytic", "rk4"])
@pytest.mark.parametrize("gamma", ["nan", "1e301", "1e-301", "-1"])
def test_evolve_rejects_a_bad_gamma_with_exit_3_on_every_method(capsys, method, gamma):
    # rk4 once read gamma*t first and exited 2 on "--steps >= gamma*t = nan"
    code = main(["evolve", "--theta", "pi/4", "--axis", "x", "--time", "1", "--gamma", gamma,
                 "--method", method])
    assert code == 3
    assert "gamma must be in [1e-300, 1e+300]" in capsys.readouterr().err


def test_rk4_at_one_step_per_decay_time_still_runs(capsys):
    code, out = run(capsys, "evolve", "--theta", "pi/4", "--axis", "x", "--time", "6",
                    "--gamma", "2", "--method", "rk4", "--steps", "12", "--json",
                    "--measures", "concurrence")
    assert code == 0
    assert json.loads(out)["measures"]["concurrence"]["oracle"] == 0.0


@pytest.mark.parametrize("tmax", ["nan", "inf", "0", "-1"])
def test_sweep_tmax_must_be_finite_and_positive(capsys, tmax):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--thetas", "pi/4", "--tmax", tmax, "--tsteps", "3"])
    assert err.value.code == 2
    assert "--tmax must be finite and > 0" in capsys.readouterr().err


def test_sweep_grid_size_is_bounded_before_anything_runs(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: pytest.fail("evaluated"))
    thetas = ",".join(str(0.1 * k) for k in range(1, 12))
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--thetas", thetas, "--tmax", "1", "--tsteps", "100000", "--axes", "z"])
    assert err.value.code == 2
    assert f"more than {MAX_SWEEP_POINTS}" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["kraus", "analytic"])
@pytest.mark.parametrize("steps", ["0", "400"])
def test_evolve_steps_is_rk4_only(capsys, method, steps):
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--theta", "pi/4", "--axis", "z", "--time", "1", "--method", method,
              "--steps", steps])
    assert err.value.code == 2
    assert "rk4 only" in capsys.readouterr().err


def test_evolve_rk4_steps_default_and_explicit(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "integrate_rk4",
                        lambda rho0, channel, t, steps: seen.append(steps) or rho0)
    base = ["evolve", "--theta", "pi/4", "--axis", "z", "--time", "1", "--method", "rk4",
            "--measures", "concurrence"]
    assert run(capsys, *base)[0] == 0
    assert run(capsys, *base, "--steps", "7")[0] == 0
    assert seen == [400, 7]
    # an explicit zero reaches the integrator, which rejects it
    monkeypatch.undo()
    assert main(base + ["--steps", "0"]) == 3


def test_computation_errors_exit_3(capsys):
    code = main(["evolve", "--theta", "pi/4", "--axis", "z", "--time", "-2"])
    assert code == 3
    code = main(["sweep", "--thetas", "pi/4", "--times", "nan", "--axes", "z",
                 "--measures", "concurrence,quantum_discord"])
    assert code == 3
    # rates outside [1e-300, 1e300] would overflow 1/gamma or turn 2 gamma t into NaN
    assert main(["deathtime", "--theta", "pi/4", "--axis", "z", "--gamma", "1e-320"]) == 3
    assert main(["sweep", "--thetas", "pi/4", "--times", "0,1", "--gamma", "1e308",
                 "--axes", "z"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("gamma must be in [1e-300, 1e+300]") == 2
    # an angle past half the largest float is named, not a bare math domain error
    assert main(["state", "--theta", "1e308"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "theta must be finite with |theta| <= 8.98846567431" in captured.err
    assert "got 1e+308" in captured.err


def test_sweep_at_infinite_time_is_the_mu_zero_limit(capsys):
    code, out = run(capsys, "sweep", "--thetas", "pi/4", "--times", "inf", "--axes", "z",
                    "--measures", "concurrence,geometric_discord")
    assert code == 0
    assert [line.split(",")[3:5] for line in out.splitlines()[1:]] == [["inf", "0"], ["inf", "0"]]


def test_main_reuses_one_parser_without_shared_mutable_defaults(capsys):
    assert build_parser() is not build_parser()
    first = run(capsys, "state", "--theta", "pi/4", "--json")
    assert run(capsys, "state", "--theta", "pi/4", "--json") == first
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for sub in commands.choices.values():
        for action in sub._actions:
            assert not isinstance(action.default, (list, dict, set)), action.dest


@pytest.mark.parametrize(
    "flags", [["--opt-tol", "-1"], ["--grid-points", "8"], ["--grid-points", str(2**20 + 1)]]
)
def test_bad_optimizer_settings_exit_3(capsys, flags):
    # rejected when the settings are built, before any grid is allocated
    code = main(["state", "--theta", "pi/4", "--measures", "quantum_discord", *flags])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["state", "evolve", "sweep", "deathtime", "verify"])
def test_every_subcommand_help_renders_with_the_optimizer_defaults(capsys, command):
    # help strings are %-formatted only when rendered, so each one is rendered
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    defaults = OptimizerSettings()
    optimizer_help = [f"(default {defaults.grid_points});", f"(default {defaults.final_tolerance})"]
    assert [shown in text for shown in optimizer_help] == [command != "deathtime"] * 2
    channel_help = ["--gamma G channel rate (default 1)",
                    "which qubit the noise acts on (default B)"]
    has_channel = command in ("evolve", "sweep", "deathtime")
    assert [shown in text for shown in channel_help] == [has_channel] * 2


def test_optimizer_flags_default_to_the_optimizer_settings():
    for command in (["state", "--theta", "1"], ["verify"]):
        args = build_parser().parse_args(command)
        assert OptimizerSettings(args.grid_points, args.opt_tol) == OptimizerSettings()


@pytest.mark.parametrize("flag, value, message", [
    ("--thetas", "pi/4,zz", "cannot parse angle 'zz'"),
    ("--times", " , ", "empty time list"),
    ("--times", "0,x", "cannot parse time list '0,x'"),
    ("--axes", "x,w", "unknown axis 'w'; choose from x, y, z"),
    ("--axes", ",", "empty axis list"),
    ("--measures", "concurrence,bogus",
     f"unknown measure 'bogus'; choose from {', '.join(MEASURE_NAMES)} or 'all'"),
    ("--measures", ",", "empty measure list"),
])
def test_list_options_keep_their_messages(capsys, flag, value, message):
    argv = {"--thetas": "pi/4", "--times": "0", flag: value}
    with pytest.raises(SystemExit) as err:
        main(["sweep", *(token for pair in argv.items() for token in pair)])
    assert err.value.code == 2
    assert f": {message}\n" in capsys.readouterr().err
