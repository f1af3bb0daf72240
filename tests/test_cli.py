"""Command line interface, exercised in-process through main(argv), plus one
child-process run of `python -m lsbench` for its exit code."""

import io
import json
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from lsbench import cli, engine
from lsbench.cli import BenchRow, _bench_pairs, _classify, _emit_bench_table, main
from lsbench.measure import Report
from lsbench.netlist import MosCard, parse_netlist

REPORT_KEYS = {
    "circuit", "power_avg_w", "power_static_lo_w", "power_static_hi_w",
    "delay_rise_s", "delay_fall_s", "delay_max_s", "swing_hi_v", "swing_lo_v",
}

LEAKAGE_NETLIST = """\
single off transistor on a 3.3 V rail
.model NCH NMOS ()
VDD vdd 0 DC 3.3
M1 vdd 0 0 0 NCH W=1u L=0.35u
.tran 1n 20n
.end
"""


def _gen(tmp_path, topo, *flags):
    path = tmp_path / f"{topo}.sp"
    assert main(["gen", topo, "-o", str(path), *flags]) == 0
    return path


# ---------------------------------------------------------------------------
# gen

def test_gen_writes_parseable_netlist(tmp_path):
    path = _gen(tmp_path, "ssls")
    doc = parse_netlist(path.read_text())
    assert doc.title.startswith("ssls:")
    assert doc.tran is not None


def test_gen_stdout_and_counts(capsys):
    assert main(["gen", "cmls_stacked"]) == 0
    doc = parse_netlist(capsys.readouterr().out)
    assert sum(isinstance(c, MosCard) for c in doc.devices) == 15


def test_gen_param_flags(tmp_path):
    path = _gen(tmp_path, "cls", "--cload", "20f", "--vin-hi", "1.2")
    doc = parse_netlist(path.read_text())
    cl = next(c for c in doc.devices if c.name == "CL")
    assert cl.value == pytest.approx(20e-15, rel=1e-12)
    vin = next(c for c in doc.devices if c.name == "VIN")
    assert vin.wave.v2 == 1.2


def test_gen_unknown_topology(capsys):
    assert main(["gen", "nope"]) == 2
    assert "valid:" in capsys.readouterr().err


def test_gen_overflowing_flag_exits_usage(tmp_path, capsys):
    # --cload 1e400 once wrote "CL out 0 inf", which `run` then refused
    path = tmp_path / "x.sp"
    assert main(["gen", "cls", "--cload", "1e400", "-o", str(path)]) == 2
    assert "argument --cload: numeric token '1e400' overflows a float" in capsys.readouterr().err
    assert not path.exists()


def test_gen_single_supply_vddl_warns(tmp_path, capsys):
    assert main(["gen", "ssls", "--vddl", "2.0", "-o", str(tmp_path / "x.sp")]) == 0
    assert "no effect" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run

def test_run_pipeline(tmp_path, capsys):
    path = _gen(tmp_path, "ssls")
    assert main(["run", str(path), "--tstep", "100p", "--tstop", "210n"]) == 0
    out = capsys.readouterr().out
    assert f"wrote {tmp_path / 'ssls.csv'}" in out
    assert f"wrote {tmp_path / 'ssls.report.json'}" in out

    with open(tmp_path / "ssls.csv") as fh:
        header = fh.readline().strip()
    assert header == "time,vddh,in,x,y,out,i(VDDH),i(VIN)"
    data = np.loadtxt(tmp_path / "ssls.csv", delimiter=",", skiprows=1)
    assert data.shape == (2101, 8)
    assert data[-1, 0] == pytest.approx(210e-9, rel=1e-6)

    rep = json.loads((tmp_path / "ssls.report.json").read_text())
    assert set(rep) == REPORT_KEYS
    assert rep["delay_max_s"] == max(rep["delay_rise_s"], rep["delay_fall_s"])
    assert rep["swing_hi_v"] > 3.2 and rep["swing_lo_v"] < 0.05
    assert rep["power_avg_w"] > 0


def test_run_explicit_paths(tmp_path, capsys):
    path = _gen(tmp_path, "ssls")
    csv_p, json_p = tmp_path / "w.csv", tmp_path / "r.json"
    rc = main(["run", str(path), "--tstep", "200p", "--tstop", "210n",
               "-o", str(csv_p), "--report-json", str(json_p)])
    assert rc == 0
    assert csv_p.exists() and json_p.exists()


def test_run_compiles_one_member_per_system(monkeypatch, tmp_path):
    # run compiles its circuit for the transient and again for the report,
    # whose static solves run in the circuit's own member: no pinned copies
    path = _gen(tmp_path, "ssls")
    compiles, init = [], engine._System.__init__

    def counted_init(self, circuits):
        compiles.append(len(circuits))
        init(self, circuits)
    monkeypatch.setattr(engine._System, "__init__", counted_init)
    assert main(["run", str(path), "--tstep", "200p", "--tstop", "210n"]) == 0
    assert compiles == [1, 1]


def test_run_invalid_model_exits_usage(tmp_path, capsys):
    # N=0 and PHI=-1 used to fail only after every DC homotopy stage, and
    # KP=-1 simulated with the output above the rail
    for override in ("N=0", "KP=-1", "PHI=-1"):
        src = tmp_path / "bad_model.sp"
        src.write_text(LEAKAGE_NETLIST.replace("NMOS ()", f"NMOS ({override})"))
        assert main(["run", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: model NCH: " + override.split("=")[0])


def test_run_oversized_grid_exits_before_allocating(tmp_path, capsys):
    # .tran 1p 1m asks for 1e9 grid samples; the grid cap must refuse it
    # before the waveform arrays (about 8 GB per node) are allocated
    src = tmp_path / "huge.sp"
    src.write_text(LEAKAGE_NETLIST.replace(".tran 1n 20n", ".tran 1p 1m"))
    tracemalloc.start()
    try:
        rc = main(["run", str(src)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "exceeds the limit" in capsys.readouterr().err
    assert peak < 4 * 2**20
    assert not (tmp_path / "huge.csv").exists()


def test_run_voltage_source_loop_exits_usage(tmp_path, capsys):
    # before elaboration caught it, this ran every DC homotopy stage and
    # exited 3 with "singular Jacobian (check for floating nodes)"
    src = tmp_path / "loop.sp"
    src.write_text("parallel sources\nV1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n"
                   ".tran 1n 20n\n.end\n")
    assert main(["run", str(src)]) == 2
    assert "line 3: voltage source V2 closes a loop" in capsys.readouterr().err


def test_run_singular_transient_exits_solver(tmp_path, capsys):
    # a 1e290 F capacitor: the DC start converges, then every step solve
    # from 0.64 ns on is singular at the default gmin, down to the last
    # halving
    src = tmp_path / "huge_cap.sp"
    src.write_text("huge capacitor\nV1 x 0 PULSE(0 1 1n 1n 1n 3n 10n)\nR0 x b 1k\n"
                   "R1 b 0 1k\nR2 c 0 1k\nC1 b c 1e290\n.tran 10p 2n\n.end\n")
    assert main(["run", str(src)]) == 3
    assert ("solver error: transient step at t=6.6125e-10s failed to converge after "
            "8 halvings" in capsys.readouterr().err)
    assert not (tmp_path / "huge_cap.csv").exists()


def test_run_dc_only_skips_report(tmp_path):
    path = tmp_path / "dc.sp"
    path.write_text("dc only\nVIN a 0 DC 1\nR1 a 0 1k\n.tran 1n 20n\n.end\n")
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "dc.csv").exists()
    assert not (tmp_path / "dc.report.json").exists()


def test_run_named_node_always_writes_or_fails_the_report(tmp_path, capsys):
    # one named node asks for the report even on a netlist without the
    # other default node: the run ends in the measurement error for that
    # node after the CSV, as when both are named, and writes no report
    path = _gen(tmp_path, "cls")
    path.write_text(re.sub(r"\bout\b", "z", re.sub(r"\bin\b", "a", path.read_text())))
    grid = ["--tstep", "100p", "--tstop", "210n"]
    for flags, missing in ((["--in-node", "a"], "out"), (["--out-node", "z"], "in")):
        assert main(["run", str(path), *grid, *flags]) == 4
        out, err = capsys.readouterr()
        assert f"wrote {tmp_path / 'cls.csv'}" in out
        assert f"measurement error: no node named {missing!r} in waveforms" in err
        assert not (tmp_path / "cls.report.json").exists()
    assert main(["run", str(path), *grid, "--in-node", "a", "--out-node", "z"]) == 0
    assert json.loads((tmp_path / "cls.report.json").read_text())["swing_hi_v"] > 3.2


def test_run_error_exits(tmp_path, capsys):
    bad = tmp_path / "bad.sp"
    bad.write_text("broken\nR1 a b\n.end\n")
    assert main(["run", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.sp")]) == 2

    ok = _gen(tmp_path, "ssls")
    assert main(["run", str(ok), "--tstep", "1n", "--tstop", "5n"]) == 2
    assert "10 steps" in capsys.readouterr().err
    # one integration scheme: there is no flag to choose another
    assert main(["run", str(ok), "--scheme", "be"]) == 2
    assert "unrecognized arguments: --scheme be" in capsys.readouterr().err

    no_tran = tmp_path / "no_tran.sp"
    no_tran.write_text("rc\nVIN a 0 DC 1\nR1 a 0 1k\n.end\n")
    assert main(["run", str(no_tran)]) == 2
    assert ".tran" in capsys.readouterr().err
    # a timestep alone is not enough: the error names the stop time missing
    assert main(["run", str(no_tran), "--tstep", "1n"]) == 2
    err = capsys.readouterr().err
    assert "no tstop given" in err and ".tran" in err


def test_run_unphysical_model_value_exits_2(tmp_path, capsys):
    # a finite threshold of 1.797e308 V overflowed in the device model and
    # the run went on; a value outside its physical range is now refused at
    # elaboration, naming the .model key, before anything is evaluated
    net = _gen(tmp_path, "cls")
    net.write_text(net.read_text().replace(".model NCH NMOS ()",
                                           ".model NCH NMOS (VTH0=1.797e308)"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(net)]) == 2
    assert "model NCH: VTH0=1.797e+308 must be within [-100, 100]" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_no_subcommand_usage_error(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert "gen" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bench

def test_bench_csv_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", "ssls", "--format", "csv", "-o", str(f1)]) == 0
    assert main(["bench", "ssls", "--format", "csv", "-o", str(f2)]) == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    assert b1.decode().splitlines()[0].startswith("topology,power_avg_w")


def test_bench_subset_pairs_and_order(tmp_path):
    out = tmp_path / "bench.json"
    rc = main(["bench", "ssls_stacked", "ssls", "--format", "json", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert [r["topology"] for r in payload["rows"]] == ["ssls", "ssls_stacked"]
    assert all(r["status"] == "ok" for r in payload["rows"])
    (pair,) = payload["pairs"]
    assert pair["baseline"] == "ssls" and pair["stacked"] == "ssls_stacked"
    assert pair["power_reduced"] is True
    assert pair["reduction_ratio"] > 1.0
    base_row, stacked_row = payload["rows"]
    assert stacked_row["reduction_ratio"] == pytest.approx(pair["reduction_ratio"])
    assert pair["static_ratio"] == (base_row["power_static_avg_w"]
                                    / stacked_row["power_static_avg_w"])
    assert pair["delay_ratio"] == stacked_row["delay_max_s"] / base_row["delay_max_s"]
    assert pair["delay_ratio"] > 1.0


def test_bench_warns_of_negative_delays(capsys):
    # ssls's output falls before its input crosses mid-swing: one stderr
    # line names it, and the table on stdout carries no trace of it
    assert main(["bench", "ssls"]) == 0
    out, err = capsys.readouterr()
    assert err == "warning: ssls: delay_fall is -21.76 ps (output before input)\n"
    assert "warning" not in out


def _report(swing_lo, swing_hi):
    return Report("fabricated", 1e-5, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9,
                  swing_lo=swing_lo, swing_hi=swing_hi)


@pytest.mark.parametrize("lo,hi,status", [
    (0.0, 3.3, "ok"),
    (0.033, 3.267, "ok"),           # exactly on the 1% and 99% marks
    (0.0, 3.2, "non-functional"),   # never reaches 99% of vddh
    (0.05, 3.3, "non-functional"),  # never falls below 1% of vddh
    (0.0, float("nan"), "non-functional"),
])
def test_classify_swing_marks(lo, hi, status):
    got, note = _classify(_report(lo, hi), 3.3)
    assert got == status
    assert (note == "") == (status == "ok")
    if status != "ok":
        assert "1%/99% marks of vddh=3.3 V" in note


def test_bench_pairs_table_ratios():
    rows = [BenchRow("cls", 4e-5, 6e-10, 1.6e-9, 3.3, 0.0),
            BenchRow("cls_stacked", 2e-5, 4e-10, 2.0e-9, 3.3, 0.0),
            BenchRow("ssls", 1e-4, 1e-4, 6e-10, 3.3, 0.0),
            BenchRow("ssls_stacked", status="non-functional", note="swing")]
    (pair,) = _bench_pairs(rows)  # a pair with a non-ok side is left out
    # the pairing owns reduction_ratio: it fills the ok stacked row's and
    # leaves the non-ok one's empty
    assert rows[1].reduction_ratio == pair["reduction_ratio"] == 2.0
    assert rows[3].reduction_ratio is None
    assert pair["static_ratio"] == 1.5
    assert pair["delay_ratio"] == 1.25
    out = io.StringIO()
    _emit_bench_table(out, rows, [pair])
    assert ("cls/cls_stacked: power reduced yes (2.000x, static 1.500x), "
            "delay increased yes (1.250x)") in out.getvalue()


def test_bench_compiles_once_and_holds_one_grid(monkeypatch, tmp_path):
    # bench characterizes its topologies as one batch: one compiled system
    # for the transients, their DC starts and the static-power solves, and
    # each topology's grid is dropped before the next one is filled
    out = tmp_path / "bench.csv"
    argv = ["bench", "cls", "ssls", "cmls_stacked", "--format", "csv", "-o", str(out)]
    assert main(argv) == 0
    whole = out.read_text()
    compiles, filled = [], []
    init, fill = engine._System.__init__, engine._waveforms

    def counted_init(self, circuits):
        compiles.append(len(circuits))
        init(self, circuits)

    def checked_fill(*a, **k):
        assert all(w() is None for w in filled), "an earlier topology's grid is still held"
        waves = fill(*a, **k)
        filled.append(weakref.ref(waves))
        return waves
    monkeypatch.setattr(engine._System, "__init__", counted_init)
    monkeypatch.setattr(engine, "_waveforms", checked_fill)
    assert main(argv) == 0
    assert out.read_text() == whole
    assert compiles == [3] and len(filled) == 3  # one member per circuit


def test_bench_unknown_topology(capsys):
    assert main(["bench", "xyz"]) == 2
    assert "valid: all" in capsys.readouterr().err


def test_bench_all_among_topologies_runs_all_six(capsys):
    # "all" may stand anywhere in the list: with it, every topology runs,
    # once and in its order
    assert main(["bench", "all", "--format", "csv"]) == 0
    whole = capsys.readouterr().out
    assert main(["bench", "all", "cls", "--format", "csv"]) == 0
    assert capsys.readouterr().out == whole
    assert len(whole.splitlines()) == 7  # the header and six rows


def test_module_entry_point_exit_code(run_lsbench):
    res = run_lsbench("bench", "xyz")
    assert res.returncode == 2
    assert res.stderr.startswith("error:")


def test_bench_does_not_import_numpy_ma(run_lsbench, tmp_path):
    # np.unique and np.median import numpy.ma (about 14 ms and 1.3 MB per
    # process); a transient and its measurement use neither.  -X importtime
    # lists every module the child imports on stderr
    res = run_lsbench("bench", "cls", "-o", str(tmp_path / "b.csv"), flags=("-X", "importtime"))
    assert res.returncode == 0 and (tmp_path / "b.csv").exists()
    mods = {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()
            if line.startswith("import time:")}
    assert {"numpy", "numpy.linalg", "lsbench.measure"} <= mods
    assert not {m for m in mods if m == "numpy.ma" or m.startswith("numpy.ma.")}


# ---------------------------------------------------------------------------
# sweep

def test_sweep_classifies_points(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "cls", "--param", "vin_hi", "--from", "0.3",
               "--to", "1.6", "--steps", "2", "-o", str(out)])
    assert rc == 0  # non-functional points are reported, not fatal
    lines = out.read_text().splitlines()
    assert lines[0].startswith("topology,param,value")
    assert len(lines) == 3
    first, second = lines[1].split(","), lines[2].split(",")
    assert first[:2] == ["cls", "vin_hi"] and float(first[2]) == 0.3
    assert first[-2] == "non-functional"
    assert second[-2] == "ok" and float(second[2]) == 1.6


def test_sweep_rows_do_not_depend_on_the_batch(tmp_path):
    # a sweep simulates all its points as one batch; every row of the README
    # sweep must equal that point's row from a two-point sweep, so a point's
    # figures cannot depend on which other points share its batch
    def rows(lo, hi, steps):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "cls", "--param", "vin_hi", "--from", lo, "--to", hi,
                     "--steps", str(steps), "-o", str(out)]) == 0
        return out.read_text().splitlines()[1:]

    full = rows("0.3", "1.6", 8)
    values = [r.split(",")[2] for r in full]
    for i in range(4):  # pairs (0, 7), (1, 6), ...: mixed contention levels
        assert rows(values[i], values[7 - i], 2) == [full[i], full[7 - i]]


def test_sweep_batches_are_bounded_and_hold_one_grid(monkeypatch, tmp_path):
    # a sweep characterizes its points in batches of at most _BATCH,
    # one compiled system each, so its memory does not grow with --steps,
    # and it drops each point's grid before the next one is filled; the
    # rows do not depend on the batching
    def rows():
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "cls", "--param", "vin_hi", "--from", "0.6", "--to", "1.6",
                     "--steps", "5", "-o", str(out)]) == 0
        return out.read_text()

    whole = rows()
    sizes, compiles, filled = [], [], []
    many, init, fill = cli.characterize_many, engine._System.__init__, engine._waveforms

    def counted_many(circuits):
        sizes.append(len(circuits))
        return many(circuits)

    def counted_init(self, circuits):
        compiles.append(len(circuits))
        init(self, circuits)

    def checked_fill(*a, **k):
        assert all(w() is None for w in filled), "an earlier point's grid is still held"
        waves = fill(*a, **k)
        filled.append(weakref.ref(waves))
        return waves
    monkeypatch.setattr(cli, "_BATCH", 2)
    monkeypatch.setattr(cli, "characterize_many", counted_many)
    monkeypatch.setattr(engine._System, "__init__", counted_init)
    monkeypatch.setattr(engine, "_waveforms", checked_fill)
    assert rows() == whole
    assert sizes == [2, 2, 1] and len(filled) == 5
    # one system per batch, one member per point, whose static solves run in
    # its own member.  The 0.6 V point fails its measurement, so, as alone,
    # it skips its static solves: the one with the input high fails, and its
    # message would compile that circuit again to name the worst node.
    assert compiles == [2, 2, 1]


def test_sweep_usage_errors(capsys):
    assert main(["sweep", "ssls", "--param", "vddl",
                 "--from", "1", "--to", "2", "--steps", "2"]) == 2
    assert "single-supply" in capsys.readouterr().err
    assert main(["sweep", "cls", "--param", "w_n_stacked",
                 "--from", "1u", "--to", "2u", "--steps", "2"]) == 2
    assert "no effect" in capsys.readouterr().err
    assert main(["sweep", "cls", "--param", "vddh",
                 "--from", "3", "--to", "2", "--steps", "2"]) == 2
    assert "less than" in capsys.readouterr().err
    assert main(["sweep", "cls", "--param", "vddh",
                 "--from", "2", "--to", "3", "--steps", "1"]) == 2
    assert "at least 2" in capsys.readouterr().err
    # refused before np.linspace tries to allocate the points
    assert main(["sweep", "cls", "--param", "vddh",
                 "--from", "2", "--to", "3", "--steps", "10000000000000"]) == 2
    assert "at most 10,000" in capsys.readouterr().err
    assert main(["sweep", "cls", "--param", "cload",
                 "--from", "1f", "--to", "1e400", "--steps", "2"]) == 2
    assert "argument --to: numeric token '1e400' overflows a float" in capsys.readouterr().err
    assert main(["sweep", "cls", "--param", "vin_hi",
                 "--from", "nan", "--to", "1", "--steps", "2"]) == 2
    assert "argument --from: malformed numeric token 'nan'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# seed models

def _leak_current(tmp_path, name):
    src = tmp_path / f"{name}.sp"
    src.write_text(LEAKAGE_NETLIST)
    assert main(["run", str(src)]) == 0
    data = np.loadtxt(tmp_path / f"{name}.csv", delimiter=",", skiprows=1)
    return float(data[-1, 2])  # i(VDD) at the end of the run


def test_seed_model_env_changes_devices(tmp_path, monkeypatch):
    monkeypatch.delenv("LS_SEED_MODEL", raising=False)
    i_default = _leak_current(tmp_path, "plain")

    seed = tmp_path / "seed.mod"
    seed.write_text("* high threshold corner\n.model HOT NMOS (VTH0=0.9)\n")
    monkeypatch.setenv("LS_SEED_MODEL", str(seed))
    i_seeded = _leak_current(tmp_path, "seeded")

    assert abs(i_seeded) < 0.5 * abs(i_default)


def test_seed_model_env_rejects_devices(tmp_path, monkeypatch, capsys):
    seed = tmp_path / "seed.mod"
    seed.write_text("M1 a b c d NCH W=1u L=1u\n")
    monkeypatch.setenv("LS_SEED_MODEL", str(seed))
    src = tmp_path / "x.sp"
    src.write_text(LEAKAGE_NETLIST)
    assert main(["run", str(src)]) == 2
    assert "only .model" in capsys.readouterr().err
