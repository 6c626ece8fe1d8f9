import argparse
import io
import json

import pytest

from shiftbreak import cli
from shiftbreak import identity_test as it
from shiftbreak import shift_recovery as sr

from reference import run_python


def run_main(argv):
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_recover_end_to_end():
    code, out = run_main(
        ["recover", "--p", "13", "--e", "3", "--s", "5", "--algorithm", "zero_call_narrow"]
    )
    assert code == 0
    row = json.loads(out.strip())
    assert row["recovered"] == 5
    assert row["oracle_calls"] >= 1


def test_recover_interpolation_call_count():
    code, out = run_main(
        ["recover", "--p", "13", "--e", "3", "--s", "5", "--algorithm", "interpolation"]
    )
    assert code == 0
    assert json.loads(out.strip())["oracle_calls"] == 4


def test_recover_seeded_replay_byte_identical():
    argv = [
        "recover", "--p", "13", "--e", "3", "--s", "5",
        "--algorithm", "randomized", "--seed", "42",
    ]
    out1 = run_main(argv)
    out2 = run_main(argv)
    assert out1 == out2


def test_recover_random_secret_seeded():
    argv = ["recover", "--p", "1009", "--e", "12", "--seed", "7", "--trials", "3"]
    code, out = run_main(argv)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 3
    for row in rows:
        assert row["recovered"] == row["s"]
    assert run_main(argv)[1] == out


def test_recover_timing_is_per_trial(monkeypatch):
    # each trial reads the clock once at its start and once at its end
    ticks = iter([0.0, 0.5, 10.0, 10.25, 20.0, 21.0])
    monkeypatch.setattr("shiftbreak.cli.time.perf_counter", lambda: next(ticks))
    code, out = run_main(
        ["recover", "--p", "13", "--e", "3", "--seed", "1", "--trials", "3", "--timing"]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [row["wall_time"] for row in rows] == [0.5, 0.25, 1.0]


def test_identity_known_t():
    code, out = run_main(
        ["identity", "--p", "13", "--e", "3", "--s", "5", "--t", "4", "--mode", "exact"]
    )
    assert code == 0
    row = json.loads(out.strip())
    assert row["variant"] == "known_t"
    assert row["verdict"] == "distinct"
    assert row["probes"] <= 3


def test_identity_equal_pair():
    code, out = run_main(
        ["identity", "--p", "13", "--e", "3", "--s", "4", "--t", "4"]
    )
    assert code == 0
    assert json.loads(out.strip())["verdict"] == "equal"


def test_identity_unknown_t():
    code, out = run_main(
        ["identity", "--p", "13", "--e", "3", "--s", "5", "--seed", "3"]
    )
    assert code == 0
    row = json.loads(out.strip())
    assert row["variant"] == "unknown_t"
    assert row["verdict"] == ("equal" if row["ground_truth_equal"] else "distinct")


def test_lab_inline_and_grid(tmp_path):
    code, out = run_main(["lab", "--lemma", "coset_run", "--p", "13", "--e", "3"])
    assert code == 0
    assert json.loads(out.strip())["exact_count"] == 2

    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps([{"p": 13, "u": 0, "v": 1, "H": 3}, {"p": 13, "u": 1, "v": 1, "H": 12}])
    )
    code, out = run_main(["lab", "--lemma", "hyperbola", "--grid", str(grid)])
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0]["exact_count"] == 1
    assert rows[1]["exact_count"] == 11


@pytest.mark.parametrize(
    "lemma, cell",
    [
        # G_e with e = p-1 at 2^61-1 would be a list of 2^61 elements
        ("subgroup_shift", {"p": 2**61 - 1, "e": 2**61 - 2, "shifts": [[1, 1]]}),
        # H^2 steps for energy, H for hyperbola, above LOOP_CAP
        ("energy", {"p": 1000003, "a": 0, "H": 200000}),
        ("hyperbola", {"p": 13, "u": 0, "v": 1, "H": 10**8 + 1}),
        # (m + 1)*e = 201 * 500001 set inserts for 200 shifts, above LOOP_CAP
        pytest.param(
            "subgroup_shift",
            {"p": 1000003, "e": 500001, "shifts": [[1, mu] for mu in range(1, 201)]},
            id="subgroup_shift-200-shifts",
        ),
        # H^2 = h^nu = 10^8 steps is at the loop cap, but at 2^61 - 1 the
        # 2-fold product table of 10^4 factors could hold 5 * 10^7 entries,
        # above EXHAUSTIVE_CAP
        pytest.param(
            "energy", {"p": 2**61 - 1, "a": 0, "H": 10**4}, id="energy-table-above-the-entry-cap"
        ),
        pytest.param(
            "product_set",
            {"p": 2**61 - 1, "nu": 2, "s": 0, "h": 10**4},
            id="product_set-table-above-the-entry-cap",
        ),
    ],
)
def test_lab_cell_above_a_cap_is_a_skipped_row(tmp_path, lemma, cell):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([cell]))
    out = _run_cli_under_1_gib(["lab", "--lemma", lemma, "--grid", str(grid)])
    assert out.returncode == 0, out.stderr
    row = json.loads(out.stdout)
    assert "above" in row["skipped"] and "exact_count" not in row


@pytest.mark.parametrize(
    "lemma, cell, count, seconds",
    [
        # nu = 1: the table of the first nu - 1 factors is {1: 1}, so J reads
        # the one x = lambda - s off the box of 10^8 at once
        pytest.param(
            "product_J",
            {"p": 2**61 - 1, "nu": 1, "lam": 5, "s": 0, "h": 10**8},
            1,
            10,
            id="product_J-nu1-h1e8-without-a-table",
        ),
        # H(H + 1)/2 = 998,991 table entries, just inside EXHAUSTIVE_CAP.
        # With a > H^2 the products do not wrap and (a + x1)(a + x2) fixes
        # {x1, x2}, so only the 2H^2 - H trivial quadruples count
        pytest.param(
            "energy",
            {"p": 2**61 - 1, "a": 10**9 + 7, "H": 1413},
            2 * 1413**2 - 1413,
            60,
            id="energy-H1413-just-inside-the-entry-cap",
        ),
    ],
)
def test_lab_cell_inside_its_caps_counts_under_1_gib(tmp_path, lemma, cell, count, seconds):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([cell]))
    argv = ["-m", "shiftbreak.cli", "lab", "--lemma", lemma, "--grid", str(grid)]
    out = run_python(argv, seconds, address_space=2**30)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["exact_count"] == count


def test_lab_empty_grid(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text("[]")
    code, out = run_main(["lab", "--lemma", "psi", "--grid", str(grid)])
    assert code == 0
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["lab", "--lemma", "nope", "--grid", "EMPTY"],
        ["bench", "--grid", "EMPTY", "--algorithms", "nope"],
        # no name at all, where the default three used to run
        ["bench", "--p", "13", "--e", "3", "--algorithms"],
        # the composite p is never reached: every name is checked first
        ["bench", "--p", "12", "--e", "3", "--algorithms", "interpolation", "nope"],
    ],
)
def test_unknown_name_exits_2_before_any_cell_runs(tmp_path, monkeypatch, capsys, argv):
    contexts = []
    monkeypatch.setattr(cli.fc, "make_context", contexts.append)
    grid = tmp_path / "grid.json"
    grid.write_text("[]")
    argv = [str(grid) if a == "EMPTY" else a for a in argv]
    assert run_main(argv) == (2, "")
    assert capsys.readouterr().err.startswith("config error: ")
    assert contexts == []


# One cell per lemma and its whole JSON row, envelope included: a change to
# any count or to any lemma's `predicted` shows here.
GOLDEN_LAB_ROWS = [
    {"lemma_id": "coset_run", "p": 211, "e": 30, "exact_count": 3,
     "predicted": 9.361389277282864, "ratio": 0.3204652547971755},
    {"lemma_id": "hyperbola", "p": 1009, "u": 3, "v": 5, "H": 260, "exact_count": 67,
     "predicted": 135.4950887455559, "ratio": 0.4944828673887822},
    {"lemma_id": "energy", "p": 211, "a": 5, "H": 14, "exact_count": 502,
     "predicted": 2355.775908946889, "ratio": 0.2130932734703153},
    {"lemma_id": "subgroup_shift", "p": 101, "e": 20, "shifts": [[1, 3], [1, 5]],
     "exact_count": 2, "predicted": 24.13670534618065, "ratio": 0.08286135043349967},
    {"lemma_id": "product_J", "p": 211, "nu": 3, "lam": 7, "s": 5, "h": 6,
     "exact_count": 3, "predicted": None, "ratio": None},
    {"lemma_id": "product_set", "p": 401, "nu": 3, "s": 5, "t": 9, "h": 7,
     "exact_count": 82, "predicted": 343.0, "ratio": 0.239067055393586},
    {"lemma_id": "psi", "x": 4100, "y": 7, "exact_count": 248,
     "predicted": 8.232749206267076, "ratio": 30.12359465671724},
    {"lemma_id": "smooth_subgroup", "p": 1009, "y": 3, "exact_count": 504,
     "predicted": None, "ratio": None},
]


def _golden_lab(tmp_path, row, fmt):
    cell = {
        k: v for k, v in row.items()
        if k not in ("lemma_id", "exact_count", "predicted", "ratio")
    }
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([cell]))
    return run_main(["lab", "--lemma", row["lemma_id"], "--grid", str(grid), "--output", fmt])


def test_golden_rows_cover_every_lemma():
    assert [row["lemma_id"] for row in GOLDEN_LAB_ROWS] == list(cli.LEMMAS)


@pytest.mark.parametrize("row", GOLDEN_LAB_ROWS, ids=lambda row: row["lemma_id"])
def test_lab_json_row_is_pinned(tmp_path, row):
    assert _golden_lab(tmp_path, row, "json") == (0, json.dumps(row) + "\n")


def test_lab_csv_and_table_bytes_are_pinned(tmp_path):
    row = GOLDEN_LAB_ROWS[3]
    assert _golden_lab(tmp_path, row, "csv") == (
        0,
        "lemma_id,p,e,shifts,exact_count,predicted,ratio\r\n"
        'subgroup_shift,101,20,"[[1, 3], [1, 5]]",2,24.13670534618065,0.08286135043349967\r\n',
    )
    assert _golden_lab(tmp_path, row, "table") == (
        0,
        "lemma_id        p    e   shifts            exact_count  predicted          ratio\n"
        "subgroup_shift  101  20  [[1, 3], [1, 5]]  2            24.13670534618065  0.08286135043349967\n",
    )


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["recover", "--p", "211", "--e", "30", "--seed", "5", "--trials", "3"],
         ["--algorithm", "zero_call_narrow"]),
        (["bench", "--p", "211", "--e", "30", "--trials", "3", "--seed", "9"],
         ["--algorithms", "interpolation", "zero_call_narrow", "randomized"]),
        (["identity", "--p", "211", "--e", "30", "--seed", "4"],
         ["--mode", "exact"]),
        (["identity", "--p", "211", "--e", "30", "--s", "5", "--t", "9"],
         ["--mode", "exact"]),
        (["identity", "--p", "1009", "--e", "12", "--s", "3", "--mode", "theoretical"],
         ["--seed", "0", "--output", "json"]),
    ],
)
def test_flag_left_out_equals_its_default(argv, defaults):
    code, out = run_main(argv)
    assert code == 0 and out
    assert run_main(argv + defaults) == (0, out)


@pytest.mark.parametrize(
    "argv, config",
    [
        (["identity", "--p", "211", "--e", "30", "--s", "5"],
         {"mode": None, "t": None, "seed": None}),
        (["recover", "--p", "211", "--e", "30"],
         {"algorithm": None, "trials": None, "output": None, "timing": None,
          "seed": None}),
        (["bench", "--p", "211", "--e", "30"], {"algorithms": None, "trials": None}),
    ],
)
def test_config_null_is_the_flags_default(tmp_path, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out = run_main(argv)
    assert code == 0 and out
    assert run_main(["--config", str(cfg), *argv]) == (0, out)


def test_bench_single_cell():
    code, out = run_main(
        ["bench", "--p", "13", "--e", "12", "--trials", "2", "--seed", "1",
         "--algorithms", "interpolation", "large_e"]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["algorithm"] for r in rows} == {"interpolation", "large_e"}
    interp = next(r for r in rows if r["algorithm"] == "interpolation")
    assert interp["max_calls"] == 13
    assert interp["interpolation_baseline"] == 13
    # at d = 1 a call rules out one shift: p - 1 calls in the worst case
    assert [r["calls_bound"] for r in rows] == [12, 12]
    assert list(interp)[-2:] == ["interpolation_baseline", "calls_bound"]
    # at d = 7, N_3 = 400 >= 211 > N_2 = 57
    code, out = run_main(
        ["bench", "--p", "211", "--e", "30", "--trials", "1", "--algorithms", "zero_call_narrow"]
    )
    assert code == 0
    assert [json.loads(line)["calls_bound"] for line in out.strip().splitlines()] == [3]


def test_bench_reproducible():
    argv = ["bench", "--p", "211", "--e", "30", "--trials", "5", "--seed", "9"]
    assert run_main(argv) == run_main(argv)


def test_csv_and_table_output():
    code, out = run_main(
        ["recover", "--p", "13", "--e", "3", "--s", "5", "--output", "csv"]
    )
    assert code == 0
    header = out.splitlines()[0]
    assert "oracle_calls" in header.split(",")
    code, out = run_main(
        ["recover", "--p", "13", "--e", "3", "--s", "5", "--output", "table"]
    )
    assert code == 0
    assert "oracle_calls" in out.splitlines()[0]


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 13, "e": 3, "s": 5, "seed": 3}))
    code, out = run_main(["--config", str(cfg), "recover"])
    assert code == 0
    assert json.loads(out.strip())["s"] == 5
    # explicit flag beats the config value
    code, out = run_main(["--config", str(cfg), "recover", "--s", "6"])
    assert code == 0
    assert json.loads(out.strip())["s"] == 6


def test_config_fills_every_flag_left_at_its_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    argv = ["recover", "--p", "13", "--e", "3"]
    cfg.write_text(json.dumps({"trials": 3, "output": "table", "seed": 4}))
    code, out = run_main(["--config", str(cfg), *argv])
    assert code == 0
    assert out == run_main([*argv, "--trials", "3", "--output", "table", "--seed", "4"])[1]
    cfg.write_text(json.dumps({"timing": True}))
    code, out = run_main(["--config", str(cfg), *argv])
    assert "wall_time" in json.loads(out)
    # the parser is shared by every call: a config must not have changed it
    code, out = run_main(argv)
    assert "wall_time" not in json.loads(out)  # one JSON row
    assert out == run_main([*argv, "--seed", "0"])[1]


def test_explicit_flag_at_its_default_beats_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 2, "output": "table", "seed": 4}))
    argv = ["recover", "--p", "13", "--e", "3"]
    code, out = run_main(["--config", str(cfg), *argv, "--trials", "1"])
    assert code == 0
    assert out == run_main([*argv, "--output", "table", "--seed", "4"])[1]
    assert len(out.splitlines()) == 2  # the table's header and one row
    code, out = run_main(
        ["--config", str(cfg), *argv, "--output", "json", "--seed", "0"]
    )
    assert code == 0
    assert out == run_main([*argv, "--trials", "2"])[1]


@pytest.mark.parametrize(
    "config",
    [
        {"p": "13", "e": 3},
        {"p": 13, "e": 3, "trials": True},
        {"p": 13, "e": 3, "output": "xml"},
        {"p": 13, "e": 3, "lemma": "psi"},  # a flag of another subcommand
        {"p": 13, "e": 3, "command": "lab"},
        [13, 3],
        {"p": 13, "e": 3, "window_cap": 4},  # no subcommand's
    ],
)
def test_bad_config_is_config_error(tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_main(["--config", str(cfg), "recover"]) == (2, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "--p", "13", "--e", "3", "--lemma", "psi"],
        ["identity", "--p", "13", "--e", "3", "--trials", "3"],
        ["lab", "--lemma", "coset_run", "--p", "13", "--e", "3", "--algorithm", "x"],
        # not an abbreviation of bench's own --algorithms
        ["bench", "--p", "13", "--e", "3", "--algorithm", "interpolation"],
        # no subcommand takes a window cap: every window is capped at p - 1
        ["recover", "--p", "383", "--e", "191", "--s", "7", "--window-cap", "0"],
        ["bench", "--p", "13", "--e", "3", "--window-cap", "0"],
        ["identity", "--p", "13", "--e", "3", "--s", "1", "--window-cap", "4"],
    ],
)
def test_flag_of_another_subcommand_exits_2(argv):
    assert run_main(argv) == (2, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "--p", "13", "--e", "3", "--epsilon", "1"],
        ["recover", "--p", "13", "--e", "3", "--epsilon", "0.05"],
        ["bench", "--p", "13", "--e", "3", "--epsilon", "0.5"],
        ["identity", "--p", "13", "--e", "3", "--epsilon", "1"],
    ],
)
def test_recovery_takes_no_epsilon(tmp_path, capsys, argv):
    # neither the smooth pigeonhole's witnesses nor the identity windows
    # take an epsilon (theoretical windows read the constant EPSILON): a
    # usage error, and a config error in a --config file
    assert run_main(argv) == (2, "")
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 0.05}))
    assert run_main(["--config", str(cfg), *argv[:-2]]) == (2, "")
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("key", ["window_cap", "window-cap"])
def test_identity_takes_no_window_cap(tmp_path, capsys, key):
    # every window is capped at p - 1; test_recovery_takes_no_epsilon covers
    # identity's epsilon alike
    argv = ["identity", "--p", "13", "--e", "3", "--s", "1"]
    assert run_main([*argv, "--window-cap", "4"]) == (2, "")
    assert "unrecognized arguments: --window-cap 4" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 4}))
    assert run_main(["--config", str(cfg), *argv]) == (2, "")
    assert capsys.readouterr().err == f"config error: identity takes no config key {key!r}\n"


def test_known_command_lines_exit_0(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"p": 1009, "u": 3, "v": 5, "H": 260}]))
    command_lines = [
        # one of each kind the benchmark's cli_lab workload runs
        ["lab", "--lemma", "hyperbola", "--grid", str(grid)],
        ["recover", "--p", "211", "--e", "30", "--seed", "5", "--trials", "5",
         "--algorithm", "large_e"],
        ["bench", "--p", "1009", "--e", "12", "--trials", "5", "--seed", "8",
         "--algorithms", "interpolation", "zero_call_narrow", "randomized"],
        ["identity", "--p", "401", "--e", "20", "--s", "7", "--seed", "3", "--t", "9"],
        ["identity", "--p", "211", "--e", "30", "--s", "7", "--seed", "3"],
        # the four of acceptance criterion 10
        ["recover", "--p", "1009", "--e", "12", "--algorithm", "randomized",
         "--seed", "42", "--trials", "5"],
        ["bench", "--p", "211", "--e", "30", "--trials", "5", "--seed", "9"],
        ["identity", "--p", "211", "--e", "30", "--seed", "4"],
        ["lab", "--lemma", "coset_run", "--p", "211", "--e", "30"],
    ]
    for argv in command_lines:
        code, out = run_main(argv)
        assert code == 0, argv
        assert out, argv


def test_parser_built_once_per_process(monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        argvs = [
            ["recover", "--p", "13", "--e", "3", "--s", "5"],
            ["identity", "--p", "13", "--e", "3", "--s", "4", "--t", "4"],
            ["lab", "--lemma", "coset_run", "--p", "13", "--e", "3"],
            ["bench", "--p", "13", "--e", "3", "--trials", "2"],
        ]
        for argv in (argvs * 3)[:10]:
            assert run_main(argv)[0] == 0
    finally:
        cli.build_parser.cache_clear()
    # one top-level parser and one sub-parser per subcommand, all from one build
    assert progs == ["shiftbreak"] + [f"shiftbreak {name}" for name in cli.SUBCOMMANDS]


def test_usage_error_and_help_leave_the_parser_unchanged():
    argv = ["bench", "--p", "211", "--e", "30", "--trials", "3", "--seed", "2"]
    code, out = run_main(argv)
    assert code == 0
    assert run_main(["bench", "--p", "211", "--e", "30", "--trials", "x"]) == (2, "")
    code, help_text = run_main(["bench", "--help"])
    assert code == 0 and "--algorithms" in help_text and "--lemma" not in help_text
    assert run_main(argv) == (0, out)


@pytest.mark.parametrize(
    "argv, grid",
    [
        (["recover", "--p", "13", "--e", "3", "--trials", "-1"], None),
        (["bench", "--p", "13", "--e", "3", "--trials", "0"], None),
        (["bench", "--p", "13", "--e", "3", "--trials", "-1"], None),
        (["lab", "--lemma", "psi"], [{"x": 0, "y": 3}]),
        (["lab", "--lemma", "energy"], [{"p": 13, "a": 0, "H": -2}]),
        (["lab", "--lemma", "hyperbola"], [{"p": 13, "u": 0, "v": 5, "H": 0}]),
        # no trial would reach the algorithm, so its name is never checked
        (["recover", "--p", "13", "--e", "3", "--trials", "0", "--algorithm", "nope"], None),
        (["bench", "--p", "13", "--e", "3", "--trials", "0", "--algorithms", "nope"], None),
        # trials are checked before the field: e = 7 does not divide 12, and
        # 12 is not prime
        (["recover", "--p", "13", "--e", "7", "--trials", "0"], None),
        (["bench", "--p", "12", "--e", "3", "--trials", "0"], None),
        (["lab", "--lemma", "product_J"], [{"p": 13, "nu": -2, "lam": 1, "s": 0, "h": 3}]),
        (["lab", "--lemma", "product_J"], [{"p": 13, "nu": 2, "lam": 1, "s": 0, "h": 0}]),
        (["lab", "--lemma", "product_set"], [{"p": 13, "nu": 2, "s": 1, "h": -5}]),
        (["lab", "--lemma", "product_set"], [{"p": 13, "nu": 0, "s": 1, "h": 3}]),
    ],
)
def test_out_of_range_value_is_config_error(tmp_path, capsys, argv, grid):
    if grid is not None:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        argv = argv + ["--grid", str(path)]
    assert run_main(argv) == (2, "")
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "lemma, cell",
    [
        ("hyperbola", {"p": 12, "u": 0, "v": 5, "H": 3}),
        ("hyperbola", {"p": 1, "u": 0, "v": 5, "H": 3}),
        ("energy", {"p": 1, "a": 0, "H": 3}),
        ("energy", {"p": 12, "a": 0, "H": 3}),
    ],
)
def test_lab_counter_on_a_composite_p_exits_2(tmp_path, capsys, lemma, cell):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([cell]))
    assert run_main(["lab", "--lemma", lemma, "--grid", str(path)]) == (2, "")
    assert capsys.readouterr().err == f"error: p={cell['p']} is not prime\n"


@pytest.mark.parametrize("flag, value", [("--t", "18"), ("--t", "-8"), ("--s", "18")])
def test_identity_shift_outside_the_field_exits_2(capsys, flag, value):
    argv = ["identity", "--p", "13", "--e", "3", "--s", "5", "--t", "5"]
    argv[argv.index(flag) + 1] = value
    assert run_main(argv) == (2, "")
    assert capsys.readouterr().err == f"error: {flag[2:]}={value} outside [0, 13)\n"


def test_identity_exact_windows_beyond_the_old_caps():
    # known t: the coset-run window needs no table over the field
    code, out = run_main(
        ["identity", "--p", "1000003", "--e", "6", "--s", "5", "--t", "5"]
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "equal"
    # unknown t: the exhaustive window is O(p^2) and stops at p = 10^4
    assert run_main(["identity", "--p", "1000000009", "--e", "8"]) == (4, "")


def _recover_calls(argv):
    code, out = run_main(["recover", *argv])
    assert code == 0, argv
    return [json.loads(line)["oracle_calls"] for line in out.splitlines()]


@pytest.mark.parametrize(
    "p, e, want",
    [(100003, 50001, [17, 16, 17]), (1000003, 333334, [13, 13, 13])],
    ids=["d2", "d3"],
)
def test_narrowing_of_whole_cosets_at_small_d_is_pinned(p, e, want):
    # at d = 2 and d = 3 the zero-call seed is a whole coset t0*G_e, and
    # round 1 evaluates one point per coset of G_e: the calls are those of a
    # scan that evaluates every point
    argv = ["--p", str(p), "--e", str(e), "--algorithm", "zero_call_narrow"]
    assert _recover_calls([*argv, "--trials", "3", "--seed", "1"]) == want


def test_smooth_narrowing_stays_within_e_plus_1_calls():
    # the smooth pigeonhole queries x = 0, 1 with least-nonresidue
    # witnesses: at p = 257, e = 2 no recovery may use more than the
    # e + 1 = 3 calls of interpolation.  At s = 0, x = 0 answers 0 and
    # leaves one candidate, so x = 1 is not queried: 1 call
    argv = ["--p", "257", "--e", "2", "--algorithm", "smooth_narrow"]
    calls = _recover_calls([*argv, "--trials", "5", "--seed", "1"])
    assert len(calls) == 5 and max(calls) <= 3, calls
    assert _recover_calls([*argv, "--s", "0"]) == [1]


def test_identity_windows_are_capped_and_e_6_narrows_in_one_round_at_2_61():
    # a theoretical identity window above LOOP_CAP (unknown t at
    # e = (p-1)/2, h ~ 2.7e12) is a typed resource cap (exit 4) before any
    # query; known t at e = 1001 runs with h = 8
    p = str(2**61 - 1)
    argv = ["identity", "--p", p, "--e", str((2**61 - 2) // 2), "--s", "5"]
    assert run_main([*argv, "--mode", "theoretical"])[0] == 4
    argv = ["identity", "--p", p, "--e", "1001", "--s", "5", "--t", "5"]
    code, out = run_main([*argv, "--mode", "theoretical"])
    row = json.loads(out)
    assert (code, row["h"], row["verdict"]) == (0, 8, "equal")
    # one narrowing round splits the 6 candidates of e = 6 into singletons:
    # 2 calls, one "narrow" round
    argv = ["recover", "--p", p, "--e", "6", "--algorithm", "zero_call_narrow"]
    code, out = run_main([*argv, "--trials", "5", "--seed", "1"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(rows) == 5
    for r in rows:
        assert r["oracle_calls"] == 2, r
        assert {b[0] for b in r["phase_breakdown"]} == {"narrow"}, r


def test_config_nan_epsilon_is_config_error(tmp_path, capsys):
    # json reads NaN, and identity takes no epsilon key at all
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epsilon": NaN, "mode": "theoretical"}')
    argv = ["--config", str(cfg), "identity", "--p", "211", "--e", "30", "--s", "5"]
    assert run_main(argv) == (2, "")
    assert capsys.readouterr().err == "config error: identity takes no config key 'epsilon'\n"


def test_exit_codes():
    code, _ = run_main(["recover", "--p", "13"])  # missing e
    assert code == 2
    code, _ = run_main(["recover", "--p", "13", "--e", "3", "--algorithm", "nope"])
    assert code == 2
    code, _ = run_main(["lab", "--lemma", "unheard_of", "--p", "13"])
    assert code == 2


@pytest.mark.parametrize(
    "lemma, flags, key",
    [("psi", [], "x"), ("hyperbola", ["--e", "3"], "u"), ("coset_run", [], "e")],
)
def test_lab_missing_cell_key_is_config_error(capsys, lemma, flags, key):
    code, out = run_main(["lab", "--lemma", lemma, "--p", "13", *flags])
    assert code == 2
    assert out == ""
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, grid",
    [
        (["lab", "--lemma", "psi"], [5]),
        (["bench"], [5]),
        (["bench"], [{"p": 13}]),
        # an integer key must hold an int, and a bool is not one
        (["lab", "--lemma", "psi"], [{"x": "100", "y": 3}]),
        (["lab", "--lemma", "coset_run"], [{"p": 13.0, "e": 3}]),
        (["bench"], [{"p": 13, "e": True}]),
        (["lab", "--lemma", "subgroup_shift"], [{"p": 13, "e": 3, "shifts": [[1, 2, 3]]}]),
        (["lab", "--lemma", "product_set"], [{"p": 13, "nu": 2, "s": 1, "t": "2", "h": 3}]),
    ],
)
def test_malformed_grid_is_config_error(tmp_path, argv, grid):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    assert run_main(argv + ["--grid", str(path)]) == (2, "")


def test_bench_builds_context_once_per_cell(monkeypatch):
    calls = []
    make_context = cli.fc.make_context

    def counting(p):
        calls.append(p)
        return make_context(p)

    monkeypatch.setattr(cli.fc, "make_context", counting)
    code, out = run_main(["bench", "--p", "211", "--e", "30", "--trials", "5"])
    assert code == 0
    assert len(out.splitlines()) == 3  # one row per default algorithm
    assert calls == [211]


def test_identity_factors_p_minus_1_once(monkeypatch):
    # run_identity and the cold exact known-t window share one cached
    # context, and e's factors are read off p - 1: p - 1 is the only number
    # factored
    cli.fc.make_context.cache_clear()
    it.window.cache_clear()
    calls = []
    factorize = cli.fc.factorize

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(cli.fc, "factorize", counting)
    argv = ["identity", "--p", str(RHO_PRIME), "--e", "2", "--s", "5", "--t", "5"]
    code, out = run_main(argv)
    assert code == 0
    assert json.loads(out)["verdict"] == "equal"
    assert calls == [RHO_PRIME - 1]


def test_console_script_installed():
    out = run_python(["-m", "shiftbreak.cli", "recover", "--p", "13", "--e", "3", "--s", "5"], 60)
    assert out.returncode == 0
    assert json.loads(out.stdout.strip())["recovered"] == 5


def _run_cli_under_1_gib(argv, python_args=("-m", "shiftbreak.cli")):
    """`shiftbreak argv` (or `python python_args argv`) in a subprocess with
    1 GiB of address space and a 60 s bound."""
    return run_python([*python_args, *argv], 60, address_space=2**30)


M61 = str(2**61 - 1)
RHO_PRIME = 1126844094631811327
ABOVE_THE_CAP = [
    # e = (p-1)/2 is a 39-bit prime: each algorithm stops with a typed
    # resource cap, not a MemoryError (exit 1) or e + 1 queries
    pytest.param(
        ["recover", "--p", "1099511628443", "--e", "549755814221", "--algorithm", a],
        id=a,
    )
    for a in sr.ALGORITHMS
] + [
    # the theoretical unknown-t window of about 2.7e12 probes, on an equal
    # pair (the seed's first draw makes t = s), passes LOOP_CAP
    pytest.param(
        ["identity", "--p", M61, "--e", str((2**61 - 2) // 2), "--mode",
         "theoretical", "--seed", "0", "--s", "888315200261588941"],
        id="identity_unknown_t_half_group",
    ),
    # e = 1000001 is just above EXHAUSTIVE_CAP: the large_e scan stops at the
    # same e cap as the other algorithms, not with a table over the field
    pytest.param(
        ["recover", "--p", "2000003", "--e", "1000001", "--algorithm", "large_e"],
        id="large_e_just_above_the_e_cap",
    ),
    # at the rho prime, e = (p-1)/2 = 527608327*1067879369 is above the e cap
    # of the exact known-t window
    pytest.param(
        ["identity", "--p", str(RHO_PRIME), "--e", str((RHO_PRIME - 1) // 2),
         "--s", "5", "--t", "5"],
        id="identity_known_t_rho_prime_half_group",
    ),
]


@pytest.mark.parametrize("argv", ABOVE_THE_CAP)
def test_e_above_the_cap_exits_4_under_1_gib(argv):
    out = _run_cli_under_1_gib(argv)
    assert out.returncode == 4, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith("resource cap:"), out.stderr


def test_known_t_window_past_the_plan_cap_under_1_gib():
    # at 2^61 - 1 and e = 11009324469 = 3*11*13*31*41*61*331 the theoretical
    # known-t window is ceil(e^0.3) = 1030 > PLAN_CAP probes, so an equal
    # pair runs the uncached tail of the probes, in bounded memory
    assert it.PLAN_CAP < 1030
    argv = ["identity", "--p", M61, "--e", "11009324469", "--s", "5", "--t", "5"]
    out = _run_cli_under_1_gib([*argv, "--mode", "theoretical"])
    assert out.returncode == 0, out.stderr
    row = json.loads(out.stdout)
    assert (row["verdict"], row["h"]) == ("equal", 1030)


# Runs every subcommand on one (p, e) cell through `cli.main`, and prints
# one JSON line [argv, exit code, stderr] per command line.
SWEEP_SCRIPT = r"""
import contextlib, io, json, sys
from shiftbreak import cli
from shiftbreak import shift_recovery as sr
cell = ["--p", sys.argv[1], "--e", sys.argv[2]]
commands = [["recover", *cell, "--s", "1", "--algorithm", a] for a in sr.ALGORITHMS]
for mode in ("exact", "theoretical"):
    commands += [["identity", *cell, "--mode", mode]]
    commands += [["identity", *cell, "--mode", mode, "--t", "2"]]
commands += [["bench", *cell, "--trials", "1"], ["lab", "--lemma", "coset_run", *cell]]
for argv in commands:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    print(json.dumps([argv, code, err.getvalue()]), flush=True)
"""

SAFE_PRIMES = (1099511627339, 140737488356903, 1152921504606843299)
SWEEP_CELLS = (
    [(3, 1), (3, 2)]
    + [(p, e) for p in SAFE_PRIMES for e in (2, (p - 1) // 2)]
    + [(2**61 - 1, (2**61 - 2) // 2), (RHO_PRIME, 2), (RHO_PRIME, 527608327)]
    + [(RHO_PRIME, (RHO_PRIME - 1) // 2)]
    + [(100003, 50001), (10000019, 5000009)]
)


def test_every_subcommand_exits_typed_on_adversarial_cells():
    # recover (every algorithm), identity (both modes, unknown and known t),
    # bench and lab on cells at the edges of the domain: each command
    # returns, or stops with a typed error and its label, within the bounds
    labels = {2: ("error: ", "config error: "), 4: ("resource cap: ",)}
    for p, e in SWEEP_CELLS:
        out = _run_cli_under_1_gib([str(p), str(e)], ("-c", SWEEP_SCRIPT))
        assert out.returncode == 0, (p, e, out.stderr)
        lines = out.stdout.splitlines()
        assert len(lines) == 11, (p, e, out.stdout)
        for line in lines:
            argv, code, err = json.loads(line)
            assert code in (0, 2, 4), (argv, code, err)
            assert code == 0 or err.startswith(labels[code]), (argv, code, err)
