"""Command-line interface: outputs, manifests, exit codes, reproducibility."""
import csv
import hashlib
import json
import math

import pytest

from conftest import TG_CV
from malthus.cli import main


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- age-model commands ----------------------------------------------------------


def test_age_curve_two_point_values(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main([
        "age-curve", "--beta", "0", "--alpha", "1.0",
        "--baseline", "twopoint:0.5,1.5", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert list(rows[0]) == ["beta", "alpha", "cv", "lambda", "lambda_reference", "solver_status"]
    assert len(rows) == 2  # degenerate anchor + requested point
    anchor, point = rows
    assert float(anchor["alpha"]) == 0.0 and float(anchor["cv"]) == 0.0
    assert abs(float(anchor["lambda"]) - 1.0) < 1e-9
    assert point["lambda"] == "0.8660254038"  # 10 significant digits
    assert abs(float(point["lambda"]) - math.sqrt(0.75)) < 1e-9
    for r in rows:
        assert abs(float(r["lambda_reference"]) - 1.0) < 1e-9
        assert r["solver_status"] == "ok"


def test_age_curve_multiple_betas(tmp_path):
    out = tmp_path / "curve.csv"
    assert main([
        "age-curve", "--beta", "1", "2", "--lag", "1", "--alpha", "0.2", "0.4",
        "--out", str(out),
    ]) == 0
    rows = read_csv(out)
    assert len(rows) == 6
    assert [float(r["beta"]) for r in rows] == [1, 1, 1, 2, 2, 2]
    for r in rows:
        assert abs(float(r["cv"]) - float(r["alpha"]) * TG_CV) < 1e-9


MALFORMED_LAWS = [
    "gauss:3,1,0.7", "gauss:0,2,-1", "gauss:0,inf,0.7", "twopoint:a,b",
    "twopoint:0.5,1.5,2", "twopoint:nan,1.5", "twopoint:1,1", "twopoint(0.5,1.5)",
]


def test_age_commands_reject_malformed_input(tmp_path, capsys):
    # malformed baselines are config errors, rejected by the law checks
    # (not by argparse) before any solve
    for flags in (
        *(["--baseline", law] for law in MALFORMED_LAWS),
        ["--beta", "-1"],
        ["--alpha", "nan"],
        ["--alpha", "-0.5"],
        ["--alpha", "1.5"],
        ["--alpha", "nan", "-0.5", "1.5"],
        ["--alpha", "0", "0.5", "nan"],
    ):
        argv = ["age-curve", "--beta", "0", "--alpha", "0.5", *flags, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2, flags
        assert capsys.readouterr().err.startswith("config error: "), flags
    for flags in (
        *(["--baseline", law] for law in MALFORMED_LAWS),
        ["--beta", "-1"],
        ["--alphas", "2"],
        ["--alphas", "-0.5"],
    ):
        argv = ["age-perturb", "--alphas", "0.2", *flags, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2, flags
        assert capsys.readouterr().err.startswith("config error: "), flags
    assert not (tmp_path / "x.csv").exists()
    # alpha = 0 is the anchor row of every curve, not an error
    assert main(["age-curve", "--beta", "0", "--alpha", "0", "--out", str(tmp_path / "x.csv")]) == 0
    assert [float(r["alpha"]) for r in read_csv(tmp_path / "x.csv")] == [0.0]


def test_age_commands_read_baseline_like_the_config(tmp_path, capsys):
    # one spelling of the rate law: --baseline takes every law baseline= does
    out = tmp_path / "u.csv"
    assert main(["age-curve", "--beta", "1", "--alpha", "0.5", "--baseline", "uniform:0.4,1.6", "--out", str(out)]) == 0
    anchor, point = read_csv(out)
    assert abs(float(point["cv"]) - 0.5 * 1.2 / math.sqrt(12.0)) < 1e-9
    assert float(point["lambda"]) < float(anchor["lambda"])
    for command, flags in (("age-curve", ["--beta", "1", "--alpha", "0.5"]), ("age-perturb", ["--alphas", "0.5"])):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "--baseline" in text and "gauss:0,2,0.7" in text
        assert not any(flag in text for flag in ("--vbar", "--sigma-eta", "--vmin", "--vmax")), command
        assert main([command, *flags, "--vbar", "1", "--out", str(tmp_path / "x.csv")]) == 2
        assert "unrecognized arguments: --vbar" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_age_curve_output_is_pinned(tmp_path):
    # the beta grid of scripts/run_exponent_curves.py, integer and fractional;
    # the digest guards the age-model values against quadrature changes
    out = tmp_path / "curve.csv"
    assert main([
        "age-curve", "--beta", "0", "0.25", "0.5", "0.75", "1", "2", "7", "--lag", "1",
        "--alpha", "0.1", "0.5", "1", "--out", str(out),
    ]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "39a6ae150839c0b4"


def test_age_perturb_rows(tmp_path):
    out = tmp_path / "perturb.csv"
    rc = main(["age-perturb", "--b-const", "1.0", "--alphas", "0.2", "0.1", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert [float(r["alpha"]) for r in rows] == [0.0, 0.1, 0.2]
    zero = rows[0]
    assert float(zero["lambda_exact"]) == float(zero["lambda_quadratic_approx"]) == 1.0
    assert float(zero["residual"]) == 0.0 and float(zero["dlambda_dalpha"]) == 0.0
    d2 = {r["d2_at_zero"] for r in rows}
    assert len(d2) == 1 and float(d2.pop()) < 0.0
    for r in rows[1:]:
        assert float(r["lambda_exact"]) < 1.0  # variability lowers the exponent
        assert abs(float(r["residual"])) < 1e-3
        assert float(r["dlambda_dalpha"]) < 0.0


def test_age_perturb_reads_lag_only_with_beta(tmp_path, capsys):
    # --lag is the onset of the --beta rate; a constant rate has none, so a
    # given --lag exits 2 instead of being ignored
    out = tmp_path / "x.csv"
    for lag in ("3", "-3", "1"):
        assert main(["age-perturb", "--b-const", "1.0", "--lag", lag, "--alphas", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: --lag")
    assert not out.exists()
    # under --beta an omitted --lag means 1.0, as the help says
    written = []
    for lag in ([], ["--lag", "1"], ["--lag", "2"]):
        assert main(["age-perturb", "--beta", "2", *lag, "--alphas", "0.5", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1] != written[2]
    assert main(["age-perturb", "--help"]) == 0
    assert "(default 1.0)" in " ".join(capsys.readouterr().out.split())


# --- size-model commands ---------------------------------------------------------


CFG = "rows=0.4:5,0.2:4.5\nM=4\nseed=9\n"


def test_size_mc_output_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, "# comment line\n" + CFG)
    out = tmp_path / "table.csv"
    assert main(["size-mc", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert list(rows[0]) == ["cv", "alpha", "T", "mean", "sd", "ci_low", "ci_high",
                             "pop_mean", "pop_min", "pop_max"]
    assert [float(r["alpha"]) for r in rows] == [0.4, 0.2]
    assert [float(r["T"]) for r in rows] == [5.0, 4.5]
    for r in rows:
        assert abs(float(r["cv"]) - float(r["alpha"]) * TG_CV) < 1e-9
        assert float(r["ci_low"]) <= float(r["mean"]) <= float(r["ci_high"])
        assert float(r["pop_min"]) > 0

    man = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert man["command"] == "size-mc"
    assert man["seed"] == 9
    assert "rows=0.4:5,0.2:4.5" in man["config"]
    assert "estimator=biomass" in man["config"]  # defaults are resolved into the manifest
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert man["outputs"][str(out)] == digest
    assert man["started"] <= man["finished"]


def test_size_mc_rerun_is_byte_identical(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, CFG)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    monkeypatch.setenv("MALTHUS_THREADS", "1")
    assert main(["size-mc", "--config", cfg, "--out", str(a)]) == 0
    assert main(["size-mc", "--config", cfg, "--out", str(b)]) == 0
    monkeypatch.setenv("MALTHUS_THREADS", "2")
    assert main(["size-mc", "--config", cfg, "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_size_mc_table_opens_one_pool(tmp_path, monkeypatch):
    # every row of a table runs on one pool of worker processes
    import concurrent.futures

    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kw):
            opened.append(kw.get("max_workers"))
            super().__init__(*args, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    argv = ["size-mc", "--set", "rows=0.4:4,0.2:4.5,0.6:4", "--set", "M=4", "--set", "seed=3"]
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    monkeypatch.setenv("MALTHUS_THREADS", "1")
    assert main([*argv, "--out", str(one)]) == 0
    assert opened == []
    monkeypatch.setenv("MALTHUS_THREADS", "2")
    assert main([*argv, "--out", str(two)]) == 0
    assert opened == [2]
    assert one.read_bytes() == two.read_bytes()


def test_size_mc_set_overrides(tmp_path):
    cfg = write_cfg(tmp_path, CFG)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["size-mc", "--config", cfg, "--out", str(a)]) == 0
    assert main(["size-mc", "--config", cfg, "--set", "seed=10", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()
    man = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert man["seed"] == 10


def test_size_mc_config_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    cfg = write_cfg(tmp_path, CFG)
    assert main(["size-mc", "--out", out]) == 2  # defaults carry no rows
    assert main(["size-mc", "--config", str(tmp_path / "nope.cfg"), "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "growth=cubic", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "kernel=ar:1.5", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "division.x0=-1", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "M", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "rows=0.4:-1", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "M=1", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "M=abc", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "seed=x", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "rows=a:4", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "seed=-1", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "baseline=uniform:0,inf", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "split=asym:0.1,0.2", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "growth=exp:1", "--out", out]) == 2
    bad = write_cfg(tmp_path, "rows 0.4:5\n", name="bad.cfg")
    assert main(["size-mc", "--config", bad, "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "rows=0.4:5;0.2:4.5", "--out", out]) == 2
    assert main(["size-mc", "--config", cfg, "--set", "estimator=median", "--out", out]) == 2
    typo = write_cfg(tmp_path, CFG + "divison.beta=3\n", name="typo.cfg")
    assert main(["size-mc", "--config", typo, "--out", out]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["size-mc", "--set", "rows=0.4:4", "--set", "M=2", "--set", "divison.beta=3"],
        ["estimator-compare", "--horizons", "4", "--m", "2", "--set", "estimator=count"],
        ["estimator-compare", "--horizons", "4", "--m", "2", "--set", "M=7"],
        ["tree-dump", "--set", "seed=5"],
        ["tree-dump", "--set", "M=7"],
        ["tree-dump", "--set", "rows=bogus"],
    ],
    ids=["mc-typo", "cmp-estimator", "cmp-M", "dump-seed", "dump-M", "dump-rows"],
)
def test_keys_a_command_does_not_read_are_config_errors(tmp_path, monkeypatch, capsys, argv):
    # a misspelt or foreign key exits 2 before any tree runs, never ignored
    def refuse(*args, **kw):
        raise AssertionError("a tree ran")

    monkeypatch.setattr("malthus.estimator.group_measures", refuse)
    monkeypatch.setattr("malthus.cli.simulate_tree", refuse)
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_contracting_a_degenerate_baseline_is_a_config_error(tmp_path, capsys):
    # Dirac.contract raises inside the commands' config errors: exit 2
    out = tmp_path / "x.csv"
    dirac = ["--set", "baseline=dirac:1"]
    assert main(["size-mc", *dirac, "--set", "rows=0:4,0.5:4", "--set", "M=2", "--out", str(out)]) == 2
    assert main(["tree-dump", *dirac, "--alpha", "0.5", "--horizon", "4", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("config error: alpha > 0 requires a non-degenerate baseline") == 2


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_malformed_thread_count_is_a_config_error(tmp_path, monkeypatch, capsys, threads):
    # exit code 2 before any tree runs, not a table of error rows
    monkeypatch.setenv("MALTHUS_THREADS", threads)
    out = tmp_path / "x.csv"
    assert main(["size-mc", "--set", "rows=0.4:4,0.2:4", "--set", "M=2", "--out", str(out)]) == 2
    assert main(["estimator-compare", "--horizons", "4", "--m", "2", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("MALTHUS_THREADS must be a positive integer") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["estimator-compare", "--horizons", "4", "--m", "1"],
        ["estimator-compare", "--horizons", "4", "--m", "2", "--seed", "-1"],
        ["estimator-compare", "--horizons", "4", "-1", "--m", "2"],
        ["estimator-compare", "--horizons", "4", "nan", "--m", "2"],
        ["estimator-compare", "--horizons", "nan", "4", "--m", "2"],
        ["estimator-compare", "--horizons", "4", "inf", "--m", "2"],
        ["tree-dump", "--seed", "-1"],
        ["tree-dump", "--stream", "-1"],
    ],
    ids=["m1", "seed", "horizon", "horizon-nan-last", "horizon-nan-first", "horizon-inf", "dump-seed", "dump-stream"],
)
def test_malformed_numeric_flags_are_config_errors(tmp_path, monkeypatch, argv):
    # exit code 2 before any tree runs
    def refuse(*args, **kw):
        raise AssertionError("a tree ran")

    monkeypatch.setattr("malthus.estimator.group_measures", refuse)
    monkeypatch.setattr("malthus.cli.simulate_tree", refuse)
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["tree-dump", "--seed", "18446744073709551617"],
        ["tree-dump", "--stream", "18446744073709551616"],
        ["estimator-compare", "--horizons", "4", "--m", "2", "--seed", "18446744073709551617"],
        ["size-mc", "--set", "rows=0.4:4", "--set", "M=2", "--set", "seed=18446744073709551617"],
    ],
    ids=["dump-seed", "dump-stream", "cmp-seed", "mc-seed"],
)
def test_seeds_and_streams_past_2_64_are_config_errors(tmp_path, monkeypatch, capsys, argv):
    # 2^64 + 1 would run the trees of seed 1, and 2^64 those of stream 0
    def refuse(*args, **kw):
        raise AssertionError("a tree ran")

    monkeypatch.setattr("malthus.estimator.group_measures", refuse)
    monkeypatch.setattr("malthus.cli.simulate_tree", refuse)
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not any(tmp_path.iterdir())


def test_failed_run_names_its_exception_type(tmp_path, monkeypatch, capsys):
    # exit code 1, and the message keeps the type and the failing stream
    def fail(config, streams, times):
        raise RuntimeError("boom")

    monkeypatch.setattr("malthus.estimator.group_measures", fail)
    out = tmp_path / "x.csv"
    assert main(["estimator-compare", "--horizons", "4", "--m", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: RuntimeError: tree on stream 0 failed: boom\n"
    assert not out.exists()


def test_size_mc_alpha_zero_first_row_keeps_baseline(tmp_path):
    # the table's baseline is the configured law, not the first row's law
    out = tmp_path / "t.csv"
    assert main(["size-mc", "--set", "rows=0:4,0.5:4", "--set", "M=2", "--out", str(out)]) == 0
    zero, half = read_csv(out)
    assert float(zero["cv"]) == 0.0 and float(zero["sd"]) < 1e-12
    assert abs(float(half["cv"]) - 0.5 * TG_CV) < 1e-9
    assert float(half["sd"]) > 0.0


# SHA-256 prefixes of small outputs, pinned to guard byte identity across
# refactors: all three samplers (inverse transform, linear-growth inverse
# transform, thinning), both kernels and splits, both growth laws and a
# kernel-drawn root rate; then the age model's quadratic expansion in alpha,
# for a power-lag and a constant rate
PINNED = [
    (["size-mc", "--set", "rows=0.3:7,0.8:7.5", "--set", "M=6", "--set", "seed=4"], "0f913823dc64b45d"),
    (["size-mc", "--set", "rows=0.5:7", "--set", "M=5", "--set", "seed=2", "--set", "baseline=uniform:0.4,1.6",
      "--set", "kernel=ar:0.5", "--set", "split=asym:0.2"], "20514ebd5808e7a7"),
    (["size-mc", "--set", "rows=0.6:9", "--set", "M=4", "--set", "seed=3", "--set", "baseline=twopoint:0.5,1.5",
      "--set", "growth=linear", "--set", "root_rate=kernel"], "0d35beddac9edc81"),
    (["size-mc", "--set", "rows=0.4:6", "--set", "M=4", "--set", "seed=5", "--set", "division.mode=unit_time"],
     "44ebbe717c5689b0"),
    (["tree-dump", "--alpha", "0.3", "--horizon", "7", "--seed", "1", "--set", "division.mode=unit_time",
      "--set", "split=asym:0.1", "--set", "kernel=ar:0.5"], "8a527d89c55f84df"),
    (["tree-dump", "--alpha", "0.7", "--horizon", "8", "--seed", "2", "--set", "growth=linear",
      "--set", "baseline=uniform:0.4,1.6", "--set", "root_rate=kernel"], "67efd0bf229450c8"),
    (["age-perturb", "--beta", "2", "--lag", "1", "--alphas", "0.2", "0.5"], "4e27787e3942146a"),
    (["age-perturb", "--b-const", "1.0", "--alphas", "0.2", "0.5"], "1f80fdc2b094427e"),
]


@pytest.mark.parametrize("argv, digest", PINNED, ids=[f"{a[0]}-{i}" for i, (a, _) in enumerate(PINNED)])
def test_outputs_match_pinned_digests(tmp_path, monkeypatch, argv, digest):
    monkeypatch.setenv("MALTHUS_THREADS", "1")
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


def test_size_mc_alternative_laws_run(tmp_path):
    cfg = write_cfg(tmp_path, "rows=0.5:4\nM=3\nseed=2\nbaseline=uniform:0.4,1.6\nkernel=ar:0.5\nsplit=asym:0.2\n")
    out = tmp_path / "u.csv"
    assert main(["size-mc", "--config", cfg, "--out", str(out)]) == 0
    [row] = read_csv(out)
    assert float(row["pop_min"]) > 0


def test_tree_dump_genealogy(tmp_path):
    out = tmp_path / "tree.csv"
    assert main(["tree-dump", "--alpha", "0", "--horizon", "4", "--seed", "3",
                 "--stream", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert list(rows[0]) == ["id_path", "parent_path", "b", "zeta", "xi", "tau", "d"]
    assert rows[0]["id_path"] == "" and rows[0]["parent_path"] == ""
    assert float(rows[0]["b"]) == 0.0
    paths = [r["id_path"] for r in rows]
    assert len(set(paths)) == len(paths) > 3
    for r in rows[1:]:
        assert r["id_path"][:-1] == r["parent_path"]
        assert r["id_path"][-1] in "01"
        assert abs(float(r["d"]) - float(r["b"]) - float(r["zeta"])) < 1e-8


def test_estimator_compare_output(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["estimator-compare", "--alpha", "0.3", "--horizons", "5", "6",
                 "--m", "4", "--seed", "2", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert list(rows[0]) == ["T", "sd_biomass", "sd_count"]
    assert [float(r["T"]) for r in rows] == [5.0, 6.0]
    for r in rows:
        assert float(r["sd_biomass"]) > 0 and float(r["sd_count"]) > 0


# --- driver ----------------------------------------------------------------------


def test_unknown_command_and_help(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert main(["size-mc", "--help"]) == 0
    capsys.readouterr()
