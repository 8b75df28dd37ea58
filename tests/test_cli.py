import dataclasses
import inspect
import json
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest

from kaleidobilliards import billiard, cli, geometry, pencil, stats
from kaleidobilliards.billiard import convergence_study, flatten_geometry
from kaleidobilliards.cli import main
from kaleidobilliards.errors import GeometryError
from kaleidobilliards.exact import energy_levels, levels_to_csv
from kaleidobilliards.geometry import (
    coincidence_normals,
    distinct_sector_orderings,
    geometry_from_inward_normals,
)
from kaleidobilliards.groups import group_from_masses, group_to_json
from kaleidobilliards.masses import (
    MassSequence,
    coxeter_spec,
    family_curve,
    feasibility_interval,
    symmetric_member,
    write_family_csv,
)
from kaleidobilliards.polynomials import HomogeneousPolynomial

H3_MASSES = ",".join(f"{m:.17g}" for m in symmetric_member(coxeter_spec("H3")).masses)


# -- sector deduplication --------------------------------------------------------

def test_h3_fig_masses_give_six_sectors():
    seq = MassSequence((0.44279, 0.03381, 0.08061, 0.44279))
    sectors = distinct_sector_orderings(seq)
    assert len(sectors) == 6
    assert sum(mult for _, mult in sectors) == 24
    assert all(mult == 4 for _, mult in sectors)


def test_equal_masses_give_one_sector():
    sectors = distinct_sector_orderings(MassSequence((1, 1, 1, 1)))
    assert len(sectors) == 1
    assert sectors[0][1] == 24


def test_generic_rational_masses_give_twelve_sectors():
    sectors = distinct_sector_orderings(MassSequence((3, 1, 2, 6)))
    assert len(sectors) == 12
    assert all(mult == 2 for _, mult in sectors)


@pytest.mark.parametrize("masses", [(1, 2, 3, 4), (3, 1, 2, 6)])
@pytest.mark.parametrize("scale", [1e-13, 1e-200])
def test_sector_classes_do_not_depend_on_mass_scale(masses, scale):
    # congruence is a property of the mass ratios
    scaled = MassSequence(tuple(scale * m for m in masses))
    assert distinct_sector_orderings(scaled) == distinct_sector_orderings(MassSequence(masses))


# -- classify ---------------------------------------------------------------------

def test_classify_integrable_stdout(capsys):
    code = main(["classify", "--masses", "3,1,2,6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "C3" in out and "integrable" in out


def test_classify_writes_json(tmp_path, capsys):
    out = tmp_path / "classify.json"
    code = main(["classify", "--masses", "1,1,1,1", "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert data["best"] == "A3"
    assert data["integrable"] is True
    assert os.path.exists(str(out) + ".meta.json")


EQUAL = ["--masses", "1,1,1,1"]
SECTOR = EQUAL + ["--ordering", "1,2,3,4"]

# Inputs rejected up front, by argparse or by validation; "{out}" is a fresh
# output directory, "{case}" an existing directory, "{cfg}" a file holding
# the row's text, and "{blocked}" a directory holding a directory
# m.csv.meta.json, a file sector_1234 and a directory st/sector_1234/spectrum.csv,
# which block paths derived from --output.
BAD_INPUTS = [
    ("missing ordering", ["geometry", *EQUAL, "--output", "{out}/g.json"], None),
    ("non-positive mass", ["classify", "--masses", "1,0,1,1"], None),
    ("three masses", ["billiard", "--masses", "1,1,1", "--ordering", "1,2,3",
                      "--output", "{out}/s.csv"], None),
    ("k zero", ["billiard", *SECTOR, "--k", "0", "--output", "{out}/s.csv"], None),
    ("k negative", ["billiard", *SECTOR, "--n-max", "10", "--k", "-2",
                    "--output", "{out}/s.csv"], None),
    ("k above the basis", ["billiard", *SECTOR, "--n-max", "10", "--k", "500",
                           "--output", "{out}/s.csv"], None),
    ("k above the smallest basis", ["weyl", *SECTOR, "--n-max", "10,20", "--k", "46",
                                    "--output", "{out}/w.csv"], None),
    ("n_max 1", ["billiard", *SECTOR, "--n-max", "1", "--output", "{out}/s.csv"], None),
    ("stats one truncation", ["stats", *EQUAL, "--n-max", "8", "--output", "{out}/st"], None),
    ("weyl one truncation", ["weyl", *SECTOR, "--n-max", "12", "--k", "5",
                             "--output", "{out}/w.csv"], None),
    ("stats one-entry grid", ["stats", *EQUAL, "--n-max-grid", "20", "--output", "{out}/st"],
     None),
    ("descending truncations", ["billiard", *SECTOR, "--n-max", "20,16",
                                "--output", "{out}/s.csv"], None),
    ("zero bins", ["stats", *EQUAL, "--bins", "0", "--output", "{out}/st"], None),
    ("negative family grid", ["family", "--spec", "C3", "--grid", "-3",
                              "--output", "{out}/f.csv"], None),
    ("empty family grid", ["family", "--spec", "C3", "--grid", "0",
                           "--output", "{out}/f.csv"], None),
    ("zero tolerance", ["stats", *EQUAL, "--tol-spacings", "0", "--output", "{out}/st"], None),
    ("negative tolerance", ["stats", *EQUAL, "--tol-spacings", "-0.5",
                            "--output", "{out}/st"], None),
    ("infinite tolerance", ["stats", *EQUAL, "--tol-spacings", "inf",
                            "--output", "{out}/st"], None),
    # the quadrature order is 3 n_max of the top truncation, never a setting
    ("quadrature order flag", ["billiard", *SECTOR, "--n-max", "10",
                               "--quadrature-order", "30", "--output", "{out}/s.csv"], None),
    ("weyl quadrature order flag", ["weyl", *SECTOR, "--n-max", "10,12",
                                    "--quadrature-order", "36", "--output", "{out}/w.csv"], None),
    ("stats quadrature order flag", ["stats", *EQUAL, "--n-max", "10,12",
                                     "--quadrature-order", "36", "--output", "{out}/st"], None),
    ("config quadrature order key", ["billiard", *SECTOR, "--config", "{cfg}",
                                     "--output", "{out}/s.csv"],
     '{"billiard": {"quadrature_order": 30}}'),
    ("ordering not a permutation", ["billiard", *EQUAL, "--ordering", "1,1,3,4",
                                    "--output", "{out}/s.csv"], None),
    ("missing config", ["billiard", *SECTOR, "--config", "{out}/absent.json",
                        "--output", "{out}/s.csv"], None),
    ("malformed config", ["billiard", *SECTOR, "--config", "{cfg}",
                          "--output", "{out}/s.csv"], '{"billiard": {"n_max": 16,'),
    ("config not an object", ["billiard", *SECTOR, "--config", "{cfg}",
                              "--output", "{out}/s.csv"], "[16]"),
    ("unknown group name", ["group", "--spec", "Z9", "--output", "{out}/g.json"], None),
    ("unknown group name beside masses", ["group", "--masses", "3,1,2,6", "--spec", "Z9",
                                          "--output", "{out}/g.json"], None),
    ("empty group name", ["exact", "--spec", "", "--output", "{out}/l.csv"], None),
    ("blank group name", ["family", "--spec", " ", "--output", "{out}/f.csv"], None),
    ("rank-2 group spec", ["group", "--spec", "I2(5)", "--output", "{out}/g.json"], None),
    ("rank-2 ground state", ["exact", "--spec", "I2(7)", "--output", "{out}/l.csv",
                             "--ground-state", "{out}/gs.json"], None),
    ("config string for an integer", ["billiard", *SECTOR, "--config", "{cfg}",
                                      "--output", "{out}/s.csv"], '{"billiard": {"n_max": "16"}}'),
    ("config float for an integer", ["billiard", *SECTOR, "--config", "{cfg}",
                                     "--output", "{out}/s.csv"], '{"billiard": {"k_levels": 4.0}}'),
    ("config string for bins", ["stats", *EQUAL, "--config", "{cfg}", "--output", "{out}/st"],
     '{"stats": {"bins": "x"}}'),
    ("config string in the mass list", ["billiard", "--ordering", "1,2,3,4", "--config", "{cfg}",
                                        "--output", "{out}/s.csv"], '{"masses": [1, "1", 1, 1]}'),
    ("config number for a path", ["billiard", *SECTOR, "--config", "{cfg}"], '{"output_path": 5}'),
    ("r_min nan", ["family", "--spec", "C3", "--r-min", "nan", "--grid", "3",
                   "--output", "{out}/f.csv"], None),
    ("r_min infinite", ["family", "--spec", "C3", "--r-min", "inf", "--grid", "3",
                        "--output", "{out}/f.csv"], None),
    ("r_max zero", ["family", "--spec", "C3", "--r-max", "0", "--grid", "3",
                    "--output", "{out}/f.csv"], None),
    ("r_max negative", ["family", "--spec", "C3", "--r-max=-0.5", "--grid", "3",
                        "--output", "{out}/f.csv"], None),
    ("e_max infinite", ["exact", "--spec", "H3", "--e-max", "inf", "--output", "{out}/l.csv"], None),
    ("e_max nan", ["exact", "--spec", "H3", "--e-max", "nan", "--output", "{out}/l.csv"], None),
    ("n_max not an integer", ["billiard", *SECTOR, "--n-max", "abc",
                              "--output", "{out}/s.csv"], None),
    ("unknown flag", ["billiard", *SECTOR, "--n-levels", "5", "--output", "{out}/s.csv"], None),
    ("ordering for stats", ["stats", *SECTOR, "--output", "{out}/st"], None),
    ("config key the command lacks", ["billiard", *SECTOR, "--config", "{cfg}",
                                      "--output", "{out}/s.csv"],
     '{"billiard": {"k": 5, "nmax": 8}}'),
    ("config grid key", ["billiard", *SECTOR, "--config", "{cfg}", "--output", "{out}/s.csv"],
     '{"billiard": {"n_max_grid": [10, 12]}}'),
    ("output a directory", ["billiard", *SECTOR, "--n-max", "6", "--k", "3",
                            "--output", "{case}"], None),
    ("weyl output a directory", ["weyl", *SECTOR, "--n-max", "6,8", "--k", "3",
                                 "--output", "{case}"], None),
    ("classify output a directory", ["classify", *EQUAL, "--output", "{case}"], None),
    ("output under a file", ["billiard", *SECTOR, "--n-max", "6", "--k", "3",
                             "--output", "{cfg}/s.csv"], ""),
    ("empty output", ["billiard", *SECTOR, "--n-max", "6", "--k", "3", "--output", ""], None),
    ("stats output a file", ["stats", *EQUAL, "--n-max", "6,8", "--k", "3",
                             "--output", "{cfg}"], ""),
    ("ground state under a file", ["exact", "--spec", "H3", "--e-max", "10", "--output",
                                   "{out}/l.csv", "--ground-state", "{cfg}/gs.json"], ""),
    ("metadata path a directory", ["billiard", *SECTOR, "--n-max", "6", "--k", "3",
                                   "--output", "{blocked}/m.csv"], None),
    ("sector path a file", ["stats", *EQUAL, "--n-max", "6,8", "--k", "3",
                            "--output", "{blocked}"], None),
    ("sector file a directory", ["stats", *EQUAL, "--n-max", "22,26", "--k", "70",
                                 "--tol-spacings", "0.5", "--output", "{blocked}/st"], None),
    ("ground state is the output", ["exact", "--spec", "H3", "--e-max", "10", "--output",
                                    "{out}/l.csv", "--ground-state", "{out}/l.csv"], None),
    ("ground state is the metadata", ["exact", "--spec", "H3", "--e-max", "10", "--output",
                                      "{out}/m.csv", "--ground-state", "{out}/m.csv.meta.json"],
     None),
    ("ground state under the output", ["exact", "--spec", "H3", "--e-max", "10", "--output",
                                       "{out}/l.csv", "--ground-state", "{out}/l.csv/gs.json"],
     None),
] + [
    (f"no ladder for {name}", ["exact", "--spec", name, "--output", "{out}/l.csv"], None)
    for name in ("H4", "F4", "A4", "C4")
]


def test_validation_failures_exit_2(tmp_path, capsys):
    for reason, argv, config_text in BAD_INPUTS:
        case = tmp_path / reason.replace(" ", "_")
        out, cfg, blocked = case / "out", case / "run.json", case / "blocked"
        (blocked / "m.csv.meta.json").mkdir(parents=True)
        (blocked / "sector_1234").write_text("")
        (blocked / "st" / "sector_1234" / "spectrum.csv").mkdir(parents=True)
        if config_text is not None:
            cfg.write_text(config_text)
        before = sorted(case.rglob("*"))
        code = main([a.replace("{out}", str(out)).replace("{case}", str(case))
                     .replace("{cfg}", str(cfg)).replace("{blocked}", str(blocked))
                     for a in argv])
        err = capsys.readouterr().err
        assert code == 2, f"{reason}: exit {code}"
        assert err.startswith("error: ") and err.count("\n") == 1, f"{reason}: {err!r}"
        assert sorted(case.rglob("*")) == before, f"{reason}: wrote a file"


# Runs that fail in the pipeline: (argv, error class, message detail); "{out}"
# is a fresh output directory
NUMERICAL_FAILURES = [
    # 1e-30 drops out of the pair sums, so this sector degenerates
    (["billiard", "--masses", "1e-30,1,1,1", "--ordering", "2,1,3,4", "--n-max", "6",
      "--k", "3", "--output", "{out}/bad.csv"],
     "GeometryError", "mass ratio 1.000e-30 is below float64 resolution"),
    # a ratio beyond float64's normal range scales the light mass to 0 ...
    (["billiard", "--masses", "1.7e308,1.7e308,5e-324,1e-300", "--ordering", "2,3,1,4",
      "--n-max", "6", "--k", "3", "--output", "{out}/b.csv"],
     "GeometryError", "mass ratio 5e-324/1.7e+308 is below float64's normal range"),
    # ... or to a subnormal, which leaves no warning on stderr
    (["group", "--masses", "5e-324,0.5,1e-20,0.182", "--spec", "I2(3)",
      "--output", "{out}/g.json"],
     "GeometryError", "mass ratio 5e-324/0.5 is below float64's normal range"),
    # no level drifts by less than 1e-4 spacings between such small truncations
    (["stats", *EQUAL, "--n-max", "3,4", "--k", "3", "--tol-spacings", "0.0001",
      "--output", "{out}/st"],
     "InsufficientLevelsError", "only 0 converged levels"),
]


def test_outputs_through_a_symlink_collide(tmp_path, capsys):
    (tmp_path / "alias").symlink_to(tmp_path)
    code = main(["exact", "--spec", "H3", "--e-max", "10", "--output", str(tmp_path / "l.csv"),
                 "--ground-state", str(tmp_path / "alias" / "l.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: two outputs need the path")
    assert [p.name for p in tmp_path.iterdir()] == ["alias"]


def test_numerical_failures_exit_3(tmp_path, capsys):
    for argv, error, detail in NUMERICAL_FAILURES:
        out = tmp_path / argv[0]
        code = main([a.replace("{out}", str(out)) for a in argv])
        err = capsys.readouterr().err
        assert code == 3, f"{argv[0]}: exit {code}"
        assert err.startswith(f"error: {error}") and err.count("\n") == 1, err
        assert detail in err
        assert not out.exists(), f"{argv[0]}: wrote a file"


def test_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    class _ArrayMemoryError(MemoryError):
        """Stands in for numpy's private subclass, raised by a failed np.empty."""

    def exhausted(*args, **kwargs):
        raise _ArrayMemoryError("Unable to allocate 1.13 TiB for an array")

    monkeypatch.setattr(billiard, "assemble", exhausted)
    out = tmp_path / "big.csv"
    code = main(["billiard", *SECTOR, "--n-max", "200", "--k", "5", "--output", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "error: MemoryError: Unable to allocate 1.13 TiB for an array\n"
    assert list(tmp_path.iterdir()) == []


# masses whose sums or products leave float64 range although their ratios do not
EXTREME_SCALES = [
    ["classify", "--masses", "1e308,1e308,1e308"],
    ["classify", "--masses", "1e-200,1e-200,1e-200"],
    ["classify", "--masses", "1e200,1e200,1e200,1e200"],
    ["geometry", "--masses", "1e-200,1e-200,1e-200,1e-200", "--ordering", "1,2,3,4"],
    ["geometry", "--masses", "1e160,1e160,1e160,1e160", "--ordering", "1,2,3,4"],
]


@pytest.mark.parametrize("argv", EXTREME_SCALES, ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_extreme_equal_masses_succeed(argv, tmp_path, capsys):
    assert main([*argv, "--output", str(tmp_path / "out.json")]) == 0
    out = capsys.readouterr().out
    assert argv[0] == "geometry" or "max deviation 0.000000e+00" in out


def test_unresolved_sector_angle_exits_3(capsys):
    assert main(["classify", "--masses", "1e-300,1,1e-300"]) == 3
    assert "MassDomainError" in capsys.readouterr().err


# typed pools for generated command lines, each a (valid, invalid) pair of
# value lists; "{case}" is the case directory, which holds a file "file" and a
# directory "dir".  Sizes are capped (n_max <= 14, k <= 40, --e-max <= 40,
# --grid <= 50), and the size flags whose defaults exceed the caps are always
# given, so that every case stays small
POOLS = {
    "--masses": (["1", "2", "0.5"], ["1e8", "1e-8", "1e-20", "1e-300", "5e-324", "1e300",
                                     "1.7e308", "0", "-1", "nan", "inf"]),
    "--spec": (["A3", "C3", "H3", "I2(5)"], ["I2(2)", "", " ", "Z9", "A4", "C4", "H4", "F4"]),
    "--ordering": (["1,2,3,4", "1,3,4,2", "2,1,4,3", "4,3,2,1"],
                   ["1,1,3,4", "1,2,3", "0,1,2,3", "a"]),
    "--n-max": (["6", "6,8", "10,14", "8,12,14", "14"], ["8,6", "1", "", "abc"]),
    "--k": (["1", "3", "10", "20", "40"], ["0", "-1", "x"]),
    "--e-max": (["5", "25", "40", "0", "-1"], ["inf", "nan"]),
    "--grid": (["1", "7", "50"], ["0", "-3", "x"]),
    "--r-min": (["0.01", "0.2"], ["0", "-0.5", "nan", "inf"]),
    "--r-max": (["0.05", "0.3", "10"], ["0", "nan"]),
    "--bins": (["1", "24"], ["0", "-2"]),
    "--tol-spacings": (["0.05", "0.5", "1e-4"], ["0", "inf", "nan"]),
    "--output": (["{case}/new/out", "{case}/file"], ["{case}/dir", "{case}/file/out", ""]),
    "--ground-state": (["{case}/new/gs.json"], ["{case}/dir", "{case}/file/gs.json"]),
    "--config": (["{case}/flags.json"], ["{case}/bad.json", "{case}/absent.json", "{case}/dir"]),
}
COMMAND_FLAGS = {
    "classify": ["--masses", "--output"],
    "family": ["--spec", "--grid", "--r-min", "--r-max", "--output"],
    "geometry": ["--masses", "--ordering", "--output"],
    "group": ["--masses", "--spec", "--output"],
    "exact": ["--spec", "--e-max", "--ground-state", "--output"],
    "billiard": ["--masses", "--ordering", "--n-max", "--k", "--output"],
    "weyl": ["--masses", "--ordering", "--n-max", "--k", "--output"],
    "stats": ["--masses", "--n-max", "--k", "--bins", "--tol-spacings", "--output"],
}
# stats writes a directory, which may already exist
STATS_OUTPUT = (["{case}/new/out", "{case}/dir"], ["{case}/file", "{case}/file/out", ""])
NEEDED = ("--masses", "--ordering", "--spec", "--output")
SIZES = ("--n-max", "--k", "--grid")


def _generated_argv(rng) -> list:
    """One command line from the typed pools: mostly a known command and its
    own flags, sometimes a flag it lacks, a missing value or no command."""
    command = rng.choice([*COMMAND_FLAGS] * 8 + ["frobnicate", None])
    argv = [command] if command else []
    pools = {**POOLS, "--output": STATS_OUTPUT} if command == "stats" else POOLS
    for flag in COMMAND_FLAGS.get(command, []) + ["--config"]:
        if flag in SIZES or rng.random() < (0.95 if flag in NEEDED else
                                            0.1 if flag == "--config" else 0.5):
            valid, invalid = pools[flag]
            if flag == "--masses":
                value = ",".join(rng.choice(valid if rng.random() < 0.9 else invalid)
                                 for _ in range(rng.choice((3, 4, 4, 4, 4, 4, 4, 5))))
            else:
                value = rng.choice(valid if rng.random() < 0.85 else invalid)
            argv += [flag, value]
    if rng.random() < 0.05:
        argv += [rng.choice([*POOLS, "--quadrature-order", "--help", "--version"])]
    return argv


def _tree(root: Path) -> dict:
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


def test_generated_inputs_keep_the_exit_contract(tmp_path, capsys):
    # exit 0, 2 or 3; a failure prints one "error: " line; a refusal writes nothing
    rng = random.Random(1)
    for index in range(300):
        argv = _generated_argv(rng)
        case = tmp_path / str(index)
        (case / "dir").mkdir(parents=True)
        (case / "file").write_text("x")
        (case / "flags.json").write_text('{"k_levels": 3, "n_max": [6, 8], "grid": 5}')
        (case / "bad.json").write_text('{"k_levels": 3,')
        argv = [a.replace("{case}", str(case)) for a in argv]
        before = _tree(case)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), argv
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if code == 2:
            assert _tree(case) == before, argv


# -- family -----------------------------------------------------------------------

def test_family_csv_and_metadata(tmp_path, capsys):
    out = tmp_path / "family.csv"
    code = main(["family", "--spec", "H3", "--grid", "40", "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "r,mu1,mu2,mu3,mu4"
    assert len(lines) == 41
    meta = json.loads((tmp_path / "family.csv.meta.json").read_text())
    assert meta["command"] == "family"
    assert "wall_time_s" in meta
    # the mu1 = mu4 crossing is bracketed by the emitted grid
    mu1 = np.array([float(l.split(",")[1]) for l in lines[1:]])
    mu4 = np.array([float(l.split(",")[4]) for l in lines[1:]])
    assert ((mu1 - mu4)[:-1] * (mu1 - mu4)[1:] < 0).any()


def test_family_underflowing_ratio_is_an_infeasible_point(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code = main(["family", "--spec", "H3", "--r-min", "1e-200", "--grid", "5",
                 "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 5  # header and four rows
    meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
    assert meta["n_points"] == 4
    [[r, reason]] = meta["infeasible_points"]
    assert r == 1e-200 and "underflows float64" in reason


@pytest.mark.parametrize("flags", [[], ["--r-min", "0.01", "--r-max", "0.2"]])
def test_family_metadata_records_ratio_range(flags, tmp_path, capsys):
    out = tmp_path / "family.csv"
    assert main(["family", "--spec", "C3", "--grid", "5", *flags, "--output", str(out)]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "family.csv.meta.json").read_text())
    if flags:
        expected = [0.01, 0.2]
    else:
        hi = feasibility_interval(coxeter_spec("C3"))[1]
        expected = [hi * 1e-3, hi * (1.0 - 1e-6)]
    assert meta["ratio_range"] == expected
    ratios = [float(line.split(",")[0]) for line in out.read_text().split("\n")[1:] if line]
    assert ratios[0] == pytest.approx(expected[0], rel=1e-11)
    assert ratios[-1] == pytest.approx(expected[1], rel=1e-11)


# -- geometry / group / exact ------------------------------------------------------

def test_geometry_json(tmp_path, capsys):
    out = tmp_path / "geom.json"
    code = main(["geometry", "--masses", "1,1,1,1", "--ordering", "1,2,3,4",
                 "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert data["area"] == pytest.approx(math.pi / 6, rel=1e-10)


def test_group_json_from_spec(tmp_path, capsys):
    out = tmp_path / "group.json"
    code = main(["group", "--spec", "H3", "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert data["order"] == 120 and data["reflections"] == 15


def test_group_reads_masses_before_a_valid_spec(tmp_path, capsys):
    runs = {}
    for name, argv in (("masses", ["--masses", "3,1,2,6"]),
                       ("both", ["--masses", "3,1,2,6", "--spec", "H3"])):
        out = tmp_path / f"{name}.json"
        assert main(["group", *argv, "--output", str(out)]) == 0
        runs[name] = out.read_bytes()
    capsys.readouterr()
    assert runs["both"] == runs["masses"] and json.loads(runs["both"])["name"] == "C3"


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["stats", "--help"]])
def test_help_and_version_return_0(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out and not err


def test_exact_levels_csv(tmp_path, capsys):
    out = tmp_path / "levels.csv"
    gs = tmp_path / "gs.json"
    code = main(["exact", "--spec", "H3", "--e-max", "20", "--output", str(out),
                 "--ground-state", str(gs)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,nu,n1,n2,lambda,energy"
    assert lines[1] == "0,0,0,0,15,17"
    state = json.loads(gs.read_text())
    assert sum(state[0]["exponents"]) == 15


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_outputs_take_the_umask_mode(umask, tmp_path, capsys):
    out = tmp_path / "levels.csv"
    previous = os.umask(umask)
    try:
        code = main(["exact", "--spec", "H3", "--e-max", "10", "--output", str(out)])
    finally:
        os.umask(previous)
    capsys.readouterr()
    assert code == 0
    for path in (out, tmp_path / "levels.csv.meta.json"):
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask, path


# -- billiard / weyl ----------------------------------------------------------------

def test_billiard_first_lambda(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code = main([
        "billiard", "--masses", H3_MASSES, "--ordering", "1,2,3,4",
        "--n-max", "24", "--k", "5", "--output", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().split("\n")
    first = lines[1].split(",")
    assert abs(float(first[2]) - 15.0) < 0.05
    meta = json.loads((tmp_path / "spec.csv.meta.json").read_text())
    assert meta["first_lambda_eff"] == pytest.approx(15.0, abs=0.05)
    assert (meta["basis_size"], meta["quadrature_order"]) == (24 * 23 // 2, 72)


@pytest.mark.parametrize("command", ["billiard", "weyl"])
def test_solver_metadata_records_top_truncation(command, tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main([
        command, *SECTOR, "--n-max", "10,14", "--k", "8", "--output", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert (meta["basis_size"], meta["quadrature_order"]) == (14 * 13 // 2, 42)
    assert meta["inputs"]["n_max"] == [10, 14]
    assert "quadrature_order" not in meta["inputs"]
    assert meta["peak_rss_mb"] > 0
    blas = meta["blas"]
    assert blas["name"] and blas["version"]
    # numpy's own BLAS, which numpy records from 1.25 on
    if tuple(int(part) for part in np.__version__.split(".")[:2]) >= (1, 25):
        assert blas["numpy_name"] and blas["numpy_version"]
    else:
        assert blas["numpy_name"] is None and blas["numpy_version"] is None
    assert blas["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
    assert blas["cpus"] >= 1


def test_metadata_records_each_truncation_eigensolver(tmp_path, capsys):
    # the (1,1,1,1) chart is mirror-symmetric, so every truncation is two
    # parity blocks.  One level: 11 eigenvectors, so both blocks of
    # truncation 40 (380 and 400 functions) are on the Krylov side and both
    # of truncation 12 (30 and 36) on the dense side
    out = tmp_path / "s.csv"
    code = main(["billiard", *SECTOR, "--n-max", "12,40", "--k", "1", "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    dense, krylov = json.loads((tmp_path / "s.csv.meta.json").read_text())["parity_blocks"]
    assert dense == {"n_max": 12, "blocks": [{"size": size, "path": "dense", "krylov_steps": 0}
                                             for size in (30, 36)]}
    assert krylov["n_max"] == 40
    assert [block["size"] for block in krylov["blocks"]] == [380, 400]
    for block in krylov["blocks"]:
        assert block["path"] == "krylov"
        assert 1 <= block["krylov_steps"] <= pencil._KRYLOV_STEPS


def test_weyl_residual_csv(tmp_path, capsys):
    out = tmp_path / "weyl.csv"
    code = main([
        "weyl", "--masses", "1,1,1,1", "--ordering", "1,2,3,4",
        "--n-max", "16,20", "--k", "30", "--output", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,eigenvalue,staircase,weyl,residual"
    row = lines[1].split(",")
    assert float(row[2]) == 1.0


def test_weyl_without_converged_levels_exits_3(tmp_path, capsys):
    out = tmp_path / "weyl.csv"
    code = main([
        "weyl", "--masses", H3_MASSES, "--ordering", "1,3,4,2",
        "--n-max", "3,4", "--k", "3", "--output", str(out),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: InsufficientLevelsError")
    assert not out.exists()


def test_weyl_window_is_cut_in_mean_spacings_and_recorded(tmp_path, capsys):
    # the RERUNS weyl argv: 0.05 mean spacings keep 20 levels, 1e-2 in E kept 7
    argv = [a.replace("{out}", str(tmp_path)) for a in RERUNS["weyl"]]
    assert main(argv) == 0
    capsys.readouterr()
    rows = (tmp_path / "w.csv").read_text().strip().split("\n")[1:]
    meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
    assert len(rows) == 20
    assert (meta["tol_spacings"], meta["converged_levels"]) == (0.05, len(rows))


@pytest.mark.parametrize("dest, function", [("tol_spacings", convergence_study),
                                            ("bins", stats.spacing_histogram)],
                         ids=["tol_spacings", "bins"])
def test_stats_tolerance_default_is_the_study_default(dest, function):
    default = inspect.signature(function).parameters[dest].default
    assert getattr(cli.build_parser().parse_args(["stats"]), dest) == default


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"billiard": {"n_max": 16, "k_levels": 4}}))
    out = tmp_path / "s.csv"
    code = main([
        "billiard", "--masses", "1,1,1,1", "--ordering", "1,2,3,4",
        "--config", str(cfg), "--output", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 5  # header + 4 levels
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert meta["inputs"]["n_max"] == [16]


def test_config_supplies_required_values(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    # a top-level value is shared, and commands that lack it skip it
    cfg.write_text(json.dumps({"masses": [1, 1, 1, 1], "bins": 12,
                               "billiard": {"ordering": [1, 2, 3, 4]}}))
    flags_run, config_run = tmp_path / "flags.csv", tmp_path / "config.csv"
    common = ["--n-max", "12", "--k", "5", "--output"]
    assert main(["billiard", *SECTOR, *common, str(flags_run)]) == 0
    assert main(["billiard", "--config", str(cfg), *common, str(config_run)]) == 0
    capsys.readouterr()
    assert config_run.read_bytes() == flags_run.read_bytes()


def test_metadata_inputs_are_the_command_flags(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["classify", "--masses", "3,1,2,6", "--output", str(out)]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "c.json.meta.json").read_text())
    assert meta["inputs"] == {"masses": [3.0, 1.0, 2.0, 6.0], "output_path": str(out),
                              "config": None}


def test_n_max_grid_is_a_second_spelling_of_n_max(tmp_path, capsys):
    runs = {}
    for flag in ("--n-max", "--n-max-grid"):
        out = tmp_path / f"{flag}.csv"
        assert main(["billiard", *SECTOR, flag, "10,12", "--k", "8", "--output", str(out)]) == 0
        meta = json.loads((tmp_path / f"{flag}.csv.meta.json").read_text())
        assert meta["inputs"]["n_max"] == [10, 12] and "n_max_grid" not in meta["inputs"]
        runs[flag] = out.read_bytes()
    capsys.readouterr()
    assert runs["--n-max"] == runs["--n-max-grid"]


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"billiard": {"n_max": 16, "k_levels": 4}}))
    out = tmp_path / "s.csv"
    main([
        "billiard", "--masses", "1,1,1,1", "--ordering", "1,2,3,4",
        "--config", str(cfg), "--k", "6", "--output", str(out),
    ])
    capsys.readouterr()
    assert len(out.read_text().strip().split("\n")) == 7


# -- stats pipeline (smoke, small truncation) ----------------------------------------

def test_stats_pipeline_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "stats"
    code = main([
        "stats", "--masses", "1,1,1,1",
        "--n-max", "22,26", "--k", "70",
        "--tol-spacings", "0.5", "--output", str(out_dir),
    ])
    capsys.readouterr()
    assert code == 0
    sectors = json.loads((out_dir / "sectors.json").read_text())
    assert len(sectors) == 1  # equal masses: one congruence class
    tag = next(iter(sectors))
    sub = out_dir / f"sector_{tag}"
    for name in ("spectrum.csv", "histogram.csv", "reference.csv",
                 "weyl_residual.csv", "summary.json"):
        assert (sub / name).exists()
    summary = json.loads((sub / "summary.json").read_text())
    assert summary["n_levels"] >= 50
    meta = json.loads((out_dir / "run_metadata.json").read_text())
    assert meta["sectors"] == {tag: {
        "basis_size": 26 * 25 // 2, "quadrature_order": 78, "tol_spacings": 0.5,
        "converged_levels": sectors[tag]["converged_levels"],
        # flatten_geometry's chart of equal masses is not mirror-symmetric:
        # one block, the whole basis
        "parity_blocks": [{"n_max": n_max, "blocks": [
            {"size": n_max * (n_max - 1) // 2, "path": "dense", "krylov_steps": 0}]}
                          for n_max in (22, 26)],
    }}


class _Charted(Exception):
    """Stops a stats sector once it is charted."""


@pytest.mark.parametrize("masses", [symmetric_member(coxeter_spec("H3")).masses,
                                    (1.3, 0.4, 2.7, 0.9)], ids=["H3", "generic"])
def test_stats_chart_matches_the_oriented_plane_chart(masses, monkeypatch):
    # every sector class: the inward normals of sector_geometry are the
    # oriented planes between consecutive particles, bit for bit
    def charted(sector, n_max_grid, k, tol_spacings):
        raise _Charted(sector)

    monkeypatch.setattr(billiard, "convergence_study", charted)
    config = cli.build_parser().parse_args(["stats", *EQUAL])
    seq = MassSequence(masses)
    planes = coincidence_normals(seq)
    for perm, _ in distinct_sector_orderings(seq):
        with pytest.raises(_Charted) as info:
            cli._stats_one_sector(seq, perm, config)
        got = info.value.args[0]
        want = flatten_geometry(geometry_from_inward_normals(
            [planes.oriented(i, j) for i, j in zip(perm, perm[1:])], label=perm))
        for name in ("frame", "affine", "offset"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (perm, name)
        for field in dataclasses.fields(want.geometry):
            assert np.array_equal(getattr(got.geometry, field.name),
                                  getattr(want.geometry, field.name)), (perm, field.name)


def test_stats_light_mass_sector_names_float64_resolution():
    # 1e-30 drops out of the pair sums, so this sector degenerates
    config = cli.build_parser().parse_args(["stats", *EQUAL])
    with pytest.raises(GeometryError, match="mass ratio 1.000e-30 is below float64 resolution"):
        cli._stats_one_sector(MassSequence((1e-30, 1.0, 1.0, 1.0)), (2, 1, 3, 4), config)


# -- writers ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def writer_inputs():
    """Small inputs for every module writer."""
    sector = billiard.flatten_sector(MassSequence((1, 1, 1, 1)), (1, 2, 3, 4))
    unfolded = np.cumsum(np.random.default_rng(0).exponential(size=60))
    return {"sector": sector, "study": convergence_study(sector, (10, 12), 8),
            "unfolded": unfolded, "hist": stats.spacing_histogram(unfolded)}


WRITERS = {
    "spectrum_to_csv": lambda d: billiard.spectrum_to_csv(d["study"]),
    "weyl_residuals_to_csv": lambda d: stats.weyl_residuals_to_csv(d["study"].window,
                                                                   d["sector"].geometry),
    "histogram_to_csv": lambda d: stats.histogram_to_csv(d["hist"]),
    "reference_curves_to_csv": lambda d: stats.reference_curves_to_csv(),
    "summary_to_json": lambda d: stats.summary_to_json(d["hist"], d["unfolded"]),
    "levels_to_csv": lambda d: levels_to_csv(energy_levels(coxeter_spec("H3"), 20)),
    "write_family_csv": lambda d: write_family_csv(family_curve(coxeter_spec("H3"), [0.05])),
    "geometry_to_json": lambda d: geometry.geometry_to_json(d["sector"].geometry),
    "group_to_json": lambda d: group_to_json(group_from_masses(MassSequence((3, 1, 2, 6)))),
    "HomogeneousPolynomial.to_json":
        lambda d: HomogeneousPolynomial.from_dict(2, {(2, 0, 0): 1.0}).to_json(),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_each_writer_returns_one_whole_file(writer, writer_inputs):
    # main writes each text as it is, so every one ends its last line itself
    text = WRITERS[writer](writer_inputs)
    assert text.endswith("\n") and not text.endswith("\n\n"), repr(text[-20:])
    if writer.endswith("json"):
        json.loads(text)


# -- reruns -----------------------------------------------------------------------

# every command at tiny size; "{out}" is the run's output directory
RERUNS = {
    "classify": ["classify", "--masses", "3,1,2,6", "--output", "{out}/c.json"],
    "family": ["family", "--spec", "C3", "--grid", "25", "--output", "{out}/f.csv"],
    "geometry": ["geometry", "--masses", "3,1,2,6", "--ordering", "1,3,4,2",
                 "--output", "{out}/g.json"],
    "group": ["group", "--spec", "H3", "--output", "{out}/g.json"],
    "exact": ["exact", "--spec", "H3", "--e-max", "20", "--output", "{out}/l.csv",
              "--ground-state", "{out}/gs.json"],
    "billiard": ["billiard", "--masses", H3_MASSES, "--ordering", "1,3,4,2",
                 "--n-max", "12", "--k", "8", "--output", "{out}/s.csv"],
    "billiard-grid": ["billiard", "--masses", H3_MASSES, "--ordering", "1,3,4,2",
                      "--n-max", "10,12", "--k", "8", "--output", "{out}/s.csv"],
    "weyl": ["weyl", *SECTOR, "--n-max", "12,14", "--k", "20", "--output", "{out}/w.csv"],
    "stats": ["stats", *EQUAL, "--n-max", "22,26", "--k", "70",
              "--tol-spacings", "0.5", "--output", "{out}/stats"],
}


@pytest.mark.parametrize("name", sorted(RERUNS))
def test_reruns_byte_identical(name, tmp_path, capsys):
    runs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([a.replace("{out}", str(out)) for a in RERUNS[name]]) == 0
        runs.append({
            p.relative_to(out): p.read_bytes()
            for p in out.rglob("*")
            if p.is_file() and not p.name.endswith((".meta.json", "run_metadata.json"))
        })
    capsys.readouterr()
    assert runs[0] and runs[0] == runs[1]


@pytest.mark.parametrize("name", sorted(RERUNS))
def test_written_files_are_the_declared_outputs(name, tmp_path, capsys, monkeypatch):
    validate, orderings = cli._validate, geometry.distinct_sector_orderings
    declared, calls = [], []

    def recording_validate(config):
        sectors, paths = validate(config)
        declared.extend(paths)
        return sectors, paths

    def counting_orderings(masses):
        calls.append(masses)
        return orderings(masses)

    monkeypatch.setattr(cli, "_validate", recording_validate)
    monkeypatch.setattr(geometry, "distinct_sector_orderings", counting_orderings)
    assert main([a.replace("{out}", str(tmp_path)) for a in RERUNS[name]]) == 0
    capsys.readouterr()
    assert declared[-1].endswith(("meta.json", "run_metadata.json"))
    assert len(set(declared)) == len(declared)
    assert {p for p in tmp_path.rglob("*") if p.is_file()} == {Path(p) for p in declared}
    assert len(calls) == (name == "stats")


def test_undeclared_command_output_is_not_written(tmp_path, capsys, monkeypatch):
    out, stray = tmp_path / "g.json", tmp_path / "stray.json"
    monkeypatch.setitem(cli._IMPLEMENTATIONS, "geometry",
                        lambda config: ({str(out): "{}", str(stray): "{}"}, {}))
    with pytest.raises(RuntimeError, match="stray.json"):
        main(["geometry", *SECTOR, "--output", str(out)])
    assert list(tmp_path.iterdir()) == []
