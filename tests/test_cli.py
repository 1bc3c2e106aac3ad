import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import math
import tracemalloc

import numpy as np
import pytest

from gasket_szego import cli, clusters, decimation, eigenbasis, gasket, operators
from gasket_szego.errors import ConfigError, StructuralError
from gasket_szego.gasket import SimpleFunction, integrate_simple
from gasket_szego.serialize import sha256_file

from dense_oracle import dense_clusters, dense_compression


def refuse_whole_basis(monkeypatch):
    """Make `level_remainder(m, m)`, the n x n basis, fail; every other
    cell level builds as before."""
    original = eigenbasis.level_remainder

    def refusing(m, k):
        if k == m:
            raise AssertionError(f"built the level-{m} n x n basis")
        return original(m, k)

    monkeypatch.setattr(eigenbasis, "level_remainder", refusing)


def run_cli(tmp_path, command, config, name="run", plot=False):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / f"{name}_out"
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if plot:
        argv.append("--plot")
    code = cli.main(argv)
    return code, out


def test_spectrum_command(tmp_path):
    code, out = run_cli(tmp_path, "spectrum", {"cutoff": 1000.0})
    assert code == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    table = decimation.enumerate_spectrum(1000.0)
    assert lines[-1] == f"# d_lambda,{table.d_lambda}"
    assert len(lines) == 2 + len(table.records)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]["spectrum.csv"]["sha256"] == sha256_file(
        out / "spectrum.csv"
    )
    assert json.loads((out / "config.json").read_text()) == {"cutoff": 1000.0}
    # the search and CSV stages are timed inside the whole run
    timings = manifest["timings"]
    assert (timings["search_seconds"] + timings["csv_seconds"]
            <= timings["total_seconds"])


def test_spectrum_command_builds_no_record(tmp_path, monkeypatch):
    # the table and its CSV are arrays all the way
    def no_records(*args):
        raise AssertionError("a spectrum run built EigenvalueRecord objects")

    monkeypatch.setattr(decimation, "_records", no_records)
    code, out = run_cli(tmp_path, "spectrum", {"cutoff": 1e9})
    assert code == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[-1] == f"# d_lambda,{decimation.enumerate_spectrum(1e9).d_lambda}"


def test_validate_command_and_determinism(tmp_path):
    config = {"m": 3}
    code1, out1 = run_cli(tmp_path, "validate", config, name="v1")
    code2, out2 = run_cli(tmp_path, "validate", config, name="v2")
    assert code1 == 0 and code2 == 0
    body1 = (out1 / "validate.csv").read_bytes()
    body2 = (out2 / "validate.csv").read_bytes()
    assert body1 == body2
    lines = body1.decode().splitlines()
    assert lines[0] == "check,status,detail"
    assert all(",PASS," in line for line in lines[1:])
    # localization rows carry the kernel margins of their split
    details = [line.split(",", 2)[2] for line in lines[1:]
               if line.startswith("localization-")]
    assert details
    for detail in details:
        fields = dict(item.split("=") for item in detail.split(";"))
        assert 0.0 <= float(fields["dropped_over_tol"]) < 1.0
        assert 0.0 < float(fields["tol_over_kept"]) < 1.0
    # the block-exactness row: the localized rows of P^T [f] P for
    # f = (1, 2, 3) on the birth-3 6-series split at N = 1, and the traces
    # of their localized block against d_{j,N} times the integral of f^k
    (row,) = [line for line in lines[1:] if line.startswith("block-exact")]
    name, _, detail = row.split(",", 2)
    assert name == "block-exactness-j3-N1"
    fields = dict(item.split("=") for item in detail.split(";"))
    assert 0.0 <= float(fields["block_snap"]) <= 1e-10
    d_j_n = decimation.localization_counts(6, 3, 1).d_j_N
    f = SimpleFunction(1, [1.0, 2.0, 3.0])
    for k in (1, 2, 3):
        rhs = d_j_n * integrate_simple(f, k)
        assert float(fields[f"trace_R^{k}_dev"]) <= 1e-10 * max(1.0, abs(rhs))
    # the oracle, localization, block-exactness and Lipschitz stages are
    # timed inside the whole run
    timings = json.loads((out1 / "manifest.json").read_text())["timings"]
    stages = [timings[f"{stage}_seconds"] for stage in
              ("oracle", "localization", "block_exactness", "lipschitz")]
    assert all(seconds >= 0.0 for seconds in stages)
    assert sum(stages) <= timings["total_seconds"]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_validate_at_the_lowest_levels_exits_cleanly(tmp_path, m):
    # at m = 2 the birth-2 split at N = 1 has no localized column, and no
    # block-exactness row is written; nothing reads a block there
    cfg = tmp_path / "validate.json"
    cfg.write_text(json.dumps({"m": m}))
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "gasket_szego.cli", "validate",
         "--config", str(cfg), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert (result.returncode, result.stderr) == (0, "")
    lines = (out / "validate.csv").read_text().splitlines()[1:]
    assert [line.split(",", 1)[0] for line in lines] == _validate_names(m)
    assert all(",PASS," in line for line in lines)


@pytest.mark.parametrize("command,config,stages", [
    ("szego-trace", {"m": 5, "mode": "full", "lambda_grid": [100.0, 3000.0],
                     "symbol": {"kind": "multiplication",
                                "chi": {"level": 1, "values": [0.8, 1.0, 1.2]}}},
     ("remainder", "sweep", "report")),
    ("szego-det", {"m": 5, "mode": "single", "series": 6, "j_range": [2, 3, 4],
                   "N": 1, "symbol": {"kind": "riesz", "beta": 1.0}},
     ("remainder", "sweep", "report")),
    ("clusters", {"m": 5, "j_range": [2, 3, 4],
                  "chi": {"level": 1, "values": [0.8, 1.0, 1.2]}},
     ("remainder", "schrodinger", "identify", "report")),
    ("basis", {"m": 4, "records": ["5:4:", "6:2:+"], "dump_vertices": True},
     ("workspace", "eigenspaces", "vertices")),
])
def test_compressing_commands_time_their_stages(tmp_path, command, config, stages):
    # the remainder or cell-Gram build, the compressions and what reads
    # them, and the writing are timed inside the whole run; `basis` times
    # its workspace, its eigenspaces and its vertex dump
    eigenbasis.level_remainder.cache_clear()
    operators._level_grams.cache_clear()
    code, out = run_cli(tmp_path, command, config)
    assert code == 0
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert sorted(timings) == sorted(
        [f"{stage}_seconds" for stage in stages] + ["total_seconds"])
    seconds = [timings[f"{stage}_seconds"] for stage in stages]
    assert all(t >= 0.0 for t in seconds)
    assert sum(seconds) <= timings["total_seconds"]
    # the build lands in its own stage: the compressions find it cached
    if "chi" in json.dumps(config):
        assert operators._level_grams.cache_info().hits >= 1


def _validate_names(m):
    """validate's check names at level m, in the order it writes them."""
    names = [f"decimation-oracle-m{k}" for k in range(1, m + 1)]
    names += [f"multiplicity-sum-m{k}" for k in range(1, min(m + 2, 8) + 1)]
    names += [
        f"localization-s{series}-j{birth}-N{n}"
        for series in (6, 5)
        for birth in range(2, min(m, 5) + 1)
        for n in range(1, birth)
    ]
    if m >= 3:
        names.append(f"block-exactness-j{min(m, 4)}-N1")
    if m >= 2:
        names += [f"lipschitz-trial-{t}" for t in range(10)]
    return names


def test_validate_oracle_builds_no_dense_laplacian(tmp_path, monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("validate built the n x n Laplacian")

    monkeypatch.setattr(gasket, "build_dirichlet_laplacian", no_dense)
    code, out = run_cli(tmp_path, "validate", {"m": 5}, name="counts")
    assert code == 0
    lines = (out / "validate.csv").read_text().splitlines()[1:]
    assert [line.split(",", 1)[0] for line in lines] == _validate_names(5)
    assert all(",PASS," in line for line in lines)

    # counts off by one fail every oracle row on the total, and a refused
    # count fails it with the error; every other row passes and the whole
    # report is still written
    counts = gasket.inertia_counts
    for name, patched, detail in (
        ("shifted", lambda m, lam: counts(m, lam) + 1,
         lambda level: f"count={decimation.interior_dimension(level) + 1}"
                       ";max_rel_diff=nan"),
        ("refused", _refuse_counts, lambda level: f"level {level}: refused"),
    ):
        monkeypatch.setattr(gasket, "inertia_counts", patched)
        code, out = run_cli(tmp_path, "validate", {"m": 5}, name=name)
        assert code == 1
        rows = [line.split(",", 2)
                for line in (out / "validate.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == _validate_names(5)
        for check, status, text in rows:
            if check.startswith("decimation-oracle-m"):
                assert (status, text) == (
                    "FAIL", detail(int(check.removeprefix("decimation-oracle-m"))))
            else:
                assert status == "PASS"


def _refuse_counts(m, lambdas):
    raise StructuralError(f"level {m}: refused")


def _closed_form_integers(name):
    """The integer fields of a validate row, from the closed forms."""
    kind, _, rest = name.rpartition("-")
    if kind == "decimation-oracle":
        return {"count": decimation.interior_dimension(int(rest[1:]))}
    if kind == "multiplicity-sum":
        dim = decimation.interior_dimension(int(rest[1:]))
        return {"sum": dim, "dim": dim}
    if name.startswith("localization-"):
        series, birth, n_level = (int(part[1:]) for part in name.split("-")[1:])
        counts = decimation.localization_counts(series, birth, n_level)
        return {"per_cell": counts.m_j_N, "localized": counts.d_j_N,
                "alpha": counts.alpha_N}
    return {}


def _spy(monkeypatch, module, name):
    """Count the calls of `module.name`, which still runs."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_validate_rows_keep_their_closed_form_integers(tmp_path, monkeypatch, m):
    # every family eigenspace of births 2..min(m, 5) is built once and split
    # once at each N below its birth; block exactness reuses its N = 1 split
    builds = _spy(monkeypatch, eigenbasis, "eigenspace")
    splits = _spy(monkeypatch, eigenbasis, "localized_split")
    code, out = run_cli(tmp_path, "validate", {"m": m})
    assert code == 0
    calls = {4: (6, 12), 5: (8, 20), 6: (8, 20), 7: (8, 20)}[m]
    assert (len(builds), len(splits)) == calls
    rows = [line.split(",", 2)
            for line in (out / "validate.csv").read_text().splitlines()[1:]]
    assert [name for name, _, _ in rows] == _validate_names(m)
    for name, status, detail in rows:
        assert status == "PASS", name
        fields = dict(item.split("=", 1) for item in detail.split(";"))
        expected = _closed_form_integers(name)
        assert {key: int(fields[key]) for key in expected} == expected, name


def test_validate_writes_a_fail_row_for_a_failed_split(tmp_path, monkeypatch):
    # a split that raises fails its own row and the block-exactness row that
    # reads it; every other row is written and passes
    original = eigenbasis.localized_split

    def failing(bundle, n_level):
        if bundle.record.series == 6 and n_level == 1:
            raise StructuralError("the split of a 6-series eigenspace at N = 1")
        return original(bundle, n_level)

    monkeypatch.setattr(eigenbasis, "localized_split", failing)
    code, out = run_cli(tmp_path, "validate", {"m": 4})
    assert code == 1
    rows = [line.split(",", 2)
            for line in (out / "validate.csv").read_text().splitlines()[1:]]
    assert [name for name, _, _ in rows] == _validate_names(4)
    failed = {"localization-s6-j2-N1", "localization-s6-j3-N1",
              "localization-s6-j4-N1", "block-exactness-j4-N1"}
    for name, status, detail in rows:
        assert status == ("FAIL" if name in failed else "PASS"), name
        if name in failed:
            assert detail.startswith("the split of a 6-series eigenspace at N = 1")


def test_validate_peak_below_one_level_matrix(tmp_path):
    # the eigenspaces are built one at a time, never the n x n level basis
    # after the lazy imports, and with nothing of level 6 cached
    run_cli(tmp_path, "validate", {"m": 3}, name="warm")
    eigenbasis.level_basis.cache_clear()
    eigenbasis.level_remainder.cache_clear()
    n = decimation.interior_dimension(6)
    tracemalloc.start()
    try:
        code, _ = run_cli(tmp_path, "validate", {"m": 6})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < n * n * 8


def test_validate_basis_and_dump_operator_build_no_level_basis(
    tmp_path, monkeypatch, level4
):
    # the bytes the n x n level basis gives, written before it is refused
    expected = tmp_path / "expected"
    expected.mkdir()
    for bundle in level4.bundles:
        name = f"bundle_{cli._sanitize(bundle.record.key)}.csv"
        eigenbasis.save_bundle(bundle, expected / name)
    f = {"level": 1, "values": [1.0, 2.0, 3.0]}
    symbol = operators.multiplication_symbol(SimpleFunction(1, f["values"]))
    operators.operator_to_csv(
        symbol, level4.family_bundle(6, 4),
        expected / "operator.csv", expected / "operator_meta.json",
    )
    # a chi simple at level m, whose compression reads the n x n basis
    fine = operators.multiplication_symbol(
        SimpleFunction(4, np.linspace(1.0, 2.0, 81))
    )
    operators.operator_to_csv(
        fine, level4.family_bundle(6, 4),
        expected / "fine.csv", expected / "fine_meta.json",
    )

    refuse_whole_basis(monkeypatch)
    code, out = run_cli(tmp_path, "validate", {"m": 4}, name="validate")
    assert code == 0
    code, out = run_cli(tmp_path, "basis", {
        "m": 4, "records": [b.record.key for b in level4.bundles],
    }, name="basis")
    assert code == 0
    for bundle_file in expected.glob("bundle_*.csv"):
        assert (out / bundle_file.name).read_bytes() == bundle_file.read_bytes()
    code, out = run_cli(tmp_path, "szego-trace", {
        "m": 4, "mode": "single", "series": 6, "j_range": [2, 3, 4], "N": 1,
        "symbol": {"kind": "multiplication", "chi": f}, "dump_operator": True,
    }, name="dump")
    assert code == 0
    for name in ("operator.csv", "operator_meta.json"):
        assert (out / name).read_bytes() == (expected / name).read_bytes()
    key = level4.family_bundle(6, 4).record.key
    operators.operator_to_csv(
        fine, eigenbasis.eigenspace(4, key), out / "fine.csv", out / "fine_meta.json"
    )
    for name in ("fine.csv", "fine_meta.json"):
        assert (out / name).read_bytes() == (expected / name).read_bytes()


def test_szego_trace_command(tmp_path):
    config = {
        "m": 4,
        "mode": "single",
        "series": 6,
        "j_range": [2, 3, 4],
        "N": 1,
        "symbol": {"kind": "riesz", "beta": 1.0},
        "F": {"name": "identity"},
    }
    code, out = run_cli(tmp_path, "szego-trace", config, plot=True)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["target"] == 1.0
    assert len(report["samples"]) == 3
    assert (out / "report.svg").exists()
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "index,d,value,abs_error,head_mass,tail_mass"


def test_szego_det_full_command(tmp_path):
    window = decimation.resolvable_window(4)
    config = {
        "m": 4,
        "mode": "full",
        "lambda_grid": [100.0, 2000.0, window * 0.9],
        "symbol": {"kind": "constant", "value": 2.0},
    }
    code, out = run_cli(tmp_path, "szego-det", config)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert all(abs(s["abs_error"]) <= 1e-10 for s in report["samples"])


def test_clusters_command(tmp_path, monkeypatch):
    from gasket_szego import clusters

    builds = []
    original = clusters.build_schrodinger

    def counting_build(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(clusters, "build_schrodinger", counting_build)
    config = {
        "m": 4,
        "j_range": [2, 3, 4],
        "p": {"kind": "identity"},
        "chi": {"level": 1, "values": [0.8, 1.0, 1.2]},
        "k_max": 3,
    }
    code, out = run_cli(tmp_path, "clusters", config)
    assert code == 0
    lines = (out / "clusters.csv").read_text().splitlines()
    assert lines[0] == "j,center,position,weight"
    assert (out / "moments.csv").exists()
    assert (out / "weak_limit.csv").exists()
    assert len(builds) == 1


def _report_values(out):
    lines = (out / "report.csv").read_text().splitlines()[1:]
    return [float(line.split(",")[2]) for line in lines]


def _assert_close(got, expected, rtol=1e-12):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


def test_szego_and_clusters_build_no_level_basis(tmp_path, monkeypatch, level6):
    # the dense oracle first, on the level basis itself
    grid = [100.0, 3000.0, 80000.0, 500000.0]
    chi = SimpleFunction(1, [1.0, 1.5, 2.0])
    riesz = operators.riesz_symbol(1.0)
    full = operators.leading_selection(level6)
    lams = full.lambdas

    def cutoff_means(matrix, F):
        return [
            np.mean([F(x) for x in np.linalg.eigvalsh(matrix[:d, :d])])
            for d in (int(np.sum(lams <= c)) for c in grid)
        ]

    trace_full = cutoff_means(
        dense_compression(riesz.p_lambda, None, full), float
    )
    births = [2, 3, 4, 5, 6]
    trace_single = []
    for j in births:
        sel = operators.selection_from_bundles([level6.family_bundle(6, j)])
        trace_single.append(np.mean(np.linalg.eigvalsh(
            dense_compression(riesz.p_lambda, None, sel)
        )))
    logdet_full = cutoff_means(
        dense_compression(lambda lam: lam ** -1.0, chi, full),
        math.log,
    )
    # one simple function per birth: (1 + 1/j, 1.5, 2 - 0.5/j) at level 1
    tab = {j: SimpleFunction(1, [1.0 + 1.0 / j, 1.5, 2.0 - 0.5 / j])
           for j in births}
    trace_tabulated = []
    for j in births:
        sel = operators.selection_from_bundles([level6.family_bundle(6, j)])
        trace_tabulated.append(np.mean(np.linalg.eigvalsh(
            dense_compression(None, tab[j], sel)
        )))
    potential = SimpleFunction(1, [0.8, 1.0, 1.2])
    family = clusters.decimation_family(births, level6)
    _, _, positions = dense_clusters(lambda lam: lam, potential, level6, family)

    refuse_whole_basis(monkeypatch)
    symbol = {"kind": "riesz", "beta": 1.0}
    runs = [
        ("szego-trace", {"m": 6, "mode": "full", "lambda_grid": grid,
                         "symbol": symbol}, trace_full),
        ("szego-trace", {"m": 6, "mode": "single", "series": 6,
                         "j_range": births, "N": 1, "symbol": symbol},
         trace_single),
        ("szego-det", {"m": 6, "mode": "full", "lambda_grid": grid,
                       "symbol": {"kind": "separable",
                                  "q": {"form": "power", "beta": 1.0},
                                  "chi": {"level": 1, "values": [1.0, 1.5, 2.0]},
                                  "lower_bound": 1.0}}, logdet_full),
        ("szego-trace", {"m": 6, "mode": "single", "series": 6,
                         "j_range": births, "N": 1,
                         "symbol": {"kind": "tabulated", "entries": [
                             [level6.family_bundle(6, j).record.value,
                              {"level": 1, "values": tab[j].values.tolist()}]
                             for j in births
                         ], "limit": {"level": 1, "values": [1.0, 1.5, 2.0]}}},
         trace_tabulated),
    ]
    for i, (command, config, expected) in enumerate(runs):
        code, out = run_cli(tmp_path, command, config, name=f"run{i}")
        assert code == 0
        _assert_close(_report_values(out), expected)
    config = {"m": 6, "j_range": births, "p": {"kind": "identity"},
              "chi": {"level": 1, "values": [0.8, 1.0, 1.2]}}
    code, out = run_cli(tmp_path, "clusters", config, name="clusters")
    assert code == 0
    rows = [line.split(",") for line in
            (out / "clusters.csv").read_text().splitlines()[1:]]
    for j, expected in positions.items():
        got = [float(r[2]) for r in rows if int(r[0]) == j]
        _assert_close(got, expected)


def test_dump_operator_compresses_one_eigenspace(tmp_path):
    # the dumped operator is the compression of the last family eigenspace,
    # built alone by its lineage
    f = {"level": 1, "values": [1.0, 2.0, 3.0]}
    code, out = run_cli(tmp_path, "szego-trace", {
        "m": 4, "mode": "single", "series": 6, "j_range": [2, 3, 4], "N": 1,
        "symbol": {"kind": "multiplication", "chi": f}, "dump_operator": True,
    }, name="dump")
    assert code == 0
    meta = json.loads((out / "operator_meta.json").read_text())
    rows = (out / "operator.csv").read_text().splitlines()
    assert len(rows) == 1 + len(meta["keys"])
    basis = eigenbasis.level_basis(4)
    bundle = eigenbasis.eigenspace(4, basis.family_bundle(6, 4).record.key)
    chi = SimpleFunction(1, f["values"])
    operators.operator_to_csv(
        operators.multiplication_symbol(chi), bundle,
        tmp_path / "expected.csv", tmp_path / "expected_meta.json",
    )
    for name, expected in (("operator.csv", "expected.csv"),
                           ("operator_meta.json", "expected_meta.json")):
        assert (out / name).read_bytes() == (tmp_path / expected).read_bytes()
    # the matrix is the dense product over the eigenspace's own columns
    sel = operators.selection_from_bundles([bundle])
    oracle = dense_compression(None, chi, sel, bundle.vectors)
    dumped = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert np.max(np.abs(dumped - oracle)) <= 1e-12


def test_tabulated_szego_det_single(tmp_path, level5):
    # no lower bound is declared: it is the least value of any entry
    births = [2, 3, 4, 5]
    tab = {j: SimpleFunction(1, [1.0 + 1.0 / j, 1.5, 2.0 - 0.5 / j])
           for j in births}
    expected = []
    for j in births:
        sel = operators.selection_from_bundles([level5.family_bundle(6, j)])
        expected.append(np.mean(np.log(np.linalg.eigvalsh(
            dense_compression(None, tab[j], sel)
        ))))
    entries = [[level5.family_bundle(6, j).record.value,
                {"level": 1, "values": tab[j].values.tolist()}] for j in births]
    code, out = run_cli(tmp_path, "szego-det", {
        "m": 5, "mode": "single", "series": 6, "j_range": births, "N": 1,
        "symbol": {"kind": "tabulated", "entries": entries,
                   "limit": {"level": 1, "values": [1.0, 1.5, 2.0]}},
    })
    assert code == 0
    _assert_close(_report_values(out), expected)


def test_repeated_tabulated_entries_exit_2(tmp_path, capsys):
    f = {"level": 1, "values": [1.0, 2.0, 3.0]}
    lam = eigenbasis.level_basis(4).family_bundle(6, 3).record.value
    code, _ = run_cli(tmp_path, "szego-trace", {
        "m": 4, "mode": "single", "series": 6, "j_range": [3], "N": 1,
        "symbol": {"kind": "tabulated",
                   "entries": [[lam, f], [lam * (1 + 1e-10), f]], "limit": f},
    })
    assert code == 2
    assert "config.symbol: " in capsys.readouterr().err


def test_tabulated_without_limit_exits_2_before_any_basis(
    tmp_path, monkeypatch, capsys
):
    def no_basis(*args):
        raise AssertionError("built a level basis")

    for name in ("level_basis", "level_remainder", "eigenspace"):
        monkeypatch.setattr(eigenbasis, name, no_basis)
    monkeypatch.setattr(operators, "level_basis_for", no_basis)
    f = {"level": 1, "values": [1.0, 2.0, 3.0]}
    for command in ("szego-trace", "szego-det"):
        code, _ = run_cli(tmp_path, command, {
            "m": 4, "mode": "single", "series": 6, "j_range": [3], "N": 1,
            "symbol": {"kind": "tabulated", "entries": [[1000.0, f]]},
        }, name=command)
        assert code == 2
        assert "config: config.symbol.limit: required" in capsys.readouterr().err


def test_lambda_only_runs_build_no_vertex_set(tmp_path, monkeypatch):
    # a symbol of lam alone reads only the decimation prediction, and so does
    # a basis run that dumps no eigenspace: no level builds its vertex set
    def refuse(m):
        raise AssertionError(f"built the level-{m} vertex set")

    monkeypatch.setattr(gasket, "_vertices", refuse)
    eigenbasis.level_basis.cache_clear()
    window = decimation.resolvable_window(5)
    runs = [
        ("szego-trace", {"m": 5, "mode": "full", "lambda_grid": [100.0, 3000.0],
                         "symbol": {"kind": "riesz", "beta": 1.0}}),
        ("szego-det", {"m": 5, "mode": "single", "series": 6,
                       "j_range": [2, 3, 4, 5], "N": 1,
                       "symbol": {"kind": "bessel", "beta": 1.0}}),
        ("szego-det", {"m": 5, "mode": "full",
                       "lambda_grid": [100.0, window * 0.9],
                       "symbol": {"kind": "constant", "value": 2.0}}),
        ("basis", {"m": 5}),
    ]
    for i, (command, config) in enumerate(runs):
        code, _ = run_cli(tmp_path, command, config, name=f"run{i}")
        assert code == 0, command


def test_basis_command(tmp_path):
    config = {"m": 2, "dump_vertices": True, "records": ["2:1:"]}
    code, out = run_cli(tmp_path, "basis", config)
    assert code == 0
    assert (out / "bundles.csv").exists()
    assert (out / "vertices.csv").exists()
    assert (out / "bundle_2_1_.csv").exists()


def test_manifest_echoes_the_keys_the_run_reads(tmp_path):
    # exactly the command's (and szego mode's) keys, without unset ones
    code, out = run_cli(tmp_path, "spectrum", {"cutoff": 100.0}, name="spec")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"command": "spectrum", "cutoff": 100.0}
    code, out = run_cli(tmp_path, "basis", {"m": 2, "records": ["2:1:"]},
                        name="basis")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {
        "command": "basis", "m": 2, "records": ["2:1:"], "dump_vertices": False
    }
    cfg = cli.RunConfig.from_dict(
        {"command": "szego-det", "mode": "full", "lambda_grid": [100.0],
         "symbol": {"kind": "riesz", "beta": 1.0}}
    )
    assert cfg.echo() == {
        "command": "szego-det", "m": 5, "mode": "full",
        "lambda_grid": [100.0], "symbol": {"kind": "riesz", "beta": 1.0},
    }


def test_exit_code_2_on_bad_config(tmp_path):
    code, _ = run_cli(tmp_path, "spectrum", {"mystery_knob": 1})
    assert code == 2
    code, _ = run_cli(tmp_path, "spectrum", {})  # missing cutoff
    assert code == 2
    code, _ = run_cli(tmp_path, "szego-trace", {"m": 3, "j_range": [2]})
    assert code == 2  # missing symbol
    cfg = tmp_path / "broken.json"
    cfg.write_text("{nope")
    out = tmp_path / "broken_out"
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    # json.loads refuses integers of more than 4300 digits with a ValueError
    # that is not a JSONDecodeError
    cfg.write_text('{"cutoff": ' + "9" * 5000 + "}")
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2


def test_nonpositive_cutoff_exits_2(tmp_path, capsys):
    # rejected by the config like every other range rule, before any run
    for cutoff in (0.0, -5.0):
        code, out = run_cli(tmp_path, "spectrum", {"cutoff": cutoff})
        assert code == 2
        err = capsys.readouterr().err
        assert f"config: config.cutoff: must be positive, got {cutoff}" in err
        assert not (out / "spectrum.csv").exists()


def test_exit_code_2_on_command_mismatch(tmp_path):
    code, _ = run_cli(tmp_path, "spectrum", {"command": "basis", "cutoff": 10.0})
    assert code == 2


def test_exit_code_1_on_module_error(tmp_path):
    window = decimation.resolvable_window(3)
    config = {
        "m": 3,
        "mode": "full",
        "lambda_grid": [window * 2.0],
        "symbol": {"kind": "riesz", "beta": 1.0},
    }
    code, _ = run_cli(tmp_path, "szego-trace", config)
    assert code == 1


def test_config_validation_messages(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        cli.RunConfig.from_dict({"command": "spectrum"})
    assert "cutoff" in str(err.value)
    with pytest.raises(ConfigError):
        cli.RunConfig.from_dict({"command": "spectrum", "cutoff": "big"})
    with pytest.raises(ConfigError):
        cli._parse_simple({"level": 1}, "chi")  # missing values
    with pytest.raises(ConfigError) as err:
        cli.RunConfig.from_dict(
            {"command": "spectrum", "cutoff": 100.0, "tolerances": {}}
        )
    assert "tolerances" in str(err.value)
    # only the szego commands split their samples by generation
    chi = {"level": 1, "values": [1.0, 2.0, 3.0]}
    for raw in (
        {"command": "clusters", "m": 4, "j_range": [2], "chi": chi},
        {"command": "validate", "m": 3},
    ):
        with pytest.raises(ConfigError) as err:
            cli.RunConfig.from_dict({**raw, "generation_cut": 2})
        assert "generation_cut" in str(err.value)
    cfg = cli.RunConfig.from_dict(
        {"command": "szego-trace", "symbol": {"kind": "riesz", "beta": 1.0},
         "j_range": [3], "generation_cut": 2}
    )
    assert cfg.generation_cut == 2
    # births are integers, and JSON booleans are not
    for raw in (
        {"command": "clusters", "m": 3, "j_range": [True, 2], "chi": chi},
        {"command": "szego-trace", "symbol": {"kind": "riesz", "beta": 1.0},
         "j_range": [2, False]},
        {"command": "szego-trace", "symbol": {"kind": "riesz", "beta": 1.0},
         "j_range": [2.0]},
    ):
        with pytest.raises(ConfigError) as err:
            cli.RunConfig.from_dict(raw)
        assert str(err.value).startswith("config.j_range:")
    # every key is read by its command, and by its szego mode
    riesz = {"kind": "riesz", "beta": 1.0}
    full = {"command": "szego-det", "mode": "full", "lambda_grid": [100.0],
            "symbol": riesz}
    single = {"command": "szego-trace", "j_range": [2], "symbol": riesz}
    for raw, key in (
        ({**full, "F": {"name": "identity"}}, "F"),
        ({**full, "dump_operator": True}, "dump_operator"),
        ({**full, "records": ["6:2:"]}, "records"),
        ({**full, "cutoff": 100.0}, "cutoff"),
        ({**full, "seed": 1}, "seed"),
        ({**full, "series": 6}, "series"),
        ({**full, "j_range": [2]}, "j_range"),
        ({**full, "N": 1}, "N"),
        ({**single, "lambda_grid": [100.0]}, "lambda_grid"),
        ({**single, "mode": "single", "k_max": 2}, "k_max"),
        ({"command": "spectrum", "cutoff": 100.0, "m": 3}, "m"),
        ({"command": "validate", "m": 3, "chi": chi}, "chi"),
        ({"command": "basis", "m": 3, "symbol": riesz}, "symbol"),
    ):
        with pytest.raises(ConfigError) as err:
            cli.RunConfig.from_dict(raw)
        assert str(err.value).startswith(f"config.{key}: not read by")
    for raw in (full, single, {**single, "dump_operator": True, "N": 2}):
        assert cli.RunConfig.from_dict(raw).symbol == riesz
    # malformed or boolean numbers inside p and symbol name their field
    for p, field in (
        ({"kind": "affine", "scale": "x"}, "p.scale"),
        ({"kind": "affine", "offset": True}, "p.offset"),
        ({"kind": "power", "exponent": False}, "p.exponent"),
    ):
        with pytest.raises(ConfigError) as err:
            cli.parse_p(p)
        assert field in str(err.value)
    tab = {"level": 1, "values": [1.0, 2.0, 3.0]}
    for symbol, field in (
        ({"kind": "tabulated", "entries": [["x", tab]]}, "symbol.entries[0][0]"),
        ({"kind": "tabulated", "entries": [[1.0]]}, "symbol.entries[0]"),
        ({"kind": "tabulated", "entries": [[True, tab]]}, "symbol.entries[0][0]"),
        ({"kind": "tabulated", "entries": [[1.0, tab]], "limit": "x"},
         "symbol.limit"),
        ({"kind": "riesz", "beta": True}, "symbol.beta"),
        ({"kind": "bessel", "beta": "2"}, "symbol.beta"),
        ({"kind": "constant", "value": True}, "symbol.value"),
        ({"kind": "separable", "q": {"form": "power", "beta": True},
          "chi": tab}, "symbol.q.beta"),
        ({"kind": "separable", "q": {"form": "constant", "value": "1"},
          "chi": tab}, "symbol.q.value"),
        ({"kind": "separable", "q": {"form": "constant", "value": 1.0},
          "chi": tab, "lower_bound": "x"}, "symbol.lower_bound"),
    ):
        with pytest.raises(ConfigError) as err:
            cli.parse_symbol(symbol)
        assert field in str(err.value)
    # every key must be read by its kind, and a separable limit must be the
    # one its q form has
    power = {"form": "power", "beta": 1.0}
    for symbol, field in (
        ({"kind": "separable", "q": power, "limit": 5.0, "chi": tab},
         "symbol.limit"),
        ({"kind": "separable", "q": power, "limit": 0.0, "chi": tab,
          "bogus": 1}, "symbol.bogus"),
        ({"kind": "separable", "q": {"form": "constant", "value": 2.0},
          "limit": 0.0, "chi": tab}, "symbol.limit"),
        ({"kind": "separable", "q": {**power, "value": 1.0}, "chi": tab},
         "symbol.q.value"),
        ({"kind": "riesz", "beta": 1.0, "value": 2.0}, "symbol.value"),
        ({"kind": "constant", "value": 1.0, "beta": 2.0}, "symbol.beta"),
        ({"kind": "multiplication", "chi": tab, "limit": 1.0}, "symbol.limit"),
        ({"kind": "tabulated", "entries": [[1.0, tab]], "q": power},
         "symbol.q"),
        ({"kind": "multiplication", "chi": {**tab, "extra": 0}},
         "symbol.chi.extra"),
    ):
        with pytest.raises(ConfigError) as err:
            cli.parse_symbol(symbol)
        assert field in str(err.value)
    for kept in (
        {"kind": "separable", "q": power, "limit": 0.0, "chi": tab},
        {"kind": "separable", "q": {"form": "constant", "value": 2.0},
         "limit": 2, "chi": tab},
    ):
        assert cli.parse_symbol(kept).limit_q is not None
    for p, field in (
        ({"kind": "identity", "junk": 1}, "p.junk"),
        ({"kind": "power", "exponent": 2.0, "scale": 1.0}, "p.scale"),
        ({"kind": "affine", "exponent": 2.0}, "p.exponent"),
    ):
        with pytest.raises(ConfigError) as err:
            cli.parse_p(p)
        assert field in str(err.value)
    # trace-function parameters are checked, not converted
    for F, key in (
        ({"name": "identity", "bogus": 1}, "'bogus'"),
        ({"name": "power", "k": 2, "c": 1}, "'c'"),
        ({"name": "power", "k": 2.5}, "'k'"),
        ({"name": "power", "k": True}, "'k'"),
        ({"name": "power", "k": -1}, "'k'"),
        ({"name": "power"}, "'k'"),
        ({"name": "polynomial", "coeffs": "123"}, "'coeffs'"),
        ({"name": "polynomial", "coeffs": []}, "'coeffs'"),
        ({"name": "polynomial", "coeffs": [1.0, True]}, "'coeffs'"),
    ):
        with pytest.raises(ConfigError) as err:
            cli.parse_trace_function(F)
        assert "config.F:" in str(err.value) and key in str(err.value)
    # a simple function's level is an integer and its values are numbers
    for simple, field in (
        ({"level": 1.5, "values": [1.0, 2.0, 3.0]}, "chi.level"),
        ({"level": True, "values": [True, True, True]}, "chi.level"),
        ({"level": 1, "values": [1.0, True, 3.0]}, "chi.values[1]"),
        ({"level": 1, "values": [1.0, "2", 3.0]}, "chi.values[1]"),
        ({"level": 1, "values": 1.0}, "chi.values"),
    ):
        with pytest.raises(ConfigError) as err:
            cli._parse_simple(simple, "chi")
        assert field in str(err.value)
    # through the CLI: exit 2 with the field on stderr, not a traceback
    det = {"m": 3, "mode": "full", "lambda_grid": [100.0],
           "symbol": {"kind": "separable", "q": power, "limit": 5.0,
                      "chi": tab}}
    code, _ = run_cli(tmp_path, "szego-det", det, name="limit")
    assert code == 2
    assert "symbol.limit" in capsys.readouterr().err
    clusters = {"m": 2, "j_range": [2], "chi": {**tab, "level": 1.5}}
    code, _ = run_cli(tmp_path, "clusters", clusters, name="level")
    assert code == 2
    assert "chi.level" in capsys.readouterr().err
    clusters = {"m": 2, "j_range": [2], "chi": tab,
                "p": {"kind": "affine", "scale": "x"}}
    code, _ = run_cli(tmp_path, "clusters", clusters, name="p")
    assert code == 2
    assert "p.scale" in capsys.readouterr().err
    det = {"m": 3, "mode": "full", "lambda_grid": [100.0],
           "symbol": {"kind": "tabulated", "entries": [["x", tab]]}}
    code, _ = run_cli(tmp_path, "szego-det", det, name="tab")
    assert code == 2
    assert "symbol.entries[0][0]" in capsys.readouterr().err
    code, _ = run_cli(tmp_path, "szego-det", {**full, "m": 2, "seed": 3},
                      name="seed")
    assert code == 2
    assert "config.seed: not read by szego-det in full mode" in (
        capsys.readouterr().err
    )
    trace = {**full, "command": "szego-trace", "m": 2,
             "F": {"name": "power", "k": 2.5}}
    code, _ = run_cli(tmp_path, "szego-trace", trace, name="power")
    assert code == 2
    assert "config.F: parameter 'k'" in capsys.readouterr().err
    code, _ = run_cli(tmp_path, "basis", {"m": 2, "records": ["9:9:"]},
                      name="records")
    assert code == 2
    assert "config.records[0]: no eigenspace" in capsys.readouterr().err
    # json.loads accepts NaN and Infinity; every numeric field rejects them,
    # and ints beyond float range
    nan, inf = float("nan"), float("inf")
    trace_run = {**full, "command": "szego-trace", "m": 2}
    nan_chi = {**tab, "values": [1.0, nan, 3.0]}
    for command, raw, field in (
        ("szego-trace", {**single, "m": 2, "symbol": {**riesz, "beta": nan}},
         "symbol.beta"),
        ("spectrum", {"cutoff": inf}, "cutoff"),
        ("spectrum", {"cutoff": -inf}, "cutoff"),
        ("spectrum", {"cutoff": 10 ** 400}, "cutoff"),
        ("szego-det", {**full, "m": 2, "lambda_grid": [100.0, inf]},
         "lambda_grid[1]"),
        ("clusters", {"m": 2, "j_range": [2], "chi": nan_chi}, "chi.values[1]"),
        ("clusters", {"m": 2, "j_range": [2], "chi": tab,
                      "p": {"kind": "affine", "offset": -inf}}, "p.offset"),
    ):
        code, out = run_cli(tmp_path, command, raw, name="nonfinite")
        assert code == 2, raw
        assert f"config.{field}: must be a finite number" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
    for coeffs in ([1.0, nan], [inf], [10 ** 400]):
        poly = {"name": "polynomial", "coeffs": coeffs}
        code, _ = run_cli(tmp_path, "szego-trace", {**trace_run, "F": poly},
                          name="coeffs")
        assert code == 2
        assert ("config.F: parameter 'coeffs' must be a non-empty list of "
                "finite numbers") in capsys.readouterr().err


def test_malformed_chi_exits_2(tmp_path):
    config = {"m": 3, "j_range": [2], "chi": {"level": 1}}
    code, _ = run_cli(tmp_path, "clusters", config)
    assert code == 2


@pytest.mark.parametrize("command, key, value", [
    ("szego-trace", "symbol", {"kind": "riesz", "beta": "x"}),
    ("szego-trace", "F", {"name": "polynomial"}),
    ("clusters", "p", {"kind": "power"}),
    ("clusters", "chi", {"level": 1, "values": [1.0, 2.0]}),
])
def test_malformed_nested_object_leaves_no_output_directory(
    tmp_path, capsys, command, key, value
):
    # every nested object the run reads is parsed with the config, before
    # the run makes its output directory
    config = {"m": 3, "j_range": [2]}
    if command == "szego-trace":
        config["symbol"] = {"kind": "riesz", "beta": 1.0}
    else:
        config["chi"] = {"level": 1, "values": [1.0, 2.0, 3.0]}
    code, out = run_cli(tmp_path, command, {**config, key: value})
    assert code == 2
    assert f"config: config.{key}" in capsys.readouterr().err
    assert not out.exists()


# a valid config of each command, and of each szego-trace mode, that a
# wrongly typed value of one key turns into a config error
_RIESZ = {"kind": "riesz", "beta": 1.0}
_SINGLE = {"m": 3, "symbol": _RIESZ, "j_range": [2]}
_VALID = {
    "spectrum": {"cutoff": 100.0},
    "basis": {"m": 2},
    "szego-trace": _SINGLE,
    "szego-det": _SINGLE,
    "clusters": {"m": 3, "j_range": [2],
                 "chi": {"level": 1, "values": [1.0, 2.0, 3.0]}},
    "validate": {"m": 1},
    "single": _SINGLE,
    "full": {"m": 3, "mode": "full", "symbol": _RIESZ, "lambda_grid": [100.0]},
}
_KEY_CASES = [
    *((command, command, key, "wrong")
      for command, keys in cli._COMMAND_KEYS.items() for key in sorted(keys)),
    *(("szego-trace", mode, key, "wrong")
      for mode, keys in cli._MODE_KEYS.items() for key in sorted(keys)),
    ("basis", "basis", "records", ["9:9:"]),
]


@pytest.mark.parametrize(
    "command, base, key, value", _KEY_CASES,
    ids=[f"{base}-{key}" + ("" if value == "wrong" else "-unknown")
         for _, base, key, value in _KEY_CASES],
)
def test_every_config_key_is_checked_before_the_run(
    tmp_path, capsys, command, base, key, value
):
    # every key a command reads is checked by `RunConfig.from_dict`, so a
    # bad value exits 2 naming it before the run makes its output directory
    code, out = run_cli(tmp_path, command, {**_VALID[base], key: value})
    assert code == 2
    assert f"config: config.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_basis_refuses_a_level_past_the_cap_before_growing_anything(tmp_path, capsys):
    # the record keys are checked against the prediction only at a level
    # the run can build; past the cap it refuses the level first
    tracemalloc.start()
    try:
        code, _ = run_cli(tmp_path, "basis", {"m": 16, "records": ["6:16:+"]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "level 16 exceeds cap 8" in capsys.readouterr().err
    assert peak < 16 * 2**20


@pytest.mark.parametrize("command, config, message", [
    ("validate", {"m": 9}, "level 9 exceeds cap 8"),
    ("basis", {"m": 16, "records": ["6:16:+"]}, "level 16 exceeds cap 8"),
    ("szego-trace", {"m": 9, "mode": "full", "symbol": _RIESZ,
                     "lambda_grid": [100.0]}, "level 9 exceeds cap 8"),
    ("clusters", {"m": 0, "j_range": [2],
                  "chi": {"level": 1, "values": [1.0, 2.0, 3.0]}},
     "no interior vertices at level 0"),
], ids=["validate-m9", "basis-m16", "szego-trace-m9", "clusters-m0"])
def test_refused_level_leaves_no_output_directory(
    tmp_path, capsys, command, config, message
):
    # the run refuses a level the library cannot build before it makes its
    # output directory, with the library's own error
    code, out = run_cli(tmp_path, command, config)
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_symbol_parsing_errors():
    with pytest.raises(ConfigError):
        cli.parse_symbol({"kind": "riesz"})
    with pytest.raises(ConfigError):
        cli.parse_symbol({"kind": "riesz", "beta": -1.0})
    with pytest.raises(ConfigError):
        cli.parse_symbol({"kind": "warp", "beta": 1.0})
    sym = cli.parse_symbol(
        {
            "kind": "separable",
            "q": {"form": "power", "beta": 1.0},
            "limit": 0.0,
            "chi": {"level": 1, "values": [1.0, 2.0, 3.0]},
        }
    )
    assert sym.p_lambda(4.0) == 0.25 and not sym.entries
    assert sym.chi.values.tolist() == sym.limit_q.values.tolist() == [1.0, 2.0, 3.0]


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("GASKET_SZEGO_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cli._configure_threads()
    import os

    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def _cli_process(tmp_path, command, config):
    """The CLI run as its own process, so that a traceback reaches stderr."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return subprocess.run(
        [sys.executable, "-m", "gasket_szego.cli", command,
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("symbol", [
    {"kind": "constant", "value": -1.0},
    {"kind": "separable", "q": {"form": "power", "beta": 1.0},
     "chi": {"level": 1, "values": [-1.0, 1.0, 2.0]}},
])
def test_full_logdet_of_a_nonpositive_symbol_exits_1_by_name(tmp_path, symbol):
    # refused by the lower-bound check, not by math.log's domain error
    result = _cli_process(tmp_path, "szego-det", {
        "m": 4, "mode": "full", "lambda_grid": [100.0], "symbol": symbol,
    })
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "lower bound" in result.stderr
    assert "Traceback" not in result.stderr


LOG_OF_NEGATIVE = {
    "m": 4, "mode": "full", "lambda_grid": [100.0, 3000.0],
    "symbol": {"kind": "constant", "value": -1.0}, "F": {"name": "log"},
}


def test_full_trace_of_log_at_a_nonpositive_limit_exits_1_by_name(tmp_path):
    # F = log at the limit -1: refused before any compression, naming F and
    # the value, not by math.log's domain error
    result = _cli_process(tmp_path, "szego-trace", LOG_OF_NEGATIVE)
    assert result.returncode == 1
    assert result.stderr.startswith("error: F = log is undefined at the limit "
                                    "value -1.0")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("config", [
    {"m": 4, "mode": "single", "series": 6, "j_range": [1, 2], "N": 1,
     "symbol": {"kind": "riesz", "beta": 1.0}},
    {"m": 4, "mode": "full", "lambda_grid": [100.0, 1e9],
     "symbol": {"kind": "riesz", "beta": 1.0}},
    LOG_OF_NEGATIVE,
], ids=["birth-at-N", "past-the-window", "log-of-negative"])
def test_refusal_inside_a_command_leaves_no_output_directory(
    tmp_path, capsys, config
):
    # the handler refuses after the run made the directory: the run
    # removes it, since nothing was written
    code, out = run_cli(tmp_path, "szego-trace", config)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


_CHI_SYMBOL = {"kind": "multiplication", "chi": {"level": 1, "values": [1.0, 1.5, 2.0]}}
_SEPARABLE = {"kind": "separable", "q": {"form": "power", "beta": 1.0},
              "chi": {"level": 1, "values": [1.0, 1.5, 2.0]}, "lower_bound": 1.0}


@pytest.mark.parametrize("command, config, message", [
    ("szego-trace", {"m": 8, "mode": "single", "series": 6, "j_range": [1, 2],
                     "N": 1, "symbol": _CHI_SYMBOL},
     "birth 1 must exceed the approximation level 1"),
    ("szego-trace", {"m": 8, "mode": "single", "series": 5, "j_range": [2, 9],
                     "N": 1, "symbol": _CHI_SYMBOL},
     "birth 9 exceeds graph level 8"),
    ("szego-trace", {"m": 8, "mode": "full", "lambda_grid": [100.0, 1e12],
                     "symbol": _CHI_SYMBOL},
     "cutoff 1000000000000.0 reaches the resolvable window"),
    ("szego-det", {"m": 8, "mode": "single", "series": 6, "j_range": [3, 4],
                   "N": 3, "symbol": _SEPARABLE},
     "birth 3 must exceed the approximation level 3"),
    ("szego-det", {"m": 8, "mode": "full", "lambda_grid": [1e12],
                   "symbol": _SEPARABLE},
     "cutoff 1000000000000.0 reaches the resolvable window"),
], ids=["birth-at-N", "birth-past-m", "past-the-window", "det-birth-at-N",
        "det-past-the-window"])
def test_a_refused_sweep_builds_no_remainder(
    tmp_path, monkeypatch, capsys, command, config, message
):
    # the sweep's argument checks run before the remainder of the symbol's
    # cell level is built (2 s and 185 MiB at m = 8), so each refusal exits
    # 1 with its own message and never reaches the walk
    def refuse(m, k):
        raise AssertionError(f"the refused run built walk_remainder({m}, {k})")

    monkeypatch.setattr(eigenbasis, "walk_remainder", refuse)
    code, out = run_cli(tmp_path, command, config)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_a_refusal_keeps_a_directory_it_did_not_make(tmp_path):
    out = tmp_path / "run_out"
    out.mkdir()
    code, _ = run_cli(tmp_path, "szego-trace", LOG_OF_NEGATIVE)
    assert code == 1
    assert out.is_dir()


def test_cli_import_loads_no_numpy():
    # GASKET_SZEGO_THREADS applies only if numpy loads after the CLI's import;
    # decimation imports numpy, so the CLI must not import it up front
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    probe = (
        "import sys, gasket_szego.cli; "
        "print(sorted(m for m in ('numpy', 'gasket_szego.decimation') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_rerun_full_mode_byte_identical(tmp_path):
    config = {
        "m": 3,
        "mode": "full",
        "lambda_grid": [100.0, 500.0, 3000.0],
        "symbol": {"kind": "riesz", "beta": 1.0},
        "F": {"name": "identity"},
    }
    _, out1 = run_cli(tmp_path, "szego-trace", config, name="a")
    _, out2 = run_cli(tmp_path, "szego-trace", config, name="b")
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def _outputs_at_thread_caps(tmp_path, command, config, name):
    """The output directories of one CLI run at 1 and at 2 BLAS threads,
    each in its own process."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    root = Path(__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        }
        env["GASKET_SZEGO_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        out = tmp_path / f"{name}_threads{threads}"
        result = subprocess.run(
            [sys.executable, "-m", "gasket_szego.cli", command,
             "--config", str(cfg), "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out)
    return outputs


def test_basis_dump_identical_across_thread_caps(tmp_path):
    # every file but the manifest (which records the cap and timings) must
    # not depend on the number of BLAS threads: every file `basis` writes,
    # `validate.csv` at m = 5, 6 and 7, and the reports of the szego runs
    # whose remainder products and eigensolves were measured byte-identical
    # at m = 5 (see the README)
    keys = [g.record.key for g in decimation.truncated_graph_spectrum(5)]
    single = {"m": 5, "mode": "single", "series": 6, "j_range": [2, 3, 4, 5],
              "N": 1}
    riesz = {"kind": "riesz", "beta": 1.0}
    runs = [
        ("basis", {"m": 5, "records": keys, "dump_vertices": True}, len(keys) + 3),
        ("validate", {"m": 5}, 2),
        ("validate", {"m": 6}, 2),
        ("validate", {"m": 7}, 2),
        ("szego-trace", {"m": 5, "mode": "full", "symbol": riesz,
                         "lambda_grid": [100.0, 3000.0, 80000.0],
                         "F": {"name": "power", "k": 2}}, 3),
        ("szego-trace", {**single, "symbol": {
            "kind": "multiplication",
            "chi": {"level": 1, "values": [0.8, 1.0, 1.2]}}}, 3),
        ("szego-det", {**single, "symbol": {
            "kind": "separable", "q": {"form": "power", "beta": 1.0},
            "chi": {"level": 1, "values": [1.0, 1.5, 2.0]},
            "lower_bound": 1.0}}, 3),
    ]
    for i, (command, config, count) in enumerate(runs):
        outputs = _outputs_at_thread_caps(tmp_path, command, config, f"run{i}")
        names = sorted(p.name for p in outputs[0].iterdir()
                       if p.name != "manifest.json")
        # basis: bundles, vertices, config; validate: its csv, config;
        # szego: report csv and json, config
        assert len(names) == count
        for name in names:
            first, second = (out / name for out in outputs)
            assert first.read_bytes() == second.read_bytes(), (command, name)


def test_config_rejects_repeated_entries(tmp_path, capsys):
    # each j_range or lambda_grid entry is one report row; a repeated entry
    # would write its row twice
    riesz = {"kind": "riesz", "beta": 1.0}
    chi = {"level": 1, "values": [0.8, 1.0, 1.2]}
    cases = [
        ("szego-trace", {"m": 4, "mode": "single", "j_range": [3, 2, 3],
                         "symbol": riesz}, "j_range"),
        ("szego-det", {"m": 4, "mode": "full", "lambda_grid": [100.0, 100.0],
                       "symbol": riesz}, "lambda_grid"),
        ("szego-det", {"m": 4, "mode": "full", "lambda_grid": [100, 100.0],
                       "symbol": riesz}, "lambda_grid"),
        ("clusters", {"m": 4, "j_range": [2, 3, 3], "chi": chi}, "j_range"),
    ]
    for i, (command, config, key) in enumerate(cases):
        with pytest.raises(ConfigError) as err:
            cli.RunConfig.from_dict({"command": command, **config})
        assert str(err.value).startswith(f"config.{key}: repeats")
        code, out = run_cli(tmp_path, command, config, name=f"dup{i}")
        assert code == 2
        assert f"config.{key}: repeats" in capsys.readouterr().err
        assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"

# the files the README says each command writes, besides config.json and
# manifest.json
README_OUTPUTS = {
    "spectrum": ["spectrum.csv"],
    "szego-trace": ["report.csv", "report.json"],
    "szego-det": ["report.csv", "report.json"],
    "clusters": ["clusters.csv", "moments.csv", "weak_limit.csv",
                 "weak_limit.json"],
    "validate": ["validate.csv"],
}


def _readme_examples():
    """(command, config) for each example of the README's jsonc block: a
    `// <command>...` comment line, then the config."""
    text = README.read_text(encoding="utf-8")
    block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("//"):
            examples.append([line[2:].split()[0].rstrip(":,"), ""])
        elif line.strip():
            examples[-1][1] += line + "\n"
    return [(command, json.loads(body)) for command, body in examples]


def test_readme_examples_run(tmp_path):
    examples = _readme_examples()
    assert [command for command, _ in examples] == list(README_OUTPUTS)
    readme = README.read_text(encoding="utf-8")
    root = README.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    for i, (command, config) in enumerate(examples):
        assert config.get("m", 5) == 5
        cfg = tmp_path / f"example{i}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"example{i}"
        result = subprocess.run(
            [sys.executable, "-m", "gasket_szego.cli", command,
             "--config", str(cfg), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, (command, result.stderr)
        names = ["config.json", "manifest.json", *README_OUTPUTS[command]]
        for name in names:
            assert f"`{name}`" in readme, name
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(README_OUTPUTS[command])


SWEEP_JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "sweep_jobs.py"
WORKLOADS = SWEEP_JOBS.with_name("workloads.py")


def _module(path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chi_below_level_m_builds_no_n_by_n_basis(tmp_path, monkeypatch):
    # the README's promise: every README example at m = 4 (with
    # dump_operator), validate among them, and every sweep-warm job kind
    # through the API run with level_remainder(m, m) refused; their chi are
    # simple below level m (a callable chi or one simple at level m builds
    # the n x n basis, see the next test)
    refuse_whole_basis(monkeypatch)
    window = decimation.resolvable_window(4)
    for i, (command, config) in enumerate(_readme_examples()):
        if "m" in config:
            config["m"] = 4
        if "j_range" in config:
            config["j_range"] = [j for j in config["j_range"] if j <= 4]
        if "lambda_grid" in config:
            config["lambda_grid"] = [c for c in config["lambda_grid"] if c < window]
        if command == "szego-trace":
            config["dump_operator"] = True
        code, out = run_cli(tmp_path, command, config, name=f"example{i}")
        assert code == 0, command
    assert (tmp_path / "example1_out" / "operator.csv").exists()
    sweep_jobs, workloads = _module(SWEEP_JOBS), _module(WORKLOADS)
    monkeypatch.setitem(sweep_jobs.FULL_GRIDS, 4, [100.0, 3000.0, 20000.0])
    monkeypatch.setattr(sweep_jobs, "CLUSTER_BIRTHS", [2, 3, 4])
    for kind, variants in workloads.SWEEP_VARIANTS.items():
        for variant in variants:
            assert sweep_jobs.run_job({"kind": kind, "m": 4, **variant}), kind


def test_callable_and_level_m_simple_chi_build_one_n_by_n_basis():
    # a callable chi compresses at cell level m, and so does a chi simple
    # at level m: both read the one cached n x n basis
    eigenbasis.level_remainder.cache_clear()
    basis = eigenbasis.level_basis(4)
    sel = operators.leading_selection(basis)
    fine = SimpleFunction(4, np.linspace(0.5, 1.5, 81))
    for chi in (lambda x, y: 1.0 + x * y, fine):
        op = operators.compress(operators.multiplication_symbol(chi), sel)
        assert op.atoms.size == 0 and op.remainder.shape == (sel.dim, sel.dim)
    info = eigenbasis.level_remainder.cache_info()
    assert (info.misses, info.hits) == (1, 1)
