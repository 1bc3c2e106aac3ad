"""Batch front end: JSON-configured experiments with CSV/JSON/SVG artifacts.

Single-process, deterministic-output tool.  Numeric output is formatted at 17
significant digits and all orderings are canonical, so re-running a config
reproduces every CSV byte-for-byte.  `GASKET_SZEGO_THREADS` caps BLAS
threading; it is applied before numpy is imported.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, GasketError

COMMANDS = ("spectrum", "basis", "szego-trace", "szego-det", "clusters", "validate")

# the keys each command reads, and each szego mode adds; a config key that
# its run does not read is rejected rather than ignored
_COMMAND_KEYS = {
    "spectrum": {"cutoff"},
    "basis": {"m", "records", "dump_vertices"},
    "szego-trace": {"m", "mode", "symbol", "F", "generation_cut"},
    "szego-det": {"m", "mode", "symbol", "generation_cut"},
    "clusters": {"m", "j_range", "p", "chi", "k_max"},
    "validate": {"m", "seed"},
}
_MODE_KEYS = {
    "single": {"series", "j_range", "N", "dump_operator"},
    "full": {"lambda_grid"},
}


def _read_keys(command: str, mode: str) -> set[str]:
    """The config keys a run of `command` in `mode` reads."""
    reads = {"command"} | _COMMAND_KEYS[command]
    if "mode" in reads:
        reads |= _MODE_KEYS[mode]
    return reads


@dataclass
class RunConfig:
    """Fully serializable description of one batch run."""

    command: str
    m: int = 5
    cutoff: float | None = None
    lambda_grid: list | None = None
    mode: str = "single"
    series: int = 6
    j_range: list = field(default_factory=list)
    N: int = 1
    k_max: int = 4
    symbol: dict | None = None
    F: dict = field(default_factory=lambda: {"name": "identity"})
    p: dict = field(default_factory=lambda: {"kind": "identity"})
    chi: dict | None = None
    seed: int = 0
    records: list = field(default_factory=list)
    dump_vertices: bool = False
    dump_operator: bool = False
    generation_cut: int | None = None
    plot: bool = False

    @staticmethod
    def from_dict(raw: dict, command: str | None = None, plot: bool = False):
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "configuration must be a JSON object")
        cfg_command = raw.get("command", command)
        if cfg_command is None:
            raise ConfigError("command", "missing")
        if command is not None and cfg_command != command:
            raise ConfigError(
                "command",
                f"config says {cfg_command!r} but the CLI asked for {command!r}",
            )
        if cfg_command not in COMMANDS:
            raise ConfigError("command", f"must be one of {COMMANDS}")
        cfg = RunConfig(command=cfg_command, plot=plot)
        if "mode" in raw:
            if raw["mode"] not in ("single", "full"):
                raise ConfigError("mode", "must be 'single' or 'full'")
            cfg.mode = raw["mode"]
        reads, where = _read_keys(cfg_command, cfg.mode), cfg_command
        if "mode" in reads:
            where += f" in {cfg.mode} mode"
        unknown = sorted(str(key) for key in set(raw) - reads)
        if unknown:
            raise ConfigError(unknown[0], f"not read by {where}")
        _assign_int(cfg, raw, "m", minimum=0)
        _assign_int(cfg, raw, "N", minimum=1)
        _assign_int(cfg, raw, "k_max", minimum=0)
        _assign_int(cfg, raw, "seed", minimum=0)
        _assign_int(cfg, raw, "series", choices=(5, 6))
        if "generation_cut" in raw:
            _assign_int(cfg, raw, "generation_cut", minimum=1)
        if "cutoff" in raw:
            cfg.cutoff = _number(raw, "cutoff")
            if cfg.cutoff <= 0:
                raise ConfigError("cutoff", f"must be positive, got {cfg.cutoff}")
        if "lambda_grid" in raw:
            grid = raw["lambda_grid"]
            if not isinstance(grid, list) or not grid:
                raise ConfigError("lambda_grid", "must be a non-empty list")
            cfg.lambda_grid = _distinct("lambda_grid", [
                _number({"x": g}, "x", f"lambda_grid[{i}]")
                for i, g in enumerate(grid)
            ])
        if "j_range" in raw:
            jr = raw["j_range"]
            if not isinstance(jr, list) or any(type(j) is not int for j in jr):
                raise ConfigError("j_range", "must be a list of integers")
            cfg.j_range = _distinct("j_range", jr)
        for key in ("symbol", "F", "p", "chi"):
            if key in raw:
                if not isinstance(raw[key], dict):
                    raise ConfigError(key, "must be an object")
                setattr(cfg, key, raw[key])
        if "records" in raw:
            if not isinstance(raw["records"], list):
                raise ConfigError("records", "must be a list of record keys")
            cfg.records = [str(k) for k in raw["records"]]
            _check_record_keys(cfg)
        for key in ("dump_vertices", "dump_operator"):
            if key in raw:
                if not isinstance(raw[key], bool):
                    raise ConfigError(key, "must be a boolean")
                setattr(cfg, key, raw[key])
        _validate_requirements(cfg)
        # the nested objects the run reads are parsed here, so that a
        # malformed one fails before the run makes its output directory
        for key, parse in (("symbol", parse_symbol), ("F", parse_trace_function),
                           ("p", parse_p), ("chi", _parse_simple)):
            if key in reads:
                parse(getattr(cfg, key), key)
        return cfg

    def echo(self) -> dict:
        """Every key the run reads, with its value; unset optional keys
        (None) are left out."""
        reads = sorted(_read_keys(self.command, self.mode))
        return {key: getattr(self, key) for key in reads
                if getattr(self, key) is not None}


def _check_record_keys(cfg: RunConfig) -> None:
    """Unknown record keys fail with the config, from the level's prediction
    alone; a level the run cannot build it refuses before growing anything."""
    from .decimation import truncated_graph_spectrum
    from .gasket import LEVEL_CAP

    if not 1 <= cfg.m <= LEVEL_CAP:
        return
    known = {g.record.key for g in truncated_graph_spectrum(cfg.m)}
    for i, key in enumerate(cfg.records):
        if key not in known:
            raise ConfigError(
                f"records[{i}]",
                f"no eigenspace with record key {key} at level {cfg.m}",
            )


def _assign_int(cfg, raw, key, minimum=None, choices=None):
    if key not in raw:
        return
    value = raw[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(key, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(key, f"must be >= {minimum}, got {value}")
    if choices is not None and value not in choices:
        raise ConfigError(key, f"must be one of {choices}, got {value}")
    setattr(cfg, key, value)


def _number(raw, key, label=None):
    value = raw.get(key)
    # abs(value) <= max is False for nan, the infinities and ints beyond
    # float range, all of which json.loads accepts
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        raise ConfigError(label or key, f"must be a finite number, got {value!r}")
    return float(value)


def _distinct(key: str, values: list) -> list:
    """`values`, none of them repeated: each entry is one report row."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(key, f"repeats {repeated[0]!r}; each entry is one row")
    return values


def _validate_requirements(cfg: RunConfig) -> None:
    if cfg.command == "spectrum" and cfg.cutoff is None:
        raise ConfigError("cutoff", "required by the spectrum command")
    if cfg.command in ("szego-trace", "szego-det"):
        if cfg.symbol is None:
            raise ConfigError("symbol", f"required by {cfg.command}")
        if cfg.mode == "full" and cfg.lambda_grid is None:
            raise ConfigError("lambda_grid", "required in full mode")
        if cfg.mode == "single" and not cfg.j_range:
            raise ConfigError("j_range", "required in single mode")
    if cfg.command == "clusters":
        if cfg.chi is None:
            raise ConfigError("chi", "required by the clusters command")
        if not cfg.j_range:
            raise ConfigError("j_range", "required by the clusters command")


def _check_keys(d: dict, fld: str, *allowed: str) -> None:
    """Reject the keys of the object `d` that its kind does not read."""
    unknown = sorted(str(key) for key in set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"{fld}.{unknown[0]}", "unknown key")


def _parse_simple(d: dict, fld: str):
    from .gasket import SimpleFunction

    if not isinstance(d, dict) or "level" not in d or "values" not in d:
        raise ConfigError(fld, "simple function needs 'level' and 'values'")
    _check_keys(d, fld, "level", "values")
    level, values = d["level"], d["values"]
    if not isinstance(level, int) or isinstance(level, bool):
        raise ConfigError(f"{fld}.level", f"must be an integer, got {level!r}")
    if not isinstance(values, list):
        raise ConfigError(f"{fld}.values", f"must be a list, got {values!r}")
    values = [_number({"v": v}, "v", f"{fld}.values[{i}]")
              for i, v in enumerate(values)]
    try:
        return SimpleFunction(level, values)
    except GasketError as exc:
        raise ConfigError(fld, str(exc)) from exc


def parse_symbol(d: dict, fld: str = "symbol"):
    from . import operators

    kind = d.get("kind")
    try:
        if kind in ("riesz", "bessel"):
            _check_keys(d, fld, "kind", "beta")
            beta = _number(d, "beta", f"{fld}.beta")
            return operators.make_symbol(kind, beta=beta)
        if kind == "constant":
            _check_keys(d, fld, "kind", "value")
            value = _number(d, "value", f"{fld}.value")
            return operators.constant_symbol(
                lambda lam: value,
                limit=value,
                lower_bound=value if value > 0 else None,
                name=f"constant({value:g})",
            )
        if kind == "multiplication":
            _check_keys(d, fld, "kind", "chi")
            return operators.multiplication_symbol(
                _parse_simple(d.get("chi"), f"{fld}.chi")
            )
        if kind == "separable":
            _check_keys(d, fld, "kind", "q", "chi", "lower_bound", "limit")
            q = d.get("q")
            if not isinstance(q, dict):
                raise ConfigError(f"{fld}.q", "required object")
            q_fn, q_name, limit = _parse_q(q, f"{fld}.q")
            # the limit follows from the q form; a stated one must agree
            if "limit" in d and _number(d, "limit", f"{fld}.limit") != limit:
                raise ConfigError(
                    f"{fld}.limit",
                    f"the q form has limit {limit!r}, got {d['limit']!r}",
                )
            chi = _parse_simple(d.get("chi"), f"{fld}.chi")
            lower = d.get("lower_bound")
            return operators.separable_symbol(
                q_fn,
                limit,
                chi,
                lower_bound=(
                    None if lower is None
                    else _number(d, "lower_bound", f"{fld}.lower_bound")
                ),
                name=f"separable({q_name}+chi)",
            )
        if kind == "tabulated":
            _check_keys(d, fld, "kind", "entries", "limit")
            entries = d.get("entries")
            if not isinstance(entries, list) or not entries:
                raise ConfigError(f"{fld}.entries", "required non-empty list")
            parsed = [
                _parse_entry(entry, f"{fld}.entries[{i}]")
                for i, entry in enumerate(entries)
            ]
            limit = d.get("limit")
            if limit is None:
                raise ConfigError(
                    f"{fld}.limit", "required: the Szegő reports integrate against it"
                )
            if isinstance(limit, dict):
                limit = _parse_simple(limit, f"{fld}.limit")
            else:
                limit = _number(d, "limit", f"{fld}.limit")
            return operators.tabulated_symbol(parsed, limit_q=limit)
    except GasketError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(fld, str(exc)) from exc
    raise ConfigError(f"{fld}.kind", f"unknown symbol kind {kind!r}")


def _parse_entry(entry, fld: str):
    """One tabulated entry: [eigenvalue, simple function]."""
    if not isinstance(entry, list) or len(entry) != 2:
        raise ConfigError(fld, f"must be [eigenvalue, function], got {entry!r}")
    lam = _number({"lam": entry[0]}, "lam", f"{fld}[0]")
    return lam, _parse_simple(entry[1], fld)


def _parse_q(q: dict, fld: str):
    form = q.get("form")
    if form == "power":
        _check_keys(q, fld, "form", "beta")
        beta = _number(q, "beta", f"{fld}.beta")
        if beta <= 0:
            raise ConfigError(f"{fld}.beta", f"must be positive, got {beta!r}")
        return (lambda lam: lam ** (-beta)), f"lam^-{beta:g}", 0.0
    if form == "constant":
        _check_keys(q, fld, "form", "value")
        value = _number(q, "value", f"{fld}.value")
        return (lambda lam: value), f"{value:g}", value
    raise ConfigError(f"{fld}.form", f"unknown q form {form!r}")


def parse_trace_function(d: dict, fld: str = "F"):
    from . import szego

    name = d.get("name")
    try:
        params = {k: v for k, v in d.items() if k != "name"}
        return szego.make_trace_function(name, **params)
    except (GasketError, TypeError) as exc:
        raise ConfigError(fld, str(exc)) from exc


def parse_p(d: dict, fld: str = "p"):
    kind = d.get("kind", "identity")
    if kind == "identity":
        _check_keys(d, fld, "kind")
        return (lambda lam: lam), "identity"
    if kind == "power":
        _check_keys(d, fld, "kind", "exponent")
        exponent = _number(d, "exponent", f"{fld}.exponent")
        return (lambda lam: lam ** exponent), f"power({exponent:g})"
    if kind == "affine":
        _check_keys(d, fld, "kind", "scale", "offset")
        scale = _number(d, "scale", f"{fld}.scale") if "scale" in d else 1.0
        offset = _number(d, "offset", f"{fld}.offset") if "offset" in d else 0.0
        return (lambda lam: scale * lam + offset), f"affine({scale:g},{offset:g})"
    raise ConfigError(f"{fld}.kind", f"unknown p kind {kind!r}")


def _configure_threads() -> None:
    cap = os.environ.get("GASKET_SZEGO_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


def run(config: RunConfig, out_dir, config_text: str | None = None) -> int:
    """Execute one config; writes artifacts plus a manifest, returns 0.

    A handler may add the times of its stages to the manifest's timings.
    A refusal leaves no output directory that this run made and left empty."""
    from .serialize import sha256_file, write_json

    if "m" in _read_keys(config.command, config.mode):
        # a level the library refuses leaves no output directory
        from .eigenbasis import _check_level

        _check_level(config.m)
    out_dir = Path(out_dir)
    made = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    started = time.perf_counter()
    handler = _HANDLERS[config.command]
    try:
        outputs = handler(config, out_dir, timings)
    except BaseException:
        if made and not any(out_dir.iterdir()):
            out_dir.rmdir()
        raise
    timings["total_seconds"] = time.perf_counter() - started

    echo_path = out_dir / "config.json"
    if config_text is not None:
        echo_path.write_text(config_text, encoding="utf-8")
    else:
        write_json(echo_path, config.echo())
    manifest = {
        "command": config.command,
        "config": config.echo(),
        "package_version": _package_version(),
        "python_version": platform.python_version(),
        "numpy_version": _numpy_version(),
        "renormalization": "(3/2)*5^m",
        "threads_cap": os.environ.get("GASKET_SZEGO_THREADS"),
        "timings": timings,
        "outputs": {
            name: {
                "sha256": sha256_file(out_dir / name),
                "bytes": (out_dir / name).stat().st_size,
            }
            for name in sorted(outputs)
        },
    }
    write_json(out_dir / "manifest.json", manifest)
    return 0


def _package_version() -> str:
    from . import __version__

    return __version__


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


def _stage_clock(timings: dict):
    """A function recording under `<stage>_seconds` the time since its last call."""
    last = [time.perf_counter()]

    def stage_done(stage: str) -> None:
        now = time.perf_counter()
        timings[f"{stage}_seconds"], last[0] = now - last[0], now

    return stage_done


def _cmd_spectrum(config: RunConfig, out_dir: Path, timings: dict) -> list[str]:
    from . import decimation

    stage_done = _stage_clock(timings)
    table = decimation.enumerate_spectrum(config.cutoff)
    stage_done("search")
    decimation.spectrum_to_csv(table, out_dir / "spectrum.csv")
    stage_done("csv")
    return ["spectrum.csv"]


def _sanitize(key: str) -> str:
    return key.replace(":", "_").replace("+", "p").replace("-", "m")


def _cmd_basis(config: RunConfig, out_dir: Path, timings: dict) -> list[str]:
    from . import eigenbasis, gasket
    from .serialize import write_csv

    # the prediction labels every eigenspace, and each listed one is built
    # alone by its lineage
    stage_done = _stage_clock(timings)
    basis = eigenbasis.level_basis(config.m)
    rows = [
        (b.record.key, b.graph_value, b.dim, b.record.value, b.record.multiplicity)
        for b in basis.bundles
    ]
    write_csv(
        out_dir / "bundles.csv",
        ("record", "graph_value", "dim", "value", "multiplicity"),
        rows,
    )
    outputs = ["bundles.csv"]
    stage_done("workspace")
    for key in config.records:
        name = f"bundle_{_sanitize(key)}.csv"
        eigenbasis.save_bundle(eigenbasis.eigenspace(config.m, key), out_dir / name)
        outputs.append(name)
    stage_done("eigenspaces")
    if config.dump_vertices:
        gasket.vertices_to_csv(basis.vertices, out_dir / "vertices.csv")
        outputs.append("vertices.csv")
    stage_done("vertices")
    return outputs


def _szego_report(
    config: RunConfig, out_dir: Path, timings: dict, determinant: bool
) -> list[str]:
    from . import eigenbasis, operators, szego

    stage_done = _stage_clock(timings)
    symbol = parse_symbol(config.symbol)
    F = None if determinant else parse_trace_function(config.F)
    basis = eigenbasis.level_basis(config.m)
    # the sweep's own refusals first, so that a refused config builds no
    # remainder
    if config.mode == "single":
        szego.check_sweep(config.m, config.generation_cut, series=config.series,
                          j_range=config.j_range, n_level=config.N)
    else:
        szego.check_sweep(config.m, config.generation_cut, lambda_grid=config.lambda_grid)
    operators.prepare_compression(symbol, config.m)
    stage_done("remainder")
    if determinant:
        if config.mode == "single":
            report = szego.szego_logdet_single_series(
                symbol, config.series, config.j_range, config.N, config.m,
                generation_cut=config.generation_cut, basis=basis,
            )
        else:
            report = szego.szego_logdet_full(
                symbol, config.lambda_grid, config.m,
                generation_cut=config.generation_cut, basis=basis,
            )
    else:
        if config.mode == "single":
            report = szego.szego_trace_single_series(
                symbol, F, config.series, config.j_range, config.N, config.m,
                generation_cut=config.generation_cut, basis=basis,
            )
        else:
            report = szego.szego_trace_full(
                symbol, F, config.lambda_grid, config.m,
                generation_cut=config.generation_cut, basis=basis,
            )
    stage_done("sweep")
    report.to_csv(out_dir / "report.csv")
    report.to_json(out_dir / "report.json")
    outputs = ["report.csv", "report.json"]
    if config.plot:
        szego.plot_error_svg(report, out_dir / "report.svg")
        outputs.append("report.svg")
    if config.dump_operator:
        # the dense matrix reads the columns of the one dumped eigenspace
        key = basis.family_bundle(config.series, config.j_range[-1]).record.key
        operators.operator_to_csv(
            symbol, eigenbasis.eigenspace(config.m, key),
            out_dir / "operator.csv", out_dir / "operator_meta.json",
        )
        outputs.extend(["operator.csv", "operator_meta.json"])
    stage_done("report")
    return outputs


def _cmd_szego_trace(config: RunConfig, out_dir: Path, timings: dict) -> list[str]:
    return _szego_report(config, out_dir, timings, determinant=False)


def _cmd_szego_det(config: RunConfig, out_dir: Path, timings: dict) -> list[str]:
    return _szego_report(config, out_dir, timings, determinant=True)


def _cmd_clusters(config: RunConfig, out_dir: Path, timings: dict) -> list[str]:
    from . import clusters as cl
    from . import eigenbasis, operators, szego

    stage_done = _stage_clock(timings)
    p_fn, p_name = parse_p(config.p)
    chi = _parse_simple(config.chi, "chi")
    # H reads only the eigenvalues and the remainder of chi's cell level
    base = eigenbasis.level_basis(config.m)
    family = cl.decimation_family(config.j_range, base)
    operators.prepare_compression(operators.multiplication_symbol(chi), config.m)
    stage_done("remainder")
    schrodinger = cl.build_schrodinger(p_fn, chi, config.m, p_name, base)
    stage_done("schrodinger")
    report = cl.identify_clusters(schrodinger, family)
    stage_done("identify")
    cl.clusters_to_csv(report.clusters, out_dir / "clusters.csv")

    from .gasket import integrate_simple

    cl.moments_to_csv(
        report.clusters,
        config.k_max,
        lambda k: integrate_simple(chi, k),
        out_dir / "moments.csv",
    )
    weak = cl.weak_limit_report(
        report, chi, config.j_range, szego.f_identity(), p_name
    )
    weak.to_csv(out_dir / "weak_limit.csv")
    weak.to_json(out_dir / "weak_limit.json")
    outputs = ["clusters.csv", "moments.csv", "weak_limit.csv", "weak_limit.json"]
    if config.plot:
        szego.plot_error_svg(weak, out_dir / "weak_limit.svg")
        outputs.append("weak_limit.svg")
    stage_done("report")
    return outputs


def _cmd_validate(config: RunConfig, out_dir: Path, timings: dict) -> list[str]:
    import numpy as np

    from . import decimation, eigenbasis
    from .gasket import SimpleFunction, inertia_counts
    from .serialize import fmt, write_csv

    m = config.m
    rows: list[tuple[str, str, str]] = []
    stage_done = _stage_clock(timings)

    def check(name: str, ok: bool, detail: str) -> None:
        rows.append((name, "PASS" if ok else "FAIL", detail))

    for level in range(1, m + 1):
        # eigenvalue counts by inertia are the oracle: each predicted
        # multiplicity must fill a window 1e-8 wide, relative, around its
        # value, and the windows all of the spectrum, which lies below 8
        # (Gershgorin); the eigenspaces are built from this very prediction
        predicted = decimation.truncated_graph_spectrum(level)
        g = np.array([e.graph_value for e in predicted])
        mu = np.array([e.multiplicity for e in predicted])
        scale = np.maximum(1.0, np.abs(g))
        edges = np.concatenate([g - 1e-8 * scale, g + 1e-8 * scale])
        try:
            counts = inertia_counts(level, np.append(edges, 8.0))
        except GasketError as exc:
            check(f"decimation-oracle-m{level}", False, str(exc))
            continue
        below, above, count = counts[:g.size], counts[g.size:-1], counts[-1]
        ok = (np.array_equal(above - below, mu)
              and mu.sum() == count == decimation.interior_dimension(level))
        rel = float("nan")
        if ok:
            # bisection for the first and the last eigenvalue of each window
            lo, hi = (np.tile(side, 2) for side in np.split(edges, 2))
            rank = np.concatenate([below + 1, above])
            for _ in range(60):
                mid = (lo + hi) / 2
                up = inertia_counts(level, mid) >= rank
                lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
            rel = float(np.max(np.abs(hi - np.tile(g, 2)) / np.tile(scale, 2)))
        check(f"decimation-oracle-m{level}", ok,
              f"count={count};max_rel_diff={fmt(rel)}")

    for level in range(1, min(m + 2, 8) + 1):
        total = sum(g.multiplicity for g in decimation.truncated_graph_spectrum(level))
        check(
            f"multiplicity-sum-m{level}",
            total == decimation.interior_dimension(level),
            f"sum={total};dim={decimation.interior_dimension(level)}",
        )
    stage_done("oracle")

    f = SimpleFunction(1, [1.0, 2.0, 3.0])
    localization, block = _family_rows(m, f)
    for row in localization:
        check(*row)
    stage_done("localization")

    if m >= 3:
        ok, detail = block
        # the level-1 remainders the reduced compressions read, built by
        # decimation lineage, against the junction SVD of each whole
        # eigenspace, read in pieces off the walk (the sine of their largest
        # principal angle, over 1e-12) and against the localized trace of f
        try:
            angle, trace = _lineage_margins(m, f)
            ok = ok and angle <= 1.0
            detail += (
                f";lineage_angle_over_tol={fmt(angle)}"
                f";localized_trace_over_tol={fmt(trace)}"
            )
        except GasketError as exc:
            ok, detail = False, f"{detail};{exc}"
        check(f"block-exactness-j{min(m, 4)}-N1", ok, detail)
    stage_done("block_exactness")

    # seeded eigenvalue-stability trials; deterministic given (config, seed)
    from . import clusters

    trial_m = min(m, 4)
    if trial_m >= 2:
        rng = np.random.default_rng(config.seed)
        base_chi = SimpleFunction(1, [0.8, 1.0, 1.2])
        # H reads only the eigenvalues and level_remainder
        trial_basis = eigenbasis.level_basis(trial_m)
        for trial in range(10):
            delta = float(rng.uniform(0.01, 1.0))
            eta = clusters.random_simple_perturbation(rng, 1, delta)
            chi2 = SimpleFunction(1, base_chi.values + eta.values)
            try:
                disp = clusters.lipschitz_check(
                    lambda lam: lam, base_chi, chi2, trial_m, basis=trial_basis
                )
                ok, detail = True, f"delta={fmt(delta)};displacement={fmt(disp)}"
            except GasketError as exc:
                ok, detail = False, str(exc)
            check(f"lipschitz-trial-{trial}", ok, detail)
    stage_done("lipschitz")

    write_csv(out_dir / "validate.csv", ("check", "status", "detail"), rows)
    failures = [r for r in rows if r[1] == "FAIL"]
    if failures:
        raise GasketError(
            f"{len(failures)} validation checks failed, first: {failures[0]}"
        )
    return ["validate.csv"]


def _attempt(fn, *args):
    """fn(*args), or the GasketError it raises."""
    try:
        return fn(*args)
    except GasketError as exc:
        return exc


def _family_rows(m: int, f) -> tuple[list, tuple[bool, str] | None]:
    """The localization rows of the family eigenspaces of births 2 to
    min(m, 5), each built alone by its lineage and split once at each cell
    level N below its birth, and from m = 3 on the block-exactness result
    of f on the 6-series split at N = 1 of birth min(m, 4), taken while that
    split is held (at birth 2 nothing localizes in a 1-cell, so there is no
    block to check).  A build or split that fails is its rows' FAIL."""
    from . import eigenbasis

    basis = eigenbasis.level_basis(m)
    rows, block = [], None
    for series in (6, 5):
        for birth in range(2, min(m, 5) + 1):
            key = basis.family_bundle(series, birth).record.key
            bundle = _attempt(eigenbasis.eigenspace, m, key)
            for n_level in range(1, birth):
                split = bundle if isinstance(bundle, GasketError) else _attempt(
                    eigenbasis.localized_split, bundle, n_level
                )
                rows.append(_localization_row(series, birth, n_level, split))
                if m >= 3 and (series, birth, n_level) == (6, min(m, 4), 1):
                    block = _block_exactness(split, f)
    return rows, block


def _localization_row(series: int, birth: int, n_level: int, split):
    """The row of a family eigenspace's split at cell level N, or of the
    error that took its place: the counts against the closed form, with the
    kernel margins."""
    from . import decimation
    from .serialize import fmt

    name = f"localization-s{series}-j{birth}-N{n_level}"
    if isinstance(split, GasketError):
        return name, False, str(split)
    counts = decimation.localization_counts(series, birth, n_level)
    return name, split.localized_total == counts.d_j_N, (
        f"per_cell={counts.m_j_N};localized={split.localized_total};"
        f"alpha={split.nonlocalized.shape[1]};"
        f"dropped_over_tol={fmt(split.dropped_over_tol)};"
        f"tol_over_kept={fmt(split.tol_over_kept)}"
    )


def _block_exactness(split, f) -> tuple[bool, str]:
    """The localized columns of the split P of a 6-series eigenspace at N = 1
    are exact eigenvectors of [f]: their rows of P^T [f] P are [diag(f_C) 0],
    up to block_snap, and the powers of their block R have the closed-form
    traces d_{j,1} times the integral of f^k.  A split that failed fails it
    with its error."""
    import numpy as np

    from . import decimation
    from .gasket import effective_multiplier, integrate_simple
    from .serialize import fmt

    if isinstance(split, GasketError):
        return False, str(split)
    bundle = split.bundle
    localized = np.hstack(split.per_cell)
    cell_values = np.repeat(f.refined(1), [v.shape[1] for v in split.per_cell])
    loc, alpha = cell_values.size, split.nonlocalized.shape[1]
    g = effective_multiplier(f, bundle.vertices)[bundle.vertices.interior]
    # einsum sums in a fixed order, so the row does not depend on the BLAS
    # thread count, as a threaded product's rounding does
    rows_f = np.einsum(
        "ia,ib->ab", g[:, None] * localized, np.hstack([localized, split.nonlocalized])
    )
    expected = np.hstack([np.diag(cell_values), np.zeros((loc, alpha))])
    block_snap = float(np.max(np.abs(rows_f - expected)))
    r_block = rows_f[:, :loc]
    counts = decimation.localization_counts(6, bundle.record.birth, 1)
    ok = loc == counts.d_j_N and block_snap <= 1e-10
    detail = f"block_snap={fmt(block_snap)}"
    power = r_block
    for k in (1, 2, 3):
        lhs = float(np.trace(power))
        power = np.einsum("ij,jk->ik", power, r_block)
        rhs = counts.d_j_N * integrate_simple(f, k)
        ok = ok and abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        detail += f";trace_R^{k}_dev={fmt(abs(lhs - rhs))}"
    return ok, detail


def _lineage_margins(m: int, f) -> tuple[float, float]:
    """The worst lineage angle over 1e-12 and localized-trace margin of f over
    every level-m eigenspace, each in the pieces of its layout off the
    depth-first walk beside its remainder at f's cell level, carried down
    the same lineage: that remainder against the junction SVD of the whole
    eigenspace, and the trace of f over the whole less its trace over the
    remainder, each summed over the pieces, no n x d block formed."""
    from . import eigenbasis, operators

    def margins(bundle, carried) -> tuple[float, float]:
        whole = eigenbasis.eigenspace_remainder(bundle, f.level)
        angle = eigenbasis.remainder_deviation(carried, whole, m)
        return angle / 1e-12, operators.localized_trace_margin(f, bundle, carried)

    angles, traces = zip(*eigenbasis.walk_eigenspaces(m, margins, k=f.level))
    return max(angles), max(traces)


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "basis": _cmd_basis,
    "szego-trace": _cmd_szego_trace,
    "szego-det": _cmd_szego_det,
    "clusters": _cmd_clusters,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    _configure_threads()
    parser = argparse.ArgumentParser(
        prog="gasket-szego",
        description="Spectral experiments on the Sierpinski gasket",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--plot", action="store_true", help="also write SVG plots")
    args = parser.parse_args(argv)

    try:
        config_text = Path(args.config).read_text(encoding="utf-8")
        raw = json.loads(config_text)
    except OSError as exc:
        print(f"config: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a JSONDecodeError, or an over-long integer
        print(f"config: invalid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        config = RunConfig.from_dict(raw, command=args.command, plot=args.plot)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config, Path(args.out), config_text=config_text)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except GasketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
