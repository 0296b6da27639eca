"""Scenario runner: reproduces the data behind each figure as CSV files.

Config files use flat ``key = value`` lines in three sections, [params],
[run] and an optional [sweep].  Output is comma-separated text with a
'#'-prefixed header that echoes the full parameter set, so every file is
self-documenting and byte-identical across runs.

A sweep runs as stacked passes: all points are decomposed in one call,
and the spectra, channel totals and CSV bytes of a spectrum or
decomposition run are computed for a chunk of points at a time, bounded
by one cell budget.  Each point's outcome is its error or an Outcome, read
by field name.  Files are still written point by point, and a point that
cannot run fails at its turn, after the files of the points before.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings
from collections import namedtuple
from configparser import (ConfigParser, DuplicateOptionError, DuplicateSectionError,
                          Error as ConfigParserError, MissingSectionHeaderError)
from dataclasses import dataclass, fields
from itertools import combinations, repeat
from pathlib import Path

import numpy as np

from . import dynamics, eigen, spectra
from .errors import AccuracyWarning, ConfigInvalid, DegenerateBlock, UnlabeledModes
from .model import BARE_MODES, NORMAL_MODES, SystemParams, bare_generator, single_excitation

__all__ = ["Scenario", "parse_scenario", "run_scenario", "main"]

RUN_KINDS = ("trajectory", "spectrum", "decomposition")
# the [params] keys and [sweep] parameters: the fields of SystemParams
RATES = tuple(f.name for f in fields(SystemParams))
_FMT = "%.12e"
# largest conservation residual of totals that, printed to six decimals,
# are right to half a unit in the last digit
_RESIDUAL_BOUND = 5e-7
_UNLABELED = ("coincident or inaccurate roots of the symmetric block leave the quasi "
              "modes unlabeled; a decomposition run needs the labels")
# a runnable point's answer: its eigenvalues and labels (None if unlabeled), its
# totals in BARE_MODES order, (kind, columns, CSV body) per file and its
# conservation residual, the one number the summary prints and the warning tests
Outcome = namedtuple("Outcome", "eigenvalues labels totals outputs residual")


@dataclass
class Scenario:
    name: str
    initial: str
    run: str
    channels: tuple
    integrator: dynamics.IntegratorConfig | None  # None unless a trajectory run
    omega_grid: np.ndarray | None  # None for each point's default grid
    points: tuple             # ((parameter, value) or None, SystemParams) per point
    out_base: str


def _floats(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigInvalid(f"[{section}] {key} = {raw!r} is not a number") from None


_RUN_KEYS = {
    "type", "initial", "channels", "t_max", "dt", "record_every",
    "omega_min", "omega_max", "omega_points", "out",
}
_SWEEP_KEYS = ("parameter", "values")


def _section(cp: ConfigParser, name, allowed, required) -> dict:
    """The raw keys of section [name]; ConfigInvalid names an unknown or missing key."""
    raw = dict(cp.items(name))
    for key in raw:
        if key not in allowed:
            raise ConfigInvalid(f"unknown key [{name}] {key}")
    for key in required:
        if key not in raw:
            raise ConfigInvalid(f"[{name}] missing key {key}")
    return raw


def _read_error(exc: ConfigParserError) -> str:
    """A ConfigParser read error as 'line n: fault', one line without the file name."""
    if isinstance(exc, DuplicateOptionError):
        return f"line {exc.lineno}: option {exc.option!r} in section {exc.section!r} already exists"
    if isinstance(exc, DuplicateSectionError):
        return f"line {exc.lineno}: section {exc.section!r} already exists"
    if isinstance(exc, MissingSectionHeaderError):
        return f"line {exc.lineno}: {exc.line.strip()!r} comes before the first [section] header"
    # a ParsingError: (number, text) of each line, the text a repr in some Python versions
    return f"line {exc.errors[0][0]}: not a [section] header or a key = value line"


def parse_scenario(path) -> Scenario:
    """Parse and validate a scenario file; ConfigInvalid names bad keys."""
    path = Path(path)
    # no header spells the default section "", so [DEFAULT] is an unknown section
    cp = ConfigParser(inline_comment_prefixes=("#",), interpolation=None, default_section="")
    try:
        read = cp.read(path, encoding="utf-8")
    except ConfigParserError as exc:
        raise ConfigInvalid(f"cannot parse {path}: {_read_error(exc)}") from None
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"cannot parse {path}: byte {exc.object[exc.start]:#x} "
                            "is not UTF-8") from None
    if not read:
        raise ConfigInvalid(f"config file {path} not found")
    for section in cp.sections():
        if section not in ("params", "run", "sweep"):
            raise ConfigInvalid(f"unknown section [{section}]")
    for section in ("params", "run"):
        if not cp.has_section(section):
            raise ConfigInvalid(f"missing required section [{section}]")

    raw_params = _section(cp, "params", RATES, RATES)
    rates = {key: _floats("params", key, raw_params[key]) for key in RATES}
    try:
        params = SystemParams(**rates)
    except ValueError as exc:
        raise ConfigInvalid(f"[params] {exc}") from None

    raw_run = _section(cp, "run", _RUN_KEYS, ("type",))
    kind = raw_run["type"]
    if kind not in RUN_KINDS:
        raise ConfigInvalid(
            f"[run] type = {kind!r} is not one of {', '.join(RUN_KINDS)}"
        )
    initial = raw_run.get("initial", "atom1")
    try:
        single_excitation(initial)
    except ValueError:
        raise ConfigInvalid(f"[run] initial = {initial!r} is not a mode name") from None

    channels = tuple(
        c for c in re.split(r"[,\s]+", raw_run.get("channels", "cavity1,cavity2")) if c
    )
    if not channels:
        raise ConfigInvalid("[run] channels must name at least one channel")
    for i, c in enumerate(channels):
        if c not in BARE_MODES:
            raise ConfigInvalid(f"[run] channels entry {c!r} is not a channel")
        if c in channels[:i]:
            raise ConfigInvalid(f"[run] channels entry {c!r} is repeated")

    defaults = dynamics.IntegratorConfig
    dt = _floats("run", "dt", raw_run.get("dt", defaults.dt))
    try:
        record_every = int(raw_run.get("record_every", defaults.record_every))
    except ValueError:
        raise ConfigInvalid(f"[run] record_every = {raw_run['record_every']!r} "
                            "is not an integer") from None
    integrator = None
    if kind == "trajectory":
        if "t_max" not in raw_run:
            raise ConfigInvalid("[run] missing key t_max (required for trajectory runs)")
        t_max = _floats("run", "t_max", raw_run["t_max"])
        integrator = dynamics.IntegratorConfig(dt=dt, t_max=t_max, record_every=record_every)

    omega_grid = None
    omega_keys = [k for k in ("omega_min", "omega_max", "omega_points") if k in raw_run]
    if omega_keys:
        if len(omega_keys) != 3:
            raise ConfigInvalid("[run] omega_min, omega_max and omega_points "
                                "must be given together")
        lo, hi, n = (_floats("run", k, raw_run[k])
                     for k in ("omega_min", "omega_max", "omega_points"))
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ConfigInvalid(f"[run] omega_min = {lo} must be below omega_max = {hi}")
        if not (n.is_integer() and n >= 2):
            raise ConfigInvalid(f"[run] omega_points = {raw_run['omega_points']!r} "
                                "is not an integer >= 2")
        try:
            omega_grid = np.linspace(lo, hi, int(n))
        except (ValueError, MemoryError) as exc:  # more samples than numpy can hold
            raise ConfigInvalid(f"[run] omega_points = {raw_run['omega_points']!r} "
                                f"is too many samples: {exc}") from None
        if not np.all(np.diff(omega_grid) > 0):
            raise ConfigInvalid(f"[run] omega_points = {int(n)} samples of "
                                f"[{lo}, {hi}] are not strictly increasing")

    points = ((None, params),)
    if cp.has_section("sweep"):
        raw_sweep = _section(cp, "sweep", _SWEEP_KEYS, _SWEEP_KEYS)
        parameter = raw_sweep["parameter"]
        if parameter not in RATES:
            raise ConfigInvalid(
                f"[sweep] parameter = {parameter!r} is not one of {', '.join(RATES)}"
            )
        values = tuple(
            _floats("sweep", "values", x)
            for x in re.split(r"[,\s]+", raw_sweep["values"]) if x
        )
        if not values or not all(np.isfinite(values)):
            raise ConfigInvalid("[sweep] values must be a non-empty list of finite numbers")
        suffixes = {}  # each value names its output files through f"{value:g}"
        points = []
        for value in values:
            tag = f"{value:g}"
            if tag in suffixes:
                raise ConfigInvalid(f"[sweep] values {suffixes[tag]!r} and {value!r} "
                                    f"both give the file suffix {parameter}{tag}")
            suffixes[tag] = value
            try:
                point_params = SystemParams(**dict(rates, **{parameter: value}))
            except ValueError as exc:
                raise ConfigInvalid(f"[sweep] {exc}") from None
            points.append(((parameter, value), point_params))

    out_base = raw_run.get("out", path.stem)
    if not out_base or os.path.basename(out_base) != out_base or "\0" in out_base:
        raise ConfigInvalid(f"[run] out = {out_base!r} is not a file name prefix: "
                            "it is empty or holds a path separator or a NUL")

    return Scenario(
        name=path.stem,
        initial=initial,
        run=kind,
        channels=channels,
        integrator=integrator,
        omega_grid=omega_grid,
        points=tuple(points),
        out_base=out_base,
    )


def _header(scn: Scenario, params: SystemParams, columns, point=None) -> list:
    lines = [f"# fiberqed scenario: {scn.name}"]
    g, v, kappa, kappa_b, gamma = (f"{getattr(params, k):.9g}" for k in RATES)
    # the per-unit spelling of the first releases, so the files keep their bytes
    lines.append(f"# params: g1={g} g2={g} v1={v} v2={v} kappa1={kappa} kappa2={kappa} "
                 f"kappa_b={kappa_b} gamma={gamma} detuning=0")
    run_line = f"# run: type={scn.run} initial={scn.initial}"
    if point is not None:
        run_line += f" sweep: {point[0]}={point[1]:.9g}"
    lines.append(run_line)
    lines.append("# columns: " + ",".join(columns))
    return lines


# CSV cells formatted per _format_rows call and per chunk of sweep points:
# bounds the stacked spectra, the byte slots (~0.4 MB) and their temporaries.
_CELLS = 1 << 14
# A cell is formatted into a 24-byte slot of native-order words: _HEAD row
# 10 * signbit(x) + leading digit (pad, sign, digit, "."), three _GROUP rows
# "0000" ... "9999", then _EXPONENT row e + 300 ("e", "%+03d" % e with a pad
# for the hundreds digit of |e| < 100, delimiter, pad, pad); pads are 0 and dropped.
_GROUP = (np.stack(np.indices((10,) * 4, np.uint8), -1)  # [a, b, c, d] = (a, b, c, d)
          + ord("0")).reshape(-1, 4).view(np.uint32)[:, 0]
_HEAD = np.frombuffer(b"".join(b"\0%c%d." % (c, d) for c in b"\0-" for d in range(10)), np.uint32)
_EXPONENT = np.frombuffer(b"".join(b"e%c%s,\0\0" % (x[0], x[1:].rjust(3, b"\0"))
                                   for x in [b"%+03d" % e for e in range(-300, 301)]), np.uint64)
# 10**k correctly rounded (the float parser rounds correctly), row k + 300
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])
# s must be this far from a half-integer for rint(s) to be the correct mantissa
_TIE_GUARD = 2.0 ** -8


def _format_rows(rows: np.ndarray) -> bytes:
    """Return exactly the bytes of np.savetxt(rows, fmt=_FMT, delimiter=",").

    For 1e-280 <= |x| <= 1e280 the decimal exponent e comes from
    floor(log10|x|), corrected once where the scaled value
    s = |x| * 10**(12 - e) falls outside [1e12, 1e13): next to a power of
    ten, log10 can round across the integer. The 13-digit mantissa is
    m = rint(s), carried into the next decade when it reaches 1e13. The
    power of ten is correctly rounded and the product is rounded once, so
    |s - s_exact| <= (2u + u**2) s < 2.3e-3 for s <= 1e13 (u = 2**-53), and
    rint(s) is the correctly rounded mantissa unless s lies that close to a
    half-integer. A signed zero is exact: mantissa 0, exponent +00. Cells
    with |s - m| >= 1/2 - _TIE_GUARD (s - m is exact), non-finite values
    and nonzero magnitudes outside the range are formatted by `_FMT % x`.
    """
    n_rows, n_cols = rows.shape
    x = rows.ravel()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-280) & (a <= 1e280)  # False for 0, nan and inf
    a = np.where(fast, a, 1.0)  # zeros go through as 1.0: e = 0, then m = 0
    e = np.floor(np.log10(a)).astype(np.int64)
    s = a * _POW10[312 - e]
    e += (s >= 1e13).astype(np.int64) - (s < 1e12)
    s = a * _POW10[312 - e]
    m = np.rint(s)
    fast &= np.abs(s - m) < 0.5 - _TIE_GUARD
    fast |= zero
    carry = m == 1e13
    m = np.where(carry, 1e12, m)
    m[zero] = 0
    m = m.astype(np.int64)
    e += carry

    # digit groups: m = lead * 10**12 + g1 * 10**8 + g2 * 10**4 + g3
    # (np.divmod on int64 is several times slower than // and a product)
    head = m // 10**8
    low = m - head * 10**8
    lead = head // 10**4
    g1 = head - lead * 10**4
    g2 = low // 10**4
    g3 = low - g2 * 10**4
    slots = np.empty((x.size, 24), np.uint8)
    words = slots.view(np.uint32)
    words[:, 0] = _HEAD[10 * np.signbit(x) + lead]
    words[:, 1] = _GROUP[g1]
    words[:, 2] = _GROUP[g2]
    words[:, 3] = _GROUP[g3]
    slots.view(np.uint64)[:, 2] = _EXPONENT[e + 300]
    slow = np.flatnonzero(~fast)  # _FMT: at most 20 characters, then 0 to the delimiter
    text = np.array([_FMT % v for v in x[slow].tolist()], dtype="S21")
    slots[slow, :21] = text.view(np.uint8).reshape(-1, 21)
    slots.reshape(n_rows, n_cols, 24)[:, -1, 21] = ord("\n")
    return slots.tobytes().translate(None, b"\0")


def _open_untruncated(path, flags):
    # ext4 flushes a file truncated to zero length when it is closed, which
    # makes a rerun into the same directory wait on the disk once per file
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _csv_bodies(data: np.ndarray) -> list:
    """The CSV body of each file of data (files, rows, columns), as byte pieces.

    Files that fit _CELLS together are formatted in one _format_rows call,
    whose bytes are split after the last row of each file; the files of a
    larger stack are formatted one at a time, in blocks of rows of at most
    _CELLS cells, as they are written.
    """
    n_files, n_rows, n_cols = data.shape
    if data.size > _CELLS:
        step = max(1, _CELLS // n_cols)
        return [map(_format_rows, np.split(rows, range(step, n_rows, step))) for rows in data]
    text = _format_rows(data.reshape(n_files * n_rows, n_cols))
    newlines = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n"))
    ends = (newlines[n_rows - 1::n_rows] + 1).tolist()
    view = memoryview(text)
    return [[view[start:end]] for start, end in zip([0, *ends], ends)]


def _write_csv(path: Path, header, body) -> None:
    """Write the header lines, then the byte pieces of the body (see _csv_bodies).

    An existing file is overwritten in place and then cut to the new length,
    so it ends up with the same bytes as one opened with truncation.  An
    OSError names path, also one from a write or flush, which names no file.
    """
    try:
        with open(path, "wb", opener=_open_untruncated) as fh:
            fh.write(("\n".join(header) + "\n").encode())
            fh.writelines(body)
            fh.truncate()
    except OSError as exc:
        exc.filename = path
        raise


def _spectral_results(scn: Scenario, decomps):
    """Per point of a spectrum or decomposition run, its outcome (see _run_point).

    A point's error is its decomposition error, then, in a decomposition
    run, UnlabeledModes, then the error of its totals (see
    spectra.integrated_spectrum); its residual is |sum of totals - 1|, 0 by the
    Gramian's trace identity.  The points go in chunks of at most _CELLS CSV
    cells (at least one point).  The runnable points of a chunk get their
    totals from one stacked Gramian solve, their spectra from one stacked
    kernel call and their CSV bytes from one _format_rows call; a chunk is
    evaluated when its first point is asked for, so memory does not grow.
    """
    decomposition = scn.run == "decomposition"
    if decomposition:  # every labeled decomposition carries MODE_LABELS
        labels = eigen.MODE_LABELS
        columns = (["omega", "total"] + [f"lorentzian_{n}" for n in labels]
                   + [f"w_{j}_{k}" for j, k in combinations(labels, 2)] + ["lorentzian_sum"])
        layout = [(f"decomposition_{c}", columns) for c in scn.channels]

        def columns_of(spec, grid):  # one file per point and channel
            prefactor = spec.prefactor[..., None]
            data = np.concatenate([
                grid[:, :, None], spec.spectrum[:, :, None],
                prefactor * spec.lorentzians, prefactor * spec.interferences,
                spectra.lorentzian_approximation(spec)[:, :, None],
            ], axis=2)  # (points, C, columns, G)
            return data.reshape(-1, *data.shape[2:])
    else:
        layout = [("spectrum", ["omega", *scn.channels])]

        def columns_of(spec, grid):  # one file per point
            return np.concatenate([grid[:, :1], spec.spectrum], axis=1)
    n_rows = (scn.omega_grid.size if scn.omega_grid is not None
              else spectra._GRID_POINTS)
    per_chunk = max(1, _CELLS // (n_rows * sum(len(cols) for _, cols in layout)))
    for start in range(0, len(decomps), per_chunk):
        chunk = decomps[start:start + per_chunk]
        results = [decomp if isinstance(decomp, Exception)
                   else UnlabeledModes(_UNLABELED) if decomposition and decomp.labels is None
                   else None for decomp in chunk]
        ok = [i for i, error in enumerate(results) if error is None]
        for i, totals in zip(ok, spectra.integrated_spectrum([chunk[i] for i in ok])):
            results[i] = totals  # an error stays as the result
        ok = [i for i in ok if not isinstance(results[i], Exception)]
        spec = spectra.channel_spectrum([chunk[i] for i in ok], scn.channels, scn.omega_grid)
        grid = np.broadcast_to(spec.omega_grid, spec.amplitude.shape)
        # (files, columns, G) to the rows of each file
        bodies = iter(_csv_bodies(columns_of(spec, grid).transpose(0, 2, 1)))
        for i in ok:
            results[i] = Outcome(chunk[i].eigenvalues, chunk[i].labels, results[i],
                                 [(kind, cols, next(bodies)) for kind, cols in layout],
                                 abs(sum(results[i].tolist()) - 1.0))
        yield from results


def _trajectory_results(scn: Scenario, decomps):
    """Per point of a trajectory run, its outcome (see _run_point): its totals
    are the detection probabilities at t_max, and its residual is the largest
    |survival + detected - 1| on the grid.

    RK4 needs no eigenbasis, so DegenerateBlock (p = 0) does not stop a
    point, whose summary then gives the bare generator's eigenvalues
    unlabeled; any other decomposition error does.  A point is integrated
    when it is asked for.
    """
    cols = ["t", *BARE_MODES, *NORMAL_MODES, "survival"] + [f"p_{c}" for c in BARE_MODES]
    for (_, params), decomp in zip(scn.points, decomps):
        if isinstance(decomp, Exception) and not isinstance(decomp, DegenerateBlock):
            yield decomp
        else:
            eigenvalues, labels = ((decomp.eigenvalues, decomp.labels)
                                   if not isinstance(decomp, Exception)
                                   else (np.linalg.eigvals(bare_generator(params)), None))
            traj = dynamics.evolve_bare(params, single_excitation(scn.initial), scn.integrator)
            data = np.column_stack((traj.times, dynamics.occupations(traj), traj.survival,
                                    traj.channel_probs))
            yield Outcome(eigenvalues, labels, traj.channel_probs[-1],
                          [("trajectory", cols, _csv_bodies(data[None])[0])],
                          traj.conservation_residual())


def _run_point(scn: Scenario, params: SystemParams, out_dir: Path, point, result):
    """Write one parameter point's files; returns them and the point's printed block.

    result is the point's outcome from _spectral_results or
    _trajectory_results: the error it raises at its turn, or its Outcome.
    A residual above _RESIDUAL_BOUND warns AccuracyWarning once the files
    are written, naming the Gramian solve or RK4 by the run type.  The block
    is the '==' line, the eigenvalues, totals and that same residual, and
    the files.
    """
    if isinstance(result, Exception):
        raise result
    suffix = f"_{point[0]}{point[1]:g}" if point is not None else ""
    files = []
    for kind, cols, body in result.outputs:
        path = out_dir / f"{scn.out_base}{suffix}_{kind}.csv"
        _write_csv(path, _header(scn, params, cols, point), body)
        files.append(path)
    if result.residual > _RESIDUAL_BOUND:
        loss = f"loses conservation by up to {result.residual:.3e} (bound {_RESIDUAL_BOUND:g})"
        message = (f"RK4 at dt = {scn.integrator.dt} {loss}; take a smaller dt"
                   if scn.run == "trajectory" else
                   f"the Gramian solve of the channel totals {loss}; a decay rate far "
                   "below the generator's scale is lost to rounding")
        warnings.warn(message, AccuracyWarning)
    names = (f"{lbl}: " for lbl in result.labels) if result.labels is not None else repeat("")
    totals = result.totals.tolist()
    # rounded first, so a total that rounds to zero prints without a sign
    rounded = " ".join(f"{c}={round(x, 6) + 0.0:.6f}" for c, x in zip(BARE_MODES, totals))
    return files, "\n   ".join([
        f"== {scn.name}" + (f" [{point[0]}={point[1]:g}]" if point is not None else ""),
        "eigenvalues: " + ", ".join(f"{name}{x:.6g}" for name, x in zip(names, result.eigenvalues)),
        f"channel totals: {rounded}",
        f"conservation residual: {result.residual:.3e}",
        *(f"wrote {path}" for path in files)])


def run_scenario(config_path, out_dir=None, quiet=False) -> list:
    """Run one scenario file; returns the list of files written.

    Every point of a sweep is decomposed in one stacked call before the
    first point runs.  The spectra, channel totals and CSV bytes of a
    spectrum or decomposition run are computed in chunks of points (see
    _spectral_results), a trajectory is integrated at its point's turn (see
    _trajectory_results), and the files are written point by point.  A
    point that cannot run raises when its turn comes, after the files of
    the points before it.
    """
    scn = parse_scenario(config_path)
    out = Path(out_dir) if out_dir is not None else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)

    decomps = eigen.full_decompositions(
        [params for _, params in scn.points], single_excitation(scn.initial)
    )
    results = (_trajectory_results if scn.run == "trajectory" else _spectral_results)(
        scn, decomps)
    written = []
    for (point, point_params), result in zip(scn.points, results):
        files, block = _run_point(scn, point_params, out, point, result)
        written.extend(files)
        if not quiet:
            print(block)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a fiber-linked cavity-QED scenario file.",
    )
    parser.add_argument("config", help="scenario config file")
    parser.add_argument("--out", default=None, metavar="DIR", help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary")
    args = parser.parse_args(argv)
    try:
        run_scenario(args.config, out_dir=args.out, quiet=args.quiet)
    except (ConfigInvalid, MemoryError) as exc:  # MemoryError: a grid too large to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # creating the output directory or writing a file
        print(f"output error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
