"""Command-line harness: phase-shift scans, pole reports, presets.

Subcommands
-----------
scan     compute delta_full / delta_eff / delta_zero on a uniform k-grid and
         write a CSV table (plus a gnuplot script next to it)
poles    solve the pole polynomial of a channel and print a report
presets  list the built-in named scenarios

A channel is given either as (--l, --lambda, --chi) or as (--l, --lambda,
--c) -- exactly one of chi/c.  Flags may be combined with a flat key=value
config file (flags win) and with a named preset (explicit values win).

Exit codes: 0 success, 2 configuration error or a value outside the
double range (a library ValueError), 3 numeric failure of the pole solver.
"""

import argparse
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .boundary import Channel, channel_from_robin, robin_from_channel, RobinCondition
from .poles import PoleKind, RootSolveError, asymptotic_poles, find_poles, resonance_momentum
from .scattering import SERIES_VALIDITY_KLAM, phase_shift_scan, s_matrix_from_delta

__all__ = [
    "ConfigError",
    "ScanConfig",
    "ScanRow",
    "PRESETS",
    "parse_config",
    "run_scan",
    "run_pole_report",
    "main",
    "run",
]

ALL_OUTPUTS = ("full", "eff", "zero")

PRESETS: dict[str, dict[str, float | int]] = {
    "fig1a": {"l": 1, "lambda": 0.1, "chi": -25.0, "kmin": 0.01, "kmax": 3.0, "n": 300},
    "fig1b": {"l": 1, "lambda": 0.1, "chi": -0.1, "kmin": 0.01, "kmax": 3.0, "n": 300},
    "fig1c": {"l": 1, "lambda": 0.1, "chi": 25.0, "kmin": 0.01, "kmax": 3.0, "n": 300},
}


class ConfigError(ValueError):
    """Invalid configuration (bad flag combination, bad file, bad values)."""


@dataclass(frozen=True)
class ScanConfig:
    """Validated scan request."""

    channel: Channel
    kmin: float
    kmax: float
    n_points: int
    outputs: tuple[str, ...]
    output_path: str

    def __post_init__(self) -> None:
        if not (0.0 < self.kmin < self.kmax):
            raise ConfigError(
                f"need 0 < kmin < kmax, got kmin={self.kmin!r} kmax={self.kmax!r}"
            )
        if self.n_points < 2:
            raise ConfigError(f"need at least 2 grid points, got {self.n_points!r}")
        bad = [o for o in self.outputs if o not in ALL_OUTPUTS]
        if bad or not self.outputs:
            raise ConfigError(
                f"outputs must be a non-empty subset of {','.join(ALL_OUTPUTS)}, "
                f"got {','.join(self.outputs) or '(none)'}"
            )
        if ("eff" in self.outputs or "zero" in self.outputs) and not (
            self.kmax * self.channel.lam < 1.0
        ):
            raise ConfigError(
                "the eff/zero formulas are only valid for k*lambda < 1; "
                f"kmax*lambda = {self.kmax * self.channel.lam!r}"
            )


class ScanRow(NamedTuple):
    """One CSV row; None marks a field outside its formula's validity."""

    k: float
    delta_full: float | None
    delta_eff: float | None
    delta_zero: float | None
    s_re: float | None
    s_im: float | None


# ---------------------------------------------------------------------------
# configuration parsing

_CONFIG_KEYS = ("l", "lambda", "chi", "c", "kmin", "kmax", "n", "out", "preset", "outputs")


def read_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _to_int(raw: object, name: str) -> int:
    try:
        return int(str(raw))
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def _to_float(raw: object, name: str) -> float:
    try:
        value = float(str(raw))
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {raw!r}") from None
    if math.isnan(value):
        raise ConfigError(f"{name} must not be NaN")
    return value


def _resolve_channel(values: Mapping[str, object]) -> Channel:
    has_chi = values.get("chi") is not None
    has_c = values.get("c") is not None
    if has_chi and has_c:
        raise ConfigError("give exactly one of chi / c, not both")
    if not (has_chi or has_c):
        raise ConfigError("a channel needs one of chi / c (or a preset)")
    if values.get("l") is None or values.get("lambda") is None:
        raise ConfigError("a channel needs l and lambda")
    l = _to_int(values["l"], "l")
    lam = _to_float(values["lambda"], "lambda")
    try:
        if has_chi:
            return Channel(l, lam, _to_float(values["chi"], "chi"))
        return channel_from_robin(RobinCondition(l, lam, _to_float(values["c"], "c")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _merge_config(values: Mapping[str, object]) -> dict[str, object]:
    """Overlay explicit values on top of their preset's defaults."""
    merged: dict[str, object] = {k: None for k in _CONFIG_KEYS}
    preset = values.get("preset")
    if preset is not None:
        preset = str(preset)
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r} (have: {', '.join(sorted(PRESETS))})"
            )
        merged.update(PRESETS[preset])
        merged["preset"] = preset
        merged["out"] = f"{preset}.csv"
    explicit = {k: v for k, v in values.items() if v is not None and k != "preset"}
    if preset is not None and ("chi" in explicit) != ("c" in explicit):
        # an explicit chi or c replaces the preset coupling entirely
        merged.pop("chi", None)
        merged.pop("c", None)
    merged.update(explicit)
    return merged


def _config_from_values(values: Mapping[str, object]) -> ScanConfig:
    merged = _merge_config(values)
    channel = _resolve_channel(merged)
    outputs_raw = merged.get("outputs")
    if outputs_raw is None:
        outputs = ALL_OUTPUTS
    else:
        outputs = tuple(s.strip() for s in str(outputs_raw).split(",") if s.strip())
    # grid defaults mirror the presets
    kmin = merged.get("kmin") if merged.get("kmin") is not None else 0.01
    kmax = merged.get("kmax") if merged.get("kmax") is not None else 3.0
    n = merged.get("n") if merged.get("n") is not None else 300
    return ScanConfig(
        channel=channel,
        kmin=_to_float(kmin, "kmin"),
        kmax=_to_float(kmax, "kmax"),
        n_points=_to_int(n, "n"),
        outputs=outputs,
        output_path=str(merged.get("out") or "scan.csv"),
    )


def _values_from_namespace(ns: argparse.Namespace) -> dict[str, object]:
    values: dict[str, object] = {}
    if getattr(ns, "config", None):
        values.update(read_config_file(ns.config))
    flag_map = {
        "l": ns.l,
        "lambda": ns.lam,
        "chi": ns.chi,
        "c": ns.c,
        "kmin": getattr(ns, "kmin", None),
        "kmax": getattr(ns, "kmax", None),
        "n": getattr(ns, "n", None),
        "out": getattr(ns, "out", None),
        "preset": ns.preset,
        "outputs": getattr(ns, "outputs", None),
    }
    for key, value in flag_map.items():
        if value is not None:
            values[key] = value
    return values


def parse_config(args: Sequence[str]) -> ScanConfig:
    """Build a ScanConfig from scan-style command-line tokens.

    ``args`` is everything after the ``scan`` subcommand, e.g.
    ``["--l", "1", "--lambda", "0.1", "--chi", "-25"]`` or
    ``["myscan.cfg", "--kmax", "2"]``.
    """
    parser = argparse.ArgumentParser(prog="robinscatter scan", add_help=False)
    _add_scan_arguments(parser)
    try:
        ns = parser.parse_args(list(args))
    except SystemExit:
        raise ConfigError(f"invalid scan arguments: {list(args)!r}") from None
    return _config_from_values(_values_from_namespace(ns))


# ---------------------------------------------------------------------------
# scan execution

def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".12g")


def _channel_comment(ch: Channel) -> str:
    c = robin_from_channel(ch).c
    return (
        f"# l={ch.l} lambda={format(ch.lam, '.12g')} "
        f"chi={format(ch.chi, '.12g')} c={format(c, '.12g')}"
    )


def _plot_script(csv_path: str) -> str:
    name = Path(csv_path).name
    return "\n".join(
        [
            "set datafile separator ','",
            "set datafile missing ''",
            "set key left top",
            "set xlabel 'k'",
            "set ylabel 'phase shift [rad]'",
            f"plot '{name}' using 1:2 with lines title 'full', \\",
            "     '' using 1:3 with lines dashtype 2 title 'effective range', \\",
            "     '' using 1:4 with lines dashtype 4 title 'zero range'",
            "pause -1",
            "",
        ]
    )


def _csv_lines(columns: Sequence[Sequence[float | None]]) -> Iterator[str]:
    """CSV lines of equal-length columns, with None as an empty field.

    The None values of each column form a suffix (a column not requested,
    or a series column past its validity bound), so the rows fall into at
    most a few blocks that each format with one ``%.12g`` row template.
    """
    n = len(columns[0])
    cuts = sorted({n} | {col.index(None) for col in columns if col[-1] is None})
    blocks = []
    for start, stop in zip([0, *cuts], cuts):
        if stop > start:
            present = [col[start] is not None for col in columns]
            template = ",".join("%.12g" if p else "" for p in present)
            block = [col[start:stop] for col, p in zip(columns, present) if p]
            blocks.append(map(template.__mod__, zip(*block)))
    return itertools.chain.from_iterable(blocks)


def run_scan(config: ScanConfig) -> list[ScanRow]:
    """Run the scan, write the CSV and its plot script, return the rows."""
    ch = config.channel
    n = config.n_points
    step = (config.kmax - config.kmin) / (n - 1)
    points = phase_shift_scan(ch, config.kmin + np.arange(n) * step, outputs=config.outputs)
    k, full, eff, zero, _ = zip(*points)
    del points  # one object per row at a time: the rows below replace the points
    if "full" in config.outputs:
        s = s_matrix_from_delta(np.array(full))
        s_re, s_im = s.real.tolist(), s.imag.tolist()
    else:
        s_re = s_im = [None] * n
    columns = (k, full, eff, zero, s_re, s_im)
    rows = list(map(ScanRow, *columns))

    out = Path(config.output_path)
    header = [_channel_comment(ch), "k,delta_full,delta_eff,delta_zero,s_re,s_im"]
    out.write_text("\n".join(itertools.chain(header, _csv_lines(columns))) + "\n")
    out.with_suffix(".gp").write_text(_plot_script(config.output_path))
    return rows


# ---------------------------------------------------------------------------
# pole report

def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.6g}{z.imag:+.6g}i"


def run_pole_report(channel: Channel, output_path: str | None = None) -> str:
    """Pole report text for one channel; optionally also written as CSV."""
    records = find_poles(channel)
    rc = robin_from_channel(channel)
    lines = [
        f"channel: l={channel.l} lambda={channel.lam:.6g} "
        f"chi={channel.chi:.6g} (c={rc.c:.6g})",
        "",
        "poles of the two-parameter S-matrix:",
    ]
    for rec in records:
        flag = ""
        if rec.kind is PoleKind.BOUND:
            flag = "  <- bound state"
        elif rec.kind is PoleKind.RESONANCE:
            flag = "  <- resonance"
        elif abs(rec.k_pole) < 1e-12:
            flag = "  <- zero-energy bound state"
        lines.append(
            f"  k = {_fmt_complex(rec.k_pole):>24}   {rec.kind.value:<9} "
            f"residual {rec.residual:.3e}{flag}"
        )
    if channel.chi == 0.0:
        lines.append("  (zero coupling: double root at k = 0, zero-energy bound state)")

    if channel.chi != 0.0:
        lines.append("")
        lines.append("dropped-k^2-term closed form, side by side:")
        for z in asymptotic_poles(channel.l, channel.chi):
            lines.append(f"  k = {_fmt_complex(z):>24}")
        if channel.l >= 1:
            kres = resonance_momentum(channel.l, channel.chi)
            exact = [r for r in records if r.kind is PoleKind.RESONANCE]
            lines.append("")
            lines.append(f"real-axis resonance estimate (closed form): k = {kres:.6g}")
            if exact:
                lines.append(
                    f"exact resonance pole:                        k = "
                    f"{_fmt_complex(exact[0].k_pole)}"
                )
    text = "\n".join(lines) + "\n"

    if output_path is not None:
        csv_lines = [_channel_comment(channel), "re_k,im_k,kind,residual"]
        for rec in records:
            csv_lines.append(
                f"{_fmt(rec.k_pole.real)},{_fmt(rec.k_pole.imag)},"
                f"{rec.kind.value},{format(rec.residual, '.3e')}"
            )
        Path(output_path).write_text("\n".join(csv_lines) + "\n")
    return text


# ---------------------------------------------------------------------------
# argument parsing and entry point

def _add_channel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--l", type=int, default=None, help="angular momentum (int >= 0)")
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="cutoff radius (> 0)")
    parser.add_argument("--chi", type=float, default=None,
                        help="rescaled coupling (exclusive with --c)")
    parser.add_argument("--c", type=float, default=None,
                        help="surface parameter (exclusive with --chi; 'inf' = Dirichlet)")
    parser.add_argument("--preset", default=None,
                        help=f"named scenario: {', '.join(sorted(PRESETS))}")


def _add_scan_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", nargs="?", default=None,
                        help="optional key=value config file; flags override it")
    _add_channel_arguments(parser)
    parser.add_argument("--kmin", type=float, default=None, help="lowest momentum")
    parser.add_argument("--kmax", type=float, default=None, help="highest momentum")
    parser.add_argument("--n", type=int, default=None, help="number of grid points")
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument("--outputs", default=None,
                        help="comma-separated subset of full,eff,zero")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robinscatter",
        description="Low-energy partial-wave scattering off a small sphere "
                    "with a generalized surface condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scan = sub.add_parser("scan", help="phase-shift scan to CSV")
    _add_scan_arguments(scan)
    poles = sub.add_parser("poles", help="pole report for one channel")
    poles.add_argument("config", nargs="?", default=None,
                       help="optional key=value config file; flags override it")
    _add_channel_arguments(poles)
    poles.add_argument("--out", default=None, help="optional CSV path for the pole table")
    sub.add_parser("presets", help="list the built-in scenarios")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "scan":
            config = _config_from_values(_values_from_namespace(ns))
            rows = run_scan(config)
            print(f"wrote {len(rows)} rows to {config.output_path} "
                  f"(plot script: {Path(config.output_path).with_suffix('.gp')})")
        elif ns.command == "poles":
            values = _values_from_namespace(ns)
            merged = _merge_config(values)
            channel = _resolve_channel(merged)
            sys.stdout.write(run_pole_report(channel, getattr(ns, "out", None)))
        elif ns.command == "presets":
            for name in sorted(PRESETS):
                p = PRESETS[name]
                ch = Channel(int(p["l"]), float(p["lambda"]), float(p["chi"]))
                c = robin_from_channel(ch).c
                print(
                    f"{name}: l={p['l']} lambda={p['lambda']} chi={p['chi']} "
                    f"(c={c:.6g}) k in [{p['kmin']}, {p['kmax']}], {p['n']} points"
                )
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RootSolveError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    raise SystemExit(main())
