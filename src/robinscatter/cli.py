"""Command-line harness: phase-shift scans, pole reports, presets.

Subcommands
-----------
scan     compute delta_full / delta_eff / delta_zero on a uniform k-grid and
         write a CSV table (plus a gnuplot script next to it)
poles    solve the pole polynomial of a channel and print a report
presets  list the built-in named scenarios

A channel is given either as (--l, --lambda, --chi) or as (--l, --lambda,
--c) -- exactly one of chi/c.  Flags may be combined with a flat key=value
config file (flags win) and with a named preset (explicit values win; an
explicit chi or c replaces the preset coupling).  Every command resolves
these the same way, and poles ignores the grid keys of a config file.

Exit codes: 0 success, 2 configuration error or a value outside the
double range (a library ValueError), 3 numeric failure of the pole solver.
"""

import argparse
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from .boundary import Channel, channel_from_robin, robin_from_channel, RobinCondition
from .poles import PoleKind, RootSolveError, asymptotic_poles, find_poles, resonance_momentum
from .scattering import phase_shift_scan, s_matrix_from_delta

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
# configuration: one parser and one resolution path for every command

# config keys, which are also the flags, with their help text
_KEY_HELP = {
    "l": "angular momentum (int >= 0)",
    "lambda": "cutoff radius (> 0)",
    "chi": "rescaled coupling (exclusive with --c)",
    "c": "surface parameter (exclusive with --chi; 'inf' = Dirichlet)",
    "preset": f"named scenario: {', '.join(sorted(PRESETS))}",
    "kmin": "lowest momentum",
    "kmax": "highest momentum",
    "n": "number of grid points",
    "out": "output CSV path",
    "outputs": "comma-separated subset of full,eff,zero",
}


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
        if key not in _KEY_HELP:
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


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises ConfigError where argparse would exit."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    """The one parser of every command; flags stay strings until resolved."""
    parser = _Parser(
        prog="robinscatter",
        description="Low-energy partial-wave scattering off a small sphere "
                    "with a generalized surface condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text, keys in [
        ("scan", "phase-shift scan to CSV", _KEY_HELP),
        ("poles", "pole report for one channel", ("l", "lambda", "chi", "c", "preset", "out")),
    ]:
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("config", nargs="?",
                         help="optional key=value config file; flags override it")
        for key in keys:
            cmd.add_argument(f"--{key}", help=_KEY_HELP[key])
    sub.add_parser("presets", help="list the built-in scenarios")
    return parser


def _resolve(ns: argparse.Namespace) -> tuple[Channel, dict[str, object]]:
    """The channel of a parsed command and all its values: preset < file < flags."""
    values: dict[str, object] = dict(read_config_file(ns.config)) if ns.config else {}
    values.update((k, v) for k, v in vars(ns).items() if k in _KEY_HELP and v is not None)
    preset = values.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r} (have: {', '.join(sorted(PRESETS))})"
            )
        for key, default in PRESETS[str(preset)].items():
            if key != "chi" or "c" not in values:  # an explicit c replaces the preset chi
                values.setdefault(key, default)

    if "chi" in values and "c" in values:
        raise ConfigError("give exactly one of chi / c, not both")
    if "chi" not in values and "c" not in values:
        raise ConfigError("a channel needs one of chi / c (or a preset)")
    if "l" not in values or "lambda" not in values:
        raise ConfigError("a channel needs l and lambda")
    l = _to_int(values["l"], "l")
    lam = _to_float(values["lambda"], "lambda")
    try:
        if "chi" in values:
            return Channel(l, lam, _to_float(values["chi"], "chi")), values
        rc = RobinCondition(l, lam, _to_float(values["c"], "c"))
        return channel_from_robin(rc), values
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _scan_config(ns: argparse.Namespace) -> ScanConfig:
    channel, values = _resolve(ns)
    outputs = str(values.get("outputs", ",".join(ALL_OUTPUTS)))
    # grid defaults mirror the presets; a preset names its default output
    return ScanConfig(
        channel=channel,
        kmin=_to_float(values.get("kmin", 0.01), "kmin"),
        kmax=_to_float(values.get("kmax", 3.0), "kmax"),
        n_points=_to_int(values.get("n", 300), "n"),
        outputs=tuple(s.strip() for s in outputs.split(",") if s.strip()),
        output_path=str(values.get("out") or f"{values.get('preset', 'scan')}.csv"),
    )


def parse_config(args: Sequence[str]) -> ScanConfig:
    """Build a ScanConfig from scan-style command-line tokens.

    ``args`` is everything after the ``scan`` subcommand, e.g.
    ``["--l", "1", "--lambda", "0.1", "--chi", "-25"]`` or
    ``["myscan.cfg", "--kmax", "2"]``.  Every error, malformed arguments
    included, is a ConfigError.
    """
    return _scan_config(_build_parser().parse_args(["scan", *args]))


# ---------------------------------------------------------------------------
# scan execution

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
    else:
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
                f"{rec.k_pole.real:.12g},{rec.k_pole.imag:.12g},"
                f"{rec.kind.value},{format(rec.residual, '.3e')}"
            )
        Path(output_path).write_text("\n".join(csv_lines) + "\n")
    return text


# ---------------------------------------------------------------------------
# entry point

def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        if ns.command == "scan":
            config = _scan_config(ns)
            rows = run_scan(config)
            print(f"wrote {len(rows)} rows to {config.output_path} "
                  f"(plot script: {Path(config.output_path).with_suffix('.gp')})")
        elif ns.command == "poles":
            channel, values = _resolve(ns)
            sys.stdout.write(run_pole_report(channel, values.get("out")))
        else:
            for name in sorted(PRESETS):
                ch, p = _resolve(argparse.Namespace(config=None, preset=name))
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
