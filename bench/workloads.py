"""Seeded workload inputs and the operation each workload times.

Only the standard library and ``robinscatter`` are imported here, so a
fresh interpreter that runs one operation (the set-up probe) pays for the
package import and nothing of the benchmark's oracles.  Library entry
points are looked up on their modules at call time, so the tracer's
wrappers are the ones called.
"""

import math
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "robinscatter" / "__init__.py").is_file():
    sys.exit(f"error: no robinscatter sources under {SRC}")
sys.path.insert(0, str(SRC))
# One client, no threads: keep numpy's BLAS pool (np.roots) to one thread.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

from robinscatter import cli, poles, scattering  # noqa: E402
from robinscatter.boundary import Channel  # noqa: E402

DENSE_POINTS = 100_000
SWEEP_POINTS = 300
SWEEP_KLAM = 0.85  # grid ends below the series cut-off k*lam = 0.9
L_MAX = 12
# Above l = 5 the pole solver returns NaN roots at small lam (see poles_wide).
POLES_L_MAX = 5
PRESET_NAMES = tuple(sorted(cli.PRESETS))
MP_PICKS_DENSE = 8
MP_PICKS_SWEEP = 1
# Share of channel_sweep scans that get the full oracle; the rest are
# checked for finite values on the requested grid.
FULL_CHECK_SHARE = 0.25
# Share of poles_sweep solves also checked against mpmath.polyroots (about
# 50 ms each); every solve gets the cheaper checks.
MP_SOLVE_SHARE = 0.004


# Additive-recurrence steps of the R3 low-discrepancy sequence (Roberts 2018).
_G = 1.2207440846057594
R3_STEPS = (1 / _G, 1 / _G ** 2, 1 / _G ** 3)


class ChannelRounds:
    """Rounds of channels, one for each l in 0..l_max, in random order.

    lam is log-uniform on [0.01, 1], |chi| log-uniform on [0.01, 100], and
    the sign of chi is drawn from ``signs``.  For each l the three draws
    follow a low-discrepancy sequence from a seeded random start, so a run
    of a few dozen rounds already covers the whole range evenly and the
    run-to-run spread comes from the program rather than from the draw.
    """

    def __init__(self, rng, l_max, signs):
        self.rng = rng
        self.signs = signs
        self.start = [[rng.random() for _ in R3_STEPS] for _ in range(l_max + 1)]
        self.round = 0

    def next(self):
        self.round += 1
        channels = []
        for l, start in enumerate(self.start):
            u, v, s = ((a + self.round * step) % 1.0 for a, step in zip(start, R3_STEPS))
            sign = self.signs[int(s * len(self.signs))]
            channels.append(Channel(l, 10.0 ** (-2.0 + 2.0 * u), sign * 10.0 ** (-2.0 + 4.0 * v)))
        self.rng.shuffle(channels)
        return channels


def columns(items, fields):
    """The named attributes of ``items`` as rows of a float array, None as
    NaN, built one column at a time so that the oracle's copy stays small
    beside the program's own output."""
    return np.array([
        np.fromiter((math.nan if v is None else v for v in (getattr(x, f) for x in items)),
                    float, len(items))
        for f in fields])


class Op:
    """Inputs of one timed call and what its oracle check covers."""

    def __init__(self, channel, ks=None, config=None, mp_picks=(), mp_check=False, full=True):
        self.channel = channel
        self.ks = ks
        self.config = config
        self.mp_picks = mp_picks
        self.mp_check = mp_check
        self.full = full


class ScanDense:
    """Each round scans all three presets at 1e5 points, CSV included."""

    points_per_op = DENSE_POINTS

    def __init__(self, seed, tmpdir):
        self.rng = random.Random(seed)
        self.tmpdir = Path(tmpdir)
        self.points = DENSE_POINTS

    def probe_op(self):
        return self._op("fig1a")

    def batches(self):
        # A fixed order: the peak RSS depends on which scan follows which.
        while True:
            yield [self._op(name) for name in PRESET_NAMES]

    def _op(self, name):
        out = self.tmpdir / f"{name}.csv"
        config = cli.parse_config(["--preset", name, "--n", str(self.points), "--out", str(out)])
        picks = sorted(self.rng.sample(range(self.points), MP_PICKS_DENSE))
        return Op(config.channel, config=config, mp_picks=picks)

    @staticmethod
    def run(op):
        return cli.run_scan(op.config)

    def record(self, op, rows):
        cols = columns(rows, ("k", "delta_full", "delta_eff", "delta_zero", "s_re", "s_im"))
        wanted = set(self.rng.sample(range(op.config.n_points), 16))
        sample, n_lines = [], 0
        with open(op.config.output_path) as f:  # streamed: two header lines, then rows
            for n_lines, line in enumerate(f, 1):
                if n_lines - 3 in wanted:
                    sample.append((n_lines - 3, line.rstrip("\n")))
        return {"cols": cols, "csv_lines": n_lines, "csv_sample": sample}


class ChannelSweep:
    """In-memory 300-point phase_shift_scan of one repulsive (chi > 0)
    channel per call, l <= 12."""

    points_per_op = SWEEP_POINTS
    signs = (1.0,)
    full_check_share = FULL_CHECK_SHARE

    def __init__(self, seed, tmpdir=None):
        self.rng = random.Random(seed)
        self.channels = ChannelRounds(self.rng, L_MAX, self.signs)

    def probe_op(self):
        return self._op(Channel(4, 0.1, 1.0))

    def batches(self):
        while True:
            yield [self._op(ch) for ch in self.channels.next()]

    def _op(self, ch):
        kmax = SWEEP_KLAM / ch.lam
        ks = [kmax * j / SWEEP_POINTS for j in range(1, SWEEP_POINTS + 1)]
        picks = sorted(self.rng.sample(range(SWEEP_POINTS), MP_PICKS_SWEEP))
        return Op(ch, ks=ks, mp_picks=picks, full=self.rng.random() < self.full_check_share)

    @staticmethod
    def run(op):
        return scattering.phase_shift_scan(op.channel, op.ks)

    @staticmethod
    def record(op, points):
        return {"cols": columns(points, ("delta_full", "delta_eff", "delta_zero", "ratio_ab")),
                "ks": [p.k for p in points]}


class PolesSweep:
    """find_poles alone on one random channel (l <= 5) per call."""

    points_per_op = 0
    l_max = POLES_L_MAX

    def __init__(self, seed, tmpdir=None):
        self.rng = random.Random(seed)
        self.channels = ChannelRounds(self.rng, self.l_max, (-1.0, 1.0))

    def probe_op(self):
        return Op(Channel(3, 0.1, -1.0))

    def batches(self):
        while True:
            yield [Op(ch, mp_check=self.rng.random() < MP_SOLVE_SHARE)
                   for ch in self.channels.next()]

    @staticmethod
    def run(op):
        return poles.find_poles(op.channel)

    @staticmethod
    def record(op, records):
        return {"roots": [r.k_pole for r in records], "kinds": [r.kind.value for r in records]}


class ChannelWide(ChannelSweep):
    """channel_sweep with couplings of both signs, every scan fully checked;
    attractive channels have narrow resonances whose rise by pi the
    library's anchored lift can miss."""

    signs = (-1.0, 1.0)
    full_check_share = 1.0


class PolesWide(PolesSweep):
    """poles_sweep up to l = 12; find_poles returns NaN roots from l = 6 on."""

    l_max = L_MAX


WORKLOADS = {
    "scan_dense": ScanDense,
    "channel_sweep": ChannelSweep,
    "poles_sweep": PolesSweep,
    "channel_wide": ChannelWide,
    "poles_wide": PolesWide,
}

