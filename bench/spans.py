"""Per-layer tracing from outside the library.

Wrappers are installed on the names callers look up (for example
``robinscatter.scattering.riccati_bessel``, which ``phase_shift_full``
calls) and restored afterwards; no library file changes.  Every wrapped
call becomes a span (name, start, end, parent span, operation id) kept in
compact in-memory columns and written once, as one ``.npz`` file, when the
traced run ends.  A layer's self time is its spans' durations minus the
parts covered by child spans, so the layer self times plus the time outside
every top-level span add up to the traced wall time.
"""

import bisect
import math
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, layer group) for every wrapped lookup name.
WRAPPED = (
    ("robinscatter.scattering", "riccati_bessel", "specfun"),
    ("robinscatter.scattering", "riccati_neumann", "specfun"),
    ("robinscatter.scattering", "double_factorial", "specfun"),
    ("robinscatter.poles", "double_factorial", "specfun"),
    ("robinscatter.scattering", "robin_from_channel", "boundary"),
    ("robinscatter.scattering", "x_strength_expansion", "boundary"),
    ("robinscatter.scattering", "phase_shift_full", "match"),
    ("robinscatter.scattering", "ratio_ab_full", "match"),
    ("robinscatter.scattering", "phase_shift_eff", "eff_zero"),
    ("robinscatter.scattering", "phase_shift_zero", "eff_zero"),
    ("robinscatter.scattering", "unwrap_scan", "unwrap"),
    ("robinscatter.scattering", "phase_shift_scan", "scan"),
    ("robinscatter.cli", "phase_shift_scan", "scan"),
    ("robinscatter.scattering", "find_poles", "poles"),
    ("robinscatter.poles", "find_poles", "poles"),
    ("robinscatter.cli", "run_scan", "cli"),
)
GROUPS = ("specfun", "boundary", "match", "eff_zero", "unwrap", "scan", "poles", "cli")


def anchors_evaluated(ks, anchors):
    """Anchors unwrap_scan evaluates: strictly inside the grid, not on it."""
    n = 0
    for a in set(float(a) for a in anchors):
        i = bisect.bisect_left(ks, a)
        if 0 < i < len(ks) and ks[i] != a:
            n += 1
    return n


class Tracer:
    """Records spans and counters while installed (use as a context manager)."""

    def __init__(self):
        self.names = [f"{m.rsplit('.', 1)[1]}.{a}" for m, a, _ in WRAPPED]
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.op_id = -1
        self.counts = Counter()
        self._saved = []

    def _wrap(self, nid, fn, attr):
        name, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack)
        clock = time.perf_counter_ns
        counts = self.counts

        def span(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        if attr == "riccati_bessel":
            def wrapper(l, x):
                if 0 < l and x <= l + 2.0:
                    counts["series"] += 1
                return span(l, x)
        elif attr == "unwrap_scan":
            def wrapper(fn_, ks, anchors=(), **kw):
                def counted(k):
                    counts["unwrap_evals"] += 1
                    return fn_(k)
                anchors = list(anchors)
                out = span(counted, ks, anchors, **kw)
                counts["unwrap_calls"] += 1
                counts["unwrap_points"] += len(ks)
                counts["anchors"] += anchors_evaluated(ks, anchors)
                return out
        elif attr == "phase_shift_scan":
            def wrapper(ch, ks, *a, **kw):
                counts["grid_points"] += len(ks)
                return span(ch, ks, *a, **kw)
        elif attr == "find_poles":
            def wrapper(ch):
                counts["poles_depth"] += 1
                try:
                    out = span(ch)
                finally:
                    counts["poles_depth"] -= 1
                counts["nonfinite_roots"] += sum(
                    not (math.isfinite(r.k_pole.real) and math.isfinite(r.k_pole.imag))
                    for r in out)
                return out
        elif attr == "run_scan":
            def wrapper(config):
                rows = span(config)
                counts["rows"] += len(rows)
                counts["csv_bytes"] += os.path.getsize(config.output_path)
                return rows
        else:
            wrapper = span
        return wrapper

    def __enter__(self):
        for nid, (mod_name, attr, _) in enumerate(WRAPPED):
            mod = sys.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(nid, fn, attr))
        roots = np.roots
        counts = self.counts

        def counted_roots(p):
            if counts["poles_depth"] > 0:
                counts["fallback"] += 1
            return roots(p)

        self._saved.append((np, "roots", roots))
        np.roots = counted_roots
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def save(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 start=np.frombuffer(self.start, np.int64), end=np.frombuffer(self.end, np.int64),
                 parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32))

    def metrics(self, n_ops, wall_s):
        """Per-layer metrics, per operation unless the unit says otherwise."""
        name = np.frombuffer(self.name, np.int32)
        dur = (np.frombuffer(self.end, np.int64) - np.frombuffer(self.start, np.int64)) * 1e-9
        parent = np.frombuffer(self.parent, np.int32)
        nested = parent >= 0
        self_s = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n_names = len(WRAPPED)
        calls = np.bincount(name, minlength=n_names)
        self_by = np.bincount(name, weights=self_s, minlength=n_names)
        group = np.array([GROUPS.index(g) for _, _, g in WRAPPED])
        g_calls = np.bincount(group, weights=calls, minlength=len(GROUPS))
        g_self = np.bincount(group, weights=self_by, minlength=len(GROUPS))
        c = self.counts
        per = 1.0 / n_ops
        rb = self.names.index("scattering.riccati_bessel")
        scan_ids = [i for i, (_, _, g) in enumerate(WRAPPED) if g == "scan"]
        pole_ids = [i for i, (_, _, g) in enumerate(WRAPPED) if g == "poles"]
        is_scan = np.isin(name, scan_ids)
        in_scan = np.isin(name, pole_ids) & nested
        in_scan[in_scan] = is_scan[parent[in_scan]]
        scan_s = dur[is_scan].sum()
        top_s = dur[~nested].sum()
        G = dict(zip(GROUPS, range(len(GROUPS))))
        values = {
            "specfun.calls": (g_calls[G["specfun"]] * per, "count/op"),
            "specfun.self_s": (g_self[G["specfun"]] * per, "s/op"),
            "specfun.series_share": (c["series"] / calls[rb] if calls[rb] else 0.0, "1"),
            "boundary.calls": (g_calls[G["boundary"]] * per, "count/op"),
            "boundary.self_s": (g_self[G["boundary"]] * per, "s/op"),
            "scattering.match_calls": (g_calls[G["match"]] * per, "count/op"),
            "scattering.match_self_s": (g_self[G["match"]] * per, "s/op"),
            "scattering.evals_per_point": (
                g_calls[G["match"]] / c["grid_points"] if c["grid_points"] else 0.0, "1"),
            "scattering.eff_zero_calls": (g_calls[G["eff_zero"]] * per, "count/op"),
            "scattering.eff_zero_self_s": (g_self[G["eff_zero"]] * per, "s/op"),
            "scattering.unwrap_self_s": (g_self[G["unwrap"]] * per, "s/op"),
            "scattering.unwrap_evals": (c["unwrap_evals"] * per, "count/op"),
            "scattering.refine_evals": (
                (c["unwrap_evals"] - c["unwrap_points"] - c["anchors"]) * per, "count/op"),
            "scattering.anchors": (
                c["anchors"] / c["unwrap_calls"] if c["unwrap_calls"] else 0.0, "count/call"),
            "scattering.scan_self_s": (g_self[G["scan"]] * per, "s/op"),
            "poles.calls": (g_calls[G["poles"]] * per, "count/op"),
            "poles.self_s": (g_self[G["poles"]] * per, "s/op"),
            "poles.nonfinite_roots": (c["nonfinite_roots"] * per, "count/op"),
            "poles.fallback_calls": (c["fallback"] * per, "count/op"),
            "poles.share_of_scan": (dur[in_scan].sum() / scan_s if scan_s else 0.0, "1"),
            "cli.rows": (c["rows"] * per, "count/op"),
            "cli.csv_bytes": (c["csv_bytes"] * per, "B/op"),
            "cli.format_self_s": (g_self[G["cli"]] * per, "s/op"),
            "trace.wall_s": (wall_s * per, "s/op"),
            "trace.unattributed_s": ((wall_s - top_s) * per, "s/op"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
