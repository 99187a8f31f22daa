"""Layer tracing from outside the package.

`install` replaces each traced function wherever an a2gnet module binds it,
so the wrapper sits at the name the caller looks up (`mapsim.los_check`,
`aue_net._p_los_building_heights`, `RngStream.child_generator`, ...). Each
call records a span (name, start, end, parent); scipy entry points are only
counted, through a proxy for the scipy module the caller imported. Spans
stay in memory and are written out once, at exit. A layer's self time is
the duration of its spans minus the part covered by their child spans.

Spans nest through one stack, so tracing assumes `threads=1`.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from time import perf_counter

# (span name, defining module, attribute). The sector pattern counts both
# the public pattern and the copy aue_net evaluates per snapshot.
SPANS = [
    ("numerics.child_generator", "numerics", "RngStream.child_generator"),
    ("numerics.sample_fading", "numerics", "sample_fading"),
    ("numerics.marcum_q", "numerics", "marcum_q"),
    ("numerics.inv_marcum_q", "numerics", "inv_marcum_q"),
    ("channel.p_los_building", "channel", "_p_los_building_heights"),
    ("channel.path_loss", "channel", "pl_3gpp_rural_db"),
    ("channel.path_loss", "channel", "rma_ground_los_db"),
    ("channel.path_loss", "channel", "rma_ground_nlos_db"),
    ("channel.path_loss", "channel", "aerial_los_db"),
    ("channel.path_loss", "channel", "aerial_nlos_db"),
    ("channel.tables", "channel", "slice_of"),
    ("channel.tables", "channel", "p_los_3gpp"),
    ("channel.tables", "channel", "shadowing_sigma_db"),
    ("channel.tables", "channel", "averaged_pl_db"),
    ("antenna_geometry.sector_pattern", "antenna_geometry", "bs_gain_db"),
    ("antenna_geometry.sector_pattern", "aue_net", "_sector_gains_db"),
    ("aue_net.sweep", "aue_net", "sweep"),
    ("aue_net.sinr_samples", "aue_net", "sinr_samples"),
    ("aue_net.deploy_hppp", "aue_net", "deploy_hppp"),
    ("aue_net.snapshot_sinr", "aue_net", "snapshot_sinr"),
    ("localization.run_campaign", "localization", "run_campaign"),
    ("localization.multilaterate", "localization", "multilaterate"),
    ("heightmap.los_check", "heightmap", "los_check"),
    ("heightmap.synthetic_city", "heightmap", "synthetic_city"),
    ("heightmap.save_ascii_grid", "heightmap", "save_ascii_grid"),
    ("mapsim.sinr_grid", "mapsim", "sinr_grid"),
    ("mapsim.p_los_vs_altitude", "mapsim", "p_los_vs_altitude"),
    ("abs_net.required_power", "abs_net", "required_power"),
    ("abs_net.power_gain", "abs_net", "power_gain"),
    ("abs_net.sum_rate_gain", "abs_net", "sum_rate_gain"),
    ("abs_net.mean_disc_outage", "abs_net", "mean_disc_outage"),
    ("abs_net.outage", "abs_net", "outage"),
    ("scenario.parse_scenario", "scenario", "parse_scenario"),
    ("cli.run_scenario", "cli", "run_scenario"),
]

SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in SPANS))


def _links(t, args, result):
    t.counts["links"] += getattr(args[0], "size", 1)


def _snapshot(t, args, result):
    t.sites.append(result.n_sites)


def _ill(t, args, result):
    t.counts["ill_conditioned"] += bool(result.ill_conditioned)


def _ray(t, args, result):
    a, b = args[0], args[1]
    t.rays.add((a.x, a.y, a.h, b.x, b.y, b.h))
    t.counts["los_clear"] += bool(result)


def _grid_bytes(t, args, result):
    t.counts["grid_bytes"] += os.path.getsize(args[1])


def _csv_bytes(t, args, result):
    t.counts["csv_bytes"] += sum(os.path.getsize(p) for p in result
                                 if str(p).endswith(".csv"))


def _lm(t, args, result):
    t.counts["lm_starts"] += 1
    t.counts["lm_nfev"] += int(result.nfev)


def _quad(t, args, result):
    t.counts["quad_calls"] += 1


HOOKS = {
    "_p_los_building_heights": _links,
    "deploy_hppp": _snapshot,
    "multilaterate": _ill,
    "los_check": _ray,
    "save_ascii_grid": _grid_bytes,
    "run_scenario": _csv_bytes,
}

# (module, its scipy module attribute, function, hook): counted, no span.
SCIPY_COUNTERS = [
    ("localization", "optimize", "least_squares", _lm),
    ("abs_net", "integrate", "quad", _quad),
]


class _ModuleProxy:
    """Forwards attribute lookups to a module, except the overridden ones."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans and counters of the repetition in progress, plus finished ones."""

    def __init__(self):
        self.finished = []
        self._start_rep()

    def _start_rep(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.stack = []
        self.counts = Counter()
        self.rays = set()
        self.sites = []

    def span(self, name, fn, hook=None):
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ends.append(0.0)
            self.stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def counted(self, fn, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, result)
            return result
        return wrapper

    def end_rep(self) -> dict:
        """Close the repetition; returns its per-layer metrics."""
        calls = Counter(self.names)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, parent in zip(self.names, self.starts,
                                            self.ends, self.parents):
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.names[parent]] -= end - start
        m = {}
        for name in SPAN_NAMES:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        c = self.counts
        solves = calls["localization.multilaterate"]
        outage_discs = calls["abs_net.mean_disc_outage"]
        m.update({
            "channel.p_los_building.links": c["links"],
            "aue_net.sites_per_snapshot": (sum(self.sites) / len(self.sites)
                                           if self.sites else 0.0),
            "aue_net.empty_snapshots": sum(1 for n in self.sites if n == 0),
            "localization.lm_starts": c["lm_starts"],
            "localization.lm_nfev": c["lm_nfev"],
            "localization.starts_per_solve": (c["lm_starts"] / solves
                                              if solves else 0.0),
            "localization.ill_conditioned": c["ill_conditioned"],
            "heightmap.los_distinct_rays": len(self.rays),
            "heightmap.los_dup_ratio": (calls["heightmap.los_check"] / len(self.rays)
                                        if self.rays else 0.0),
            "heightmap.los_clear_frac": (c["los_clear"] / calls["heightmap.los_check"]
                                         if self.rays else 0.0),
            "heightmap.save_ascii_grid.bytes": c["grid_bytes"],
            "abs_net.quad_calls": c["quad_calls"],
            "abs_net.quad_reruns": max(c["quad_calls"] - outage_discs, 0),
            "cli.csv_bytes": c["csv_bytes"],
        })
        self.finished.append((self.names, self.starts, self.ends, self.parents))
        self._start_rep()
        return m

    def write(self, path):
        """Every finished span as CSV: rep, index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("rep,span,name,start_s,end_s,parent\n")
            for rep, spans in enumerate(self.finished):
                for i, (name, start, end, parent) in enumerate(zip(*spans)):
                    fh.write(f"{rep},{i},{name},{start:.9f},{end:.9f},{parent}\n")


def install(tracer: Tracer):
    """Wrap every traced function and scipy counter; returns the undo list."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "a2gnet" or name.startswith("a2gnet."))]
    bindings = {}
    for mod in modules:
        for key, value in vars(mod).items():
            bindings.setdefault(id(value), []).append((mod, key))
    patches = []

    def patch(owner, key, value):
        patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    for name, home, attr in SPANS:
        owner = sys.modules[f"a2gnet.{home}"]
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            patch(cls, method, tracer.span(name, vars(cls)[method]))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            print(f"trace: a2gnet.{home}.{attr} not found; {name} misses it",
                  file=sys.stderr)
            continue
        wrapper = tracer.span(name, original, HOOKS.get(attr))
        for mod, key in bindings[id(original)]:
            patch(mod, key, wrapper)
    for home, scipy_attr, fn_name, hook in SCIPY_COUNTERS:
        owner = sys.modules[f"a2gnet.{home}"]
        scipy_mod = getattr(owner, scipy_attr)
        counted = tracer.counted(getattr(scipy_mod, fn_name), hook)
        patch(owner, scipy_attr, _ModuleProxy(scipy_mod, **{fn_name: counted}))
    return patches


def uninstall(patches):
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)
