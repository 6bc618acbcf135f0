"""Map every module of ``repro`` to one simulator layer, and fold a profile by layer.

A layer is named after the package (or, inside ``repro.hat``, the modules)
that owns it.  ``PACKAGE_LAYERS`` assigns a whole package subtree;
``MODULE_LAYERS`` assigns single modules.  A module must match exactly one
entry of the two tables, so a new package or a new module inside
``repro.hat`` stays unmapped until someone decides where its time belongs,
and ``test_perfbench.py`` fails until they do.

The traced run measures host time from outside the program: ``cProfile``
times every call, and :func:`fold_profile` sums each function's own time
into the layer of the module that defines it.  Time in the standard
library, builtins and generated code (``<string>`` dataclass methods)
belongs to the layer that called it, split by the time each caller spent
there.  A layer's ``calls`` counts calls that cross into it from another
layer, generator resumptions by the event kernel included.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = (
    "sim", "net", "cluster", "storage", "replication",
    "hat.clients", "hat.layers", "hat.server",
    "workloads", "loadgen", "overload", "chaos", "membership",
    "obs", "adya", "bench",
)

#: Package subtree -> layer.
PACKAGE_LAYERS: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.net": "net",
    "repro.cluster": "cluster",
    "repro.storage": "storage",
    "repro.replication": "replication",
    "repro.hat.clients": "hat.clients",
    "repro.workloads": "workloads",
    "repro.loadgen": "loadgen",
    "repro.overload": "overload",
    "repro.chaos": "chaos",
    "repro.membership": "membership",
    "repro.obs": "obs",
    # The Table 3 taxonomy is the checker's specification side: the model
    # lattice the registry validates claims against.
    "repro.taxonomy": "adya",
    "repro.adya": "adya",
    "repro.bench": "bench",
}

#: Single module -> layer (the package root and ``repro.hat``'s split).
MODULE_LAYERS: Dict[str, str] = {
    "repro": "sim",
    "repro.errors": "sim",
    "repro.hat": "hat.clients",
    "repro.hat.transaction": "hat.clients",
    "repro.hat.protocols": "hat.clients",
    "repro.hat.testbed": "hat.clients",
    "repro.hat.sessions": "hat.clients",
    "repro.hat.cut_isolation": "hat.clients",
    "repro.hat.layers": "hat.layers",
    "repro.hat.server": "hat.server",
    "repro.hat.mav_state": "hat.server",
}

#: The benchmark's own driver code counts as harness (``bench``) time.
HARNESS_LAYER = "bench"


def module_name(src_root: Path, path: Path) -> Optional[str]:
    """Dotted module name of a ``.py`` file under ``src_root`` (else None)."""
    try:
        relative = path.resolve().relative_to(src_root.resolve())
    except ValueError:
        return None
    if relative.suffix != ".py":
        return None
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else None


def matches(module: str) -> List[str]:
    """Every table entry that claims ``module`` (exactly one when mapped)."""
    found = []
    if module in MODULE_LAYERS:
        found.append(module)
    for package in PACKAGE_LAYERS:
        if module == package or module.startswith(package + "."):
            found.append(package)
    return found


def layer_of(module: str) -> Optional[str]:
    """The layer owning ``module``, or None when it is unmapped or ambiguous."""
    found = matches(module)
    if len(found) != 1:
        return None
    return MODULE_LAYERS.get(found[0]) or PACKAGE_LAYERS[found[0]]


def repo_modules(src_root: Path) -> List[str]:
    """Every module of the ``repro`` package, sorted."""
    names = (module_name(src_root, path)
             for path in (src_root / "repro").rglob("*.py"))
    return sorted(name for name in names if name is not None)


def unmapped_modules(src_root: Path) -> List[str]:
    """Modules that match no table entry or more than one."""
    return [name for name in repo_modules(src_root)
            if len(matches(name)) != 1]


# ---------------------------------------------------------------------------
# Folding a cProfile by layer
# ---------------------------------------------------------------------------

#: ``pstats`` function key: ``(filename, line, function name)``.
FuncKey = Tuple[str, int, str]

#: Stats of a function the profile saw only as a caller (it was already
#: running when profiling started): no calls, no callers.
_ROOT = (0, 0, 0.0, 0.0, {})


class LayerResolver:
    """Caches the layer of each profiled file name."""

    def __init__(self, src_root: Path, harness_dir: Path):
        self.src_root = src_root
        self.harness_dir = harness_dir.resolve()
        self._cache: Dict[str, Optional[str]] = {}

    def __call__(self, filename: str) -> Optional[str]:
        if filename not in self._cache:
            self._cache[filename] = self._resolve(filename)
        return self._cache[filename]

    def _resolve(self, filename: str) -> Optional[str]:
        if filename.startswith(("<", "~")):
            return None
        path = Path(filename)
        module = module_name(self.src_root, path)
        if module is not None:
            return layer_of(module)
        if path.resolve().parent == self.harness_dir:
            return HARNESS_LAYER
        return None


def fold_profile(stats: Dict[FuncKey, tuple], resolve) -> Dict[str, object]:
    """Per-layer self time and crossing calls from ``pstats.Stats.stats``.

    ``stats`` maps each function to ``(cc, nc, tt, ct, callers)`` where
    ``callers`` maps each caller to the same four numbers for calls from
    that caller only.  Returns ``{"self_s": {layer: s}, "calls": {layer:
    n}, "edges": {"caller>callee": n}}`` over :data:`LAYERS`.
    """
    owners: Dict[FuncKey, Dict[str, float]] = {}

    def owner_shares(func: FuncKey, active: frozenset) -> Dict[str, float]:
        """How a layer-less function's time splits over repo layers."""
        layer = resolve(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        callers = [(caller, edge) for caller, edge in stats.get(func, _ROOT)[4].items()
                   if caller not in active]
        # Split by the time each caller spent here, or by call counts when
        # no call was long enough to time (recursion is cut at ``active``).
        index = 2 if any(edge[2] > 0.0 for _, edge in callers) else 1
        weights: Dict[str, float] = defaultdict(float)
        for caller, edge in callers:
            for name, share in owner_shares(caller, active | {func}).items():
                weights[name] += edge[index] * share
        total = sum(weights.values())
        shares = ({name: value / total for name, value in weights.items()}
                  if total > 0.0 else {HARNESS_LAYER: 1.0})
        owners[func] = shares
        return shares

    def dominant(func: FuncKey) -> str:
        shares = owner_shares(func, frozenset())
        return max(sorted(shares), key=shares.__getitem__)

    self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
    calls: Dict[str, int] = {name: 0 for name in LAYERS}
    edges: Dict[str, int] = defaultdict(int)
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = resolve(func[0])
        if layer is None:
            for owner, share in owner_shares(func, frozenset()).items():
                self_s[owner] += tt * share
            continue
        self_s[layer] += tt
        if not callers:
            calls[layer] += nc
            edges[f"{HARNESS_LAYER}>{layer}"] += nc
            continue
        for caller, (_ccc, caller_nc, _tt, _ct) in callers.items():
            source = dominant(caller)
            if source != layer:
                calls[layer] += caller_nc
                edges[f"{source}>{layer}"] += caller_nc
    return {"self_s": self_s, "calls": calls, "edges": dict(sorted(edges.items()))}


def merge_folds(folds: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Sum several folds (one per leg) into one."""
    self_s = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    edges: Dict[str, int] = defaultdict(int)
    for fold in folds:
        for name in LAYERS:
            self_s[name] += fold["self_s"][name]
            calls[name] += fold["calls"][name]
        for edge, count in fold["edges"].items():
            edges[edge] += count
    return {"self_s": self_s, "calls": calls, "edges": dict(sorted(edges.items()))}
