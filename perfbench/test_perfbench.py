"""Tests of the benchmark's layer map and profile fold (no simulation runs)."""

from pathlib import Path

import layermap

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_module_maps_to_exactly_one_layer():
    assert layermap.repo_modules(SRC)
    assert layermap.unmapped_modules(SRC) == []


def test_new_package_is_left_unmapped():
    assert layermap.matches("repro.newpackage.module") == []
    assert layermap.layer_of("repro.newpackage.module") is None
    assert layermap.layer_of("repro.hat.new_module") is None


def test_tables_name_only_known_layers():
    named = set(layermap.PACKAGE_LAYERS.values()) | set(layermap.MODULE_LAYERS.values())
    assert named <= set(layermap.LAYERS)


def test_fold_charges_library_time_to_its_callers():
    sim = (str(SRC / "repro" / "sim" / "events.py"), 1, "run")
    net = (str(SRC / "repro" / "net" / "network.py"), 1, "send")
    helper = ("/usr/lib/python3/heapq.py", 1, "merge")
    builtin = ("~", 0, "<built-in method len>")
    stats = {
        sim: (1, 1, 2.0, 10.0, {}),
        net: (4, 4, 3.0, 5.0, {sim: (4, 4, 3.0, 5.0)}),
        # A library function called by both layers, and a builtin it calls.
        helper: (3, 3, 1.0, 2.0, {sim: (1, 1, 0.25, 0.5), net: (2, 2, 0.75, 1.5)}),
        builtin: (5, 5, 1.0, 1.0, {helper: (3, 3, 0.6, 0.6), net: (2, 2, 0.4, 0.4)}),
    }
    folded = layermap.fold_profile(
        stats, layermap.LayerResolver(SRC, Path(__file__).resolve().parent))
    assert abs(folded["self_s"]["sim"] - (2.0 + 0.25 + 0.6 * 0.25)) < 1e-9
    assert abs(folded["self_s"]["net"] - (3.0 + 0.75 + 0.6 * 0.75 + 0.4)) < 1e-9
    assert abs(sum(folded["self_s"].values()) - 7.0) < 1e-9
    assert folded["calls"]["net"] == 4
    assert folded["calls"]["sim"] == 1
    assert folded["edges"] == {"bench>sim": 1, "sim>net": 4}
