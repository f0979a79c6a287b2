"""Module boundaries in ``src/toricleak``: each decision has one owner.

A module that imports a sibling's private name shares that sibling's
internals, which is how a second copy of a decision (such as the matcher)
grows.  Public names are the only way across a module boundary.

Three shape checks keep ``src/`` to what production runs: the draw layout
knows exactly the gate kinds the circuits emit, the noise model has no
field that a config cannot set, and networkx, the blossom port's test
oracle, is no runtime dependency.  One more keeps the scanner to one
judge: every span point, of a leak spec, a Pauli spec or a pair, reaches
the matcher through ``Decoder.parities``; another keeps the executor to one
injection form, the ``sim.Injections`` columns; and one keeps the leak path
columnar: consequence slots and span sides are int arrays, never tuples or
side objects.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from toricleak.circuits import VARIANTS, build_program
from toricleak.decoder import Decoder
from toricleak.experiments import ExperimentConfig
from toricleak.noise import NoiseModel
from toricleak.sim import DRAWS_PER_KIND

SRC = Path(__file__).resolve().parent.parent / "src" / "toricleak"


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    offenders = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("toricleak"):
                continue
            offenders += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders


def test_no_module_imports_networkx():
    """networkx is a test extra: the matcher is ``blossom``, its port."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            importers += [path.name for name in names if name.split(".")[0] == "networkx"]
    assert not importers, importers


def test_draw_layout_covers_exactly_the_emitted_gate_kinds():
    """The executor and the draw layout handle the kinds the circuits emit,
    and no other."""
    emitted = {g.kind for variant in VARIANTS for _, g in build_program(variant, 3, 3).all_gates()}
    assert set(DRAWS_PER_KIND) == emitted


def test_every_noise_knob_is_a_config_field():
    """A noise field that no config can set is a knob only tests turn."""
    config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    noise_fields = {f.name for f in dataclasses.fields(NoiseModel)}
    assert noise_fields <= config_fields, noise_fields - config_fields


def test_the_scanner_judges_span_points_only():
    """Every spec and every pair is judged at span points, as rows of event
    cells, by ``Decoder.parities``, the row route that ``judge_batch``
    shares: it is the only ``Decoder`` method the scanner names.  It makes
    no ``judge_batch`` call on replayed batches and has no scalar
    ``matching`` route.  Two sites call it: ``_judged``, which judges every
    stage, the Pauli rows' one-point stages included, and
    ``_pair_failures``, which judges the pair tables."""
    methods = {name for name, value in vars(Decoder).items() if callable(value)} | {"matching"}
    tree = ast.parse((SRC / "scanner.py").read_text())
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in methods}
    assert named == {"parities"}, named
    calls = [(func.name, node.lineno) for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "parities"]
    assert sorted(name for name, _ in calls) == ["_judged", "_pair_failures"], calls


def test_no_module_defines_or_imports_a_per_row_script():
    """Replays reach the executor as ``sim.Injections`` columns only: the
    per-row ``Script`` lives in the tests' oracles, which convert it with
    ``columns_of``."""
    named = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = {getattr(node, key, None) for key in ("name", "id", "attr")}
            if isinstance(node, ast.alias):
                names |= {node.name, node.asname}
            named += [f"{path.name}:{node.lineno}" for name in names if name == "Script"]
    assert not named, named


def test_no_module_spells_a_consequence_slot_as_a_tuple():
    """A leak's consequence slots reach the scanner as the executor's slot
    codes and its spans as arrays of rows: no module defines or names a span
    side object, ``_SpanSide``, or spells the tuple slot tags ``"pair"``,
    ``"measbit"`` and ``"readout"``, which only the tests' oracles and
    scalar reference build."""
    tags, found = ("pair", "measbit", "readout"), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = {getattr(node, key, None) for key in ("name", "id", "attr", "asname")}
            if "_SpanSide" in names or isinstance(node, ast.Constant) and node.value in tags:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found, found
