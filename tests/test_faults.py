"""Faults the verification suites must reject: each row scales one engine
value by 1 + 1e-3 with a monkeypatch, restored after the case, and asserts
that `verify --suite decomp` exits 1 on a family whose check reads that
value, where the unfaulted run exits 0.

The closed forms of the slice reductions (one incomplete Gamma,
zeta._slice_gamma) are each read by a check against an independent
quadrature: ztilde1 and ztilde2 by ztilde_2d's x-quadratures of the exact
inner integrals, G1 (supercritical) by the g_sum identity, whose ztilde1 is
checked the same way, and J1 (bounded) by the j_sum identity."""

import dataclasses

import pytest

import flatzeta.verify as verify_mod
from flatzeta.cli import main

FAULT = 1.0 + 1e-3


def _scaled_traces(field):
    real = verify_mod.region_samples

    def region_samples(*args, **kwargs):
        return [dataclasses.replace(tr, **{field: getattr(tr, field) * FAULT})
                for tr in real(*args, **kwargs)]
    return region_samples


def _scaled_first(real):
    def pieces(*args, **kwargs):
        first, *rest = real(*args, **kwargs)
        return (first * FAULT, *rest)
    return pieces


FAULTS = {
    "ztilde1": ("region_samples", lambda: _scaled_traces("ztilde1")),
    "ztilde2": ("region_samples", lambda: _scaled_traces("ztilde2")),
    "G1": ("g_pieces", lambda: _scaled_first(verify_mod.g_pieces)),
    "J1": ("j_pieces", lambda: _scaled_first(verify_mod.j_pieces)),
}

ROWS = [
    ("ztilde1", "supercritical"), ("ztilde1", "critical"), ("ztilde1", "greenblatt"),
    ("ztilde2", "supercritical"), ("ztilde2", "critical"), ("ztilde2", "greenblatt"),
    ("G1", "supercritical"),
    ("J1", "greenblatt"),
]


def _decomp(preset, capsys):
    code = main(["verify", "--preset", preset, "--suite", "decomp"])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("preset", ["supercritical", "critical", "greenblatt"])
def test_decomp_passes_unfaulted(preset, capsys):
    assert _decomp(preset, capsys) == 0


@pytest.mark.parametrize("fault, preset", ROWS, ids=[f"{f}-{p}" for f, p in ROWS])
def test_decomp_rejects_a_scaled_closed_form(monkeypatch, capsys, fault, preset):
    name, make = FAULTS[fault]
    monkeypatch.setattr(verify_mod, name, make())
    assert _decomp(preset, capsys) == 1
