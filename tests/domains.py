"""Geometry fuzz corpus: hard domains for the invariant harness.

Each entry builds a small-but-nasty ``(PSLG, MeshConfig)`` pair sized
to mesh in well under a second, so the corpus can run through the
exact-Delaunay/orientation/conformity checks both directly and through
the service path without dominating the suite:

* ``cove`` — a NACA 4412 with a concave cove carved into the lower aft
  surface (re-entrant corners, the classic high-lift slat/main shape).
* ``multi-element`` — the synthetic three-element high-lift
  configuration (multiple bodies, coves, deflected elements, blunt
  flap TE).
* ``near-tangent-gap`` — a main airfoil with a small deflected flap
  whose leading edge sits a few hundredths of a chord away from the
  main's trailing edge, so boundary layers from both bodies nearly
  meet in the gap.

``DOMAINS`` maps name -> builder; builders are pure (fresh arrays per
call) so tests can mutate results freely.

:class:`CallableSizing` is the sizing a user could hand in that is none
of the library's own: an ``area_at`` and nothing else.
"""

from __future__ import annotations

from repro.core.bl_pipeline import BoundaryLayerConfig
from repro.core.pipeline import MeshConfig
from repro.geometry.airfoils import (
    add_cove,
    naca4,
    three_element_airfoil,
    transform_coords,
)
from repro.geometry.pslg import PSLG

__all__ = [
    "DOMAINS",
    "CallableSizing",
    "cove_domain",
    "multi_element_domain",
    "near_tangent_gap_domain",
    "small_bl",
]


class CallableSizing:
    """A plain ``f(x, y) -> area`` as a sizing: no ``area_at_many``, no
    ``lipschitz`` bound, no serde layout."""

    def __init__(self, fn) -> None:
        self.area_at = fn


def small_bl(max_layers: int = 6,
             first_spacing: float = 2e-3) -> BoundaryLayerConfig:
    return BoundaryLayerConfig(first_spacing=first_spacing,
                               growth_ratio=1.4, max_layers=max_layers)


def cove_domain():
    """Single element with a concave lower-surface cove."""
    coords = add_cove(naca4("4412", 41), x_start=0.55, x_end=0.9, depth=0.5)
    pslg = PSLG.from_loops([coords], names=["cove4412"])
    config = MeshConfig(bl=small_bl(), farfield_chords=5.0,
                        target_subdomains=4)
    return pslg, config


def multi_element_domain():
    """Synthetic slat + main + flap high-lift configuration."""
    pslg = three_element_airfoil(n_points=31)
    config = MeshConfig(bl=small_bl(max_layers=4, first_spacing=1e-3),
                        farfield_chords=5.0, target_subdomains=4)
    return pslg, config


def near_tangent_gap_domain():
    """Two bodies separated by a ~0.02-chord near-tangent gap."""
    main = naca4("0012", 41)
    flap = transform_coords(naca4("0012", 31), scale=0.3,
                            rotate_deg=-12.0, translate=(1.02, -0.01))
    pslg = PSLG.from_loops([main, flap], names=["main", "flap"])
    # Keep the BL thin enough that the two stacks stay disjoint in the
    # gap: 3 layers at 1e-3 first spacing is ~0.0044 per side.
    config = MeshConfig(bl=small_bl(max_layers=3, first_spacing=1e-3),
                        farfield_chords=5.0, target_subdomains=4)
    return pslg, config


DOMAINS = {
    "cove": cove_domain,
    "multi-element": multi_element_domain,
    "near-tangent-gap": near_tangent_gap_domain,
}
