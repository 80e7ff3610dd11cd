"""Node perception model.

§2 assumes "a sensing node can detect the occurrence of an event
perfectly for events that happen within a radius r_s surrounding the
node", and §4.2 has each node report the event location "with error in
both the X and Y directions as dictated by a Gaussian random variable
with standard deviation sigma".  :class:`SensingModel` implements both:
binary detectability and noisy location perception, including the
``(r, theta)`` encoding nodes actually transmit.

A binary run's head reads only who reported, so its model does not
place claims: a claim still makes its two draws, which advance the
node's stream exactly as a placed claim does, and then returns the
location it was given.

>>> import numpy as np
>>> model = SensingModel(SensingConfig(location_sigma=4.25), places=False)
>>> rng, twin = np.random.default_rng(7), np.random.default_rng(7)
>>> event = Point(30.0, 40.0)
>>> model.perceive_location(event, rng) is event
True
>>> _ = twin.normal(0.0, 4.25), twin.normal(0.0, 4.25)
>>> rng.bit_generator.state == twin.bit_generator.state
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.network.geometry import Point, PolarOffset


@dataclass(frozen=True)
class SensingConfig:
    """Perception parameters for one node class.

    Attributes
    ----------
    sensing_radius:
        ``r_s``; events farther than this are not detectable.
    location_sigma:
        Standard deviation of the independent Gaussian noise added to
        each of the X and Y coordinates of the perceived location.
        With both axes at sigma, the radial error is Rayleigh(sigma) --
        the distribution the paper uses to derive the error percentage
        in Table 2.
    """

    sensing_radius: float = 20.0
    location_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.sensing_radius < math.inf:
            raise ValueError(
                f"sensing_radius must be positive and finite, "
                f"got {self.sensing_radius}"
            )
        if not 0 <= self.location_sigma < math.inf:
            raise ValueError(
                f"location_sigma must be non-negative and finite, "
                f"got {self.location_sigma}"
            )

    def error_probability_beyond(self, r_error: float) -> float:
        """Probability a perceived location lands more than ``r_error`` away.

        The radial error is Rayleigh(sigma), so
        ``P(err > r) = exp(-r^2 / (2 sigma^2))`` -- the "joint probability
        distribution of the two Gaussian rv's" noted under Table 2.
        """
        if r_error < 0:
            raise ValueError("r_error must be non-negative")
        if self.location_sigma == 0:
            return 0.0
        return math.exp(
            -(r_error**2) / (2.0 * self.location_sigma**2)
        )


class SensingModel:
    """Stateless perception functions parameterised by a config.

    Parameters
    ----------
    config:
        Detection radius and correct-node location noise.
    places:
        Whether a claim carries a place.  A location run's head places
        each report, so its nodes perceive a noisy location and send it
        as an ``(r, theta)`` offset.  A binary run's head reads only who
        reported: its model is built with ``places=False``, a claim
        makes the same draws on the same stream and returns the
        location it was given, and a report carries ``offset=None``.
        This is the run's one mode flag on the sensing side; the
        behaviours and ``SensorNode`` read it here.
    """

    def __init__(self, config: SensingConfig, places: bool = True) -> None:
        self.config = config
        self.places = places

    def detects(self, node_position: Point, event_location: Point) -> bool:
        """Perfect binary detection within ``r_s`` (§2)."""
        return (
            node_position.distance_to(event_location)
            <= self.config.sensing_radius
        )

    def perceive_location(
        self,
        event_location: Point,
        rng: np.random.Generator,
        sigma: Optional[float] = None,
    ) -> Point:
        """The noisy location a node believes the event occurred at.

        ``sigma`` overrides the config's noise level (faulty nodes reuse
        a correct node's model with a larger sigma).  Each axis draws
        ``0.0 + s * rng.standard_normal()``, which is numpy's own
        ``rng.normal(0.0, s)`` (``loc + scale * g``) without the call's
        argument handling.  An unplaced model makes both draws and
        returns ``event_location``.
        """
        s = self.config.location_sigma if sigma is None else sigma
        if s < 0:
            raise ValueError(f"sigma must be non-negative, got {s}")
        if s == 0:
            return event_location
        if not self.places:
            rng.standard_normal()
            rng.standard_normal()
            return event_location
        return Point(
            event_location.x + (0.0 + s * rng.standard_normal()),
            event_location.y + (0.0 + s * rng.standard_normal()),
        )

    def encode_report(
        self, node_position: Point, perceived_location: Point
    ) -> PolarOffset:
        """The ``(r, theta)`` offset a node transmits (§3.2)."""
        return node_position.offset_to(perceived_location)
