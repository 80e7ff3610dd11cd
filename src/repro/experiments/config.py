"""Experiment parameter sheets (Tables 1 and 2, plus Experiment 3).

Each config dataclass carries defaults straight out of the paper's
tables so that ``Experiment1Config()`` *is* Table 1 and
``Experiment2Config()`` *is* Table 2.  The ``as_table()`` methods render
the parameter sheets in the papers' row format for the bench harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Experiment1Config:
    """Experiment 1 -- binary events (Table 1).

    | Paper row                  | Field(s)                               |
    |----------------------------|----------------------------------------|
    | Type of Event              | binary (implied by the experiment)     |
    | Independent Variable       | ``percent_faulty_values`` (40%-90%)    |
    | Correct Nodes NER          | ``correct_ner`` (0, 1, 5%)             |
    | Faulty Nodes, missed alarm | ``faulty_miss_rate`` (50%)             |
    | Faulty Nodes, false alarm  | ``faulty_false_alarm_rate`` (0/10/75%) |
    | Size of network            | ``n_nodes`` sensing + 1 CH             |
    | Number of Event neighbors  | ``n_nodes`` (all nodes)                |
    | Events per simulation      | ``events_per_run`` (100)               |
    | lambda                     | ``lam`` (0.1)                          |
    | Fault rate f_r             | ``fault_rate`` (= NER)                 |
    """

    n_nodes: int = 10
    events_per_run: int = 100
    percent_faulty_values: Tuple[float, ...] = (
        40.0, 50.0, 60.0, 70.0, 80.0, 90.0,
    )
    correct_ner: float = 0.01
    faulty_miss_rate: float = 0.5
    faulty_false_alarm_rate: float = 0.0
    lam: float = 0.1
    fault_rate: Optional[float] = None  # None -> same as NER (Table 1)
    use_trust: bool = True
    trials: int = 5
    seed: int = 2005

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.events_per_run <= 0:
            raise ValueError("events_per_run must be positive")
        if not 0.0 <= self.correct_ner < 1.0:
            raise ValueError(f"correct_ner must be in [0, 1), got {self.correct_ner}")
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        for pf in self.percent_faulty_values:
            if not 0.0 <= pf <= 100.0:
                raise ValueError(f"percent faulty must be in [0, 100], got {pf}")

    @property
    def effective_fault_rate(self) -> float:
        """``f_r``: Table 1 sets it equal to the NER."""
        return self.correct_ner if self.fault_rate is None else self.fault_rate

    def n_faulty(self, percent_faulty: float) -> int:
        """Faulty-node head count at a sweep point (rounded to nearest)."""
        return round(self.n_nodes * percent_faulty / 100.0)

    def as_table(self) -> List[Tuple[str, str]]:
        """Rows mirroring Table 1."""
        pf = self.percent_faulty_values
        return [
            ("Type of Event", "Binary Event Model"),
            (
                "Independent Variable",
                f"Percentage Faulty Nodes: varied from "
                f"{pf[0]:.0f}%-{pf[-1]:.0f}%",
            ),
            ("Correct Nodes NER", f"{100 * self.correct_ner:g}%"),
            (
                "Faulty Nodes",
                f"Missed Alarm {100 * self.faulty_miss_rate:g}%, "
                f"False alarm {100 * self.faulty_false_alarm_rate:g}%",
            ),
            ("Size of network", f"{self.n_nodes} sensing nodes, 1 CH"),
            ("Number of Event neighbors", str(self.n_nodes)),
            ("Events per simulation", str(self.events_per_run)),
            ("lambda", f"{self.lam:g}"),
            ("Fault rate (f_r)", f"{self.effective_fault_rate:g} (same as NER)"
             if self.fault_rate is None else f"{self.fault_rate:g}"),
        ]


@dataclass(frozen=True)
class Experiment2Config:
    """Experiment 2 -- location determination (Table 2).

    | Paper row                   | Field(s)                              |
    |-----------------------------|---------------------------------------|
    | Type of Event               | ``concurrent_events`` (single or not) |
    | Independent variable        | ``percent_faulty_values`` (10%-58%)   |
    | Error rate, correct nodes   | ``sigma_correct`` (1.6 or 2.0)        |
    | Error rate, faulty nodes    | ``sigma_faulty`` (4.25 or 6.0),       |
    |                             | ``faulty_drop_rate`` (25%)            |
    | Size of network             | ``n_nodes`` (100), 5 CH rotations     |
    | Number of event neighbors   | variable on location (r_s)            |
    | lambda                      | ``lam`` (0.25)                        |
    | Fault rate f_r              | ``fault_rate`` (0.1, != NER to        |
    |                             | compensate channel losses)            |
    """

    n_nodes: int = 100
    field_side: float = 100.0
    sensing_radius: float = 20.0
    r_error: float = 5.0
    events_per_run: int = 100
    percent_faulty_values: Tuple[float, ...] = (
        10.0, 20.0, 30.0, 40.0, 50.0, 58.0,
    )
    fault_level: int = 0
    sigma_correct: float = 1.6
    sigma_faulty: float = 4.25
    faulty_drop_rate: float = 0.25
    lam: float = 0.25
    fault_rate: float = 0.1
    channel_loss: float = 0.008
    lower_ti: float = 0.5
    upper_ti: float = 0.8
    concurrent_events: bool = False
    concurrent_batch: int = 2
    use_trust: bool = True
    trials: int = 3
    seed: int = 2005

    def __post_init__(self) -> None:
        if self.fault_level not in (0, 1, 2):
            raise ValueError(f"fault_level must be 0, 1 or 2, got {self.fault_level}")
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if self.sensing_radius <= 0 or self.r_error <= 0:
            raise ValueError("radii must be positive")
        if not 0.0 <= self.channel_loss < 1.0:
            raise ValueError("channel_loss must be in [0, 1)")
        if self.concurrent_batch < 1:
            raise ValueError("concurrent_batch must be >= 1")

    def n_faulty(self, percent_faulty: float) -> int:
        """Faulty-node head count at a sweep point (rounded to nearest)."""
        return round(self.n_nodes * percent_faulty / 100.0)

    def legend(self, system: str) -> str:
        """The paper's legend format: ``Lvl M W-Z [TIBFIT or Baseline]``."""
        return (
            f"Lvl {self.fault_level} {self.sigma_correct:g}-"
            f"{self.sigma_faulty:g} {system}"
        )

    def as_table(self) -> List[Tuple[str, str]]:
        """Rows mirroring Table 2."""
        pf = self.percent_faulty_values
        return [
            (
                "Type of Event",
                "Location Determination, "
                + ("Concurrent" if self.concurrent_events else "Single")
                + " events",
            ),
            (
                "Independent variable",
                f"Percentage faulty nodes, varied from "
                f"{pf[0]:.0f}%-{pf[-1]:.0f}%",
            ),
            (
                "Error rate for correct nodes",
                f"Location report std. deviation {self.sigma_correct:g}",
            ),
            (
                f"Error rate for faulty nodes (level {self.fault_level})",
                f"Location report std. dev. {self.sigma_faulty:g}, "
                f"drop packets {100 * self.faulty_drop_rate:g}% of the time",
            ),
            ("Size of network", f"{self.n_nodes} sensing nodes"),
            ("Number of event neighbors", "Variable on location"),
            ("lambda", f"{self.lam:g}"),
            (
                "Fault rate (f_r)",
                f"{self.fault_rate:g} (different from NER to compensate "
                "for wireless channel model losses)",
            ),
        ]


@dataclass(frozen=True)
class Experiment3Config:
    """Experiment 3 -- linear decay of the network (§4.3).

    "The network is initialized with 5% of the network compromised by
    level 0 faulty nodes.  After every 50 events 5% more of the network
    is compromised until 75% of the network is compromised."
    """

    n_nodes: int = 100
    field_side: float = 100.0
    sensing_radius: float = 20.0
    r_error: float = 5.0
    initial_percent: float = 5.0
    step_percent: float = 5.0
    events_per_step: int = 50
    final_percent: float = 75.0
    sigma_correct: float = 1.6
    sigma_faulty: float = 4.25
    faulty_drop_rate: float = 0.25
    lam: float = 0.25
    fault_rate: float = 0.1
    channel_loss: float = 0.008
    use_trust: bool = True
    trials: int = 3
    seed: int = 2005

    def __post_init__(self) -> None:
        if not 0.0 <= self.initial_percent <= self.final_percent <= 100.0:
            raise ValueError("need 0 <= initial <= final <= 100 percent")
        if self.step_percent <= 0:
            raise ValueError("step_percent must be positive")
        if self.events_per_step <= 0:
            raise ValueError("events_per_step must be positive")

    @property
    def n_steps(self) -> int:
        """How many compromise escalations happen after initialisation."""
        span = self.final_percent - self.initial_percent
        return int(round(span / self.step_percent))

    @property
    def total_events(self) -> int:
        """Events across the whole decay schedule."""
        return (self.n_steps + 1) * self.events_per_step

    def percent_at_step(self, step: int) -> float:
        """Compromised percentage during step ``step`` (0-based)."""
        if step < 0:
            raise ValueError("step must be non-negative")
        return min(
            self.final_percent,
            self.initial_percent + step * self.step_percent,
        )

    def legend(self, system: str) -> str:
        """Legend string in the paper's ``W-Z [system]`` format."""
        return f"{self.sigma_correct:g}-{self.sigma_faulty:g} {system}"
