"""Mapping the micro-functions of a RAN slice onto virtual machines.

The package bundles the domain model, an exact assignment oracle, a
sequential-placement environment, four Q-learning agents, an evaluation
metrics suite, a scenario generator, a CLI, and a small mapping decision
service.
"""

__version__ = "0.1.0"
