"""Set-up of a workload: the scenario and the objects built from it.

Imports nothing heavy itself, so that timing ``import lorentz_gauge``
plus ``build`` measures what a CLI run pays before its first experiment.
"""

# Observation set of every workload: (0, T) x B(0, RADIUS).
T_OBS, RADIUS = 6.0, 1.0
# Warped product -beta(t) dt^2 + dx^2 with beta = 1 + 0.3 cos(t / 2).
BETA = (1.0, 0.3, 0.5)


def scenario(lg, name):
    """The scenario JSON a user would pass to the CLI for this workload."""
    sc = {"name": name, "seed": 0,
          "metric": {"kind": "minkowski", "dim": 3},
          "observation": {"T": T_OBS, "radius": RADIUS}}
    if name == "broken-warped":
        const, amp, freq = BETA
        sc["metric"] = {"kind": "warped", "dim": 3, "beta_time_only": True,
                        "beta": {"dim": 3, "constant": const,
                                 "waves": [{"amp": amp, "freq": [freq, 0.0, 0.0],
                                            "phase": 0.0}]}}
    merged = dict(lg.config.DEFAULT_SCENARIO)
    merged.update(sc)
    return lg.config.validate_scenario(merged)


def build(lg, name, seed):
    """Set-up: metric, observation set, connections and gauge from the seed."""
    fx = lg.config.Fixture(scenario(lg, name), seed=seed)
    objs = {"metric": fx.metric, "observation": fx.observation}
    if name == "interaction-mink":
        objs["A"] = fx.connection(amplitude=0.1)
    else:
        objs["A"] = fx.connection()
    if name in ("broken-mink", "reconstruct-mink"):
        objs["phi"] = fx.gauge()
        # B = A <| phi^{-1}: gauge equivalent to A, with phi = id on the
        # observation set, so broken transforms agree and phi is recovered
        objs["B"] = lg.gauge.gauge_act(objs["A"], objs["phi"].inverse())
    return objs
