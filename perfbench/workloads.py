"""The benchmark's workloads, as plan dicts for ``maddm.harness.plan_from_dict``.

A run measures a fixed number of rounds of its workload, ``ROUNDS``, so
every run does the same work whatever the speed of the code. Round ``r``
of seed ``s`` is the plan with ``base_seed = s * ROUND_STRIDE + r``, so the
same seed always gives the same worlds and no two rounds share one.

Every setting a plan dict can carry is pinned here: the plan shape, the
value templates and each method's knobs. They are not read from
``default_plan()`` or the parsers' defaults, so the inputs stay fixed when
the package's defaults change. What a plan cannot set (such as the
spread of advisor accuracies around ``accuracy_mean``) follows the code.
"""

from __future__ import annotations

from pathlib import Path

ROUND_STRIDE = 10_000
#: Rounds per run. About 50 s of work each on a 2-core shared VM.
ROUNDS = {"em_long": 2, "maddm_long": 6, "plan_short": 1}
VARIANTS = ("standard", "exploration_first")
#: The ten-point desk grid (``maddm.harness.DESK_GRID``), pinned.
DESK_GRID = (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0)
N_ADVISORS = 30
#: ``maddm.environment.ENV_TEMPLATES``, pinned: (value mean, value std).
ENVIRONMENTS = {"env1": (100.0, 100.0), "env2": (500.0, 500.0)}
#: The method knobs ``plan_from_dict`` reads, at the seed code's defaults.
STRATEGY = {"kind": "epsilon_greedy", "epsilon": 0.1, "criterion": "cost_effectiveness"}
BASELINE_KNOBS = {"fna_k": 5, "bc_budget_fraction": 0.10, "rv_k": 3, "exploration_first_rounds": 10}
MADDM_KNOBS = {
    "review": {"threshold": 1e-3, "max_passes": 100, "frequency": 1, "mode": "rebuild"},
    "exploration_first_rounds": 10,
}

WHY = {
    "em_long": "fna and bc at 2000 decisions: full-history EM rescans dominate; review and selection never run",
    "maddm_long": "maddm at 2000 decisions on env1 and env2: review and hiring loop dominate; EM never runs",
    "plan_short": "default plan's 9 methods, both templates, desk grid, 100 decisions: fixed per-call cost and the cell cache",
}
WORKLOADS = tuple(WHY)


def _spec(method: str, variant: str = "standard") -> dict:
    knobs = MADDM_KNOBS if method == "maddm" else BASELINE_KNOBS
    return {"method": method, "variant": variant, "strategy": dict(STRATEGY), **knobs}


def _specs(methods) -> list[dict]:
    """Both variants of each method, variant-major like ``default_plan()``."""
    return [_spec(m, v) for v in VARIANTS for m in methods]


def _environments(names) -> list[dict]:
    return [{"name": n, "value_mean": ENVIRONMENTS[n][0], "value_std": ENVIRONMENTS[n][1]}
            for n in names]


def plan_dict(workload: str, seed: int, round_index: int, smoke: bool = False) -> dict:
    """The plan of one round; ``smoke`` shrinks it to a few seconds' work."""
    plan = {
        "base_seed": seed * ROUND_STRIDE + round_index,
        "repetitions": 1,
        "n_advisors": N_ADVISORS,
    }
    if workload == "em_long":
        plan.update(n_decisions=2000, environments=_environments(["env1"]),
                    accuracy_means=[0.8], methods=_specs(("fna", "bc")))
    elif workload == "maddm_long":
        plan.update(n_decisions=2000, environments=_environments(["env1", "env2"]),
                    accuracy_means=[0.8], methods=_specs(("maddm",)))
    elif workload == "plan_short":
        plan.update(n_decisions=100, repetitions=5, environments=_environments(["env1", "env2"]),
                    accuracy_means=list(DESK_GRID),
                    methods=_specs(("maddm", "fna", "bc", "rv")) + [_spec("bu")])
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if smoke:
        plan.update(n_decisions=30, repetitions=1)
        if workload == "plan_short":
            plan.update(accuracy_means=list(DESK_GRID[::5]))
    return plan


def rounds(workload: str, smoke: bool = False) -> int:
    """Rounds a run measures; a smoke run measures one."""
    return 1 if smoke else ROUNDS[workload]


def prepare(workload: str, seed: int, out_dir: Path, smoke: bool = False) -> None:
    """The set-up a run pays before its first cell: plan load and output dir.

    ``maddm`` must already be importable.
    """
    from maddm.harness import plan_from_dict

    plan_from_dict(plan_dict(workload, seed, 0, smoke))
    out_dir.mkdir(parents=True, exist_ok=True)
