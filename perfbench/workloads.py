"""The three benchmark workloads: their inputs, their configs and their job call.

Every input is made through the program's own command line (genspec and
genflow), so the program only ever sees spec and flow documents. Flow seeds
and the config seed derive from the benchmark seed, so one benchmark seed
always gives the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

UPDATES_PER_EPOCH = 900  # fixed by the harness: one epoch is 900 weight updates
DEFAULT_BATCH = 512      # DQNConfig's default batch size

TOY_PROFILE = ("clustered(cluster_size=4,inter_cluster_gap=15,within_gap=2,"
               "lane_weights=0.5:0.2:0.25:0.05)")
GRID_MDP_PROFILE = "uniform(rate_per_lane=0.08,n_lanes=8)"
LIGHT_PROFILE = "uniform(rate_per_lane=0.03,n_lanes=8)"
SATURATED_PROFILE = ("clustered(cluster_size=6,inter_cluster_gap=3,within_gap=1,"
                     "lane_weights=1:1:1:1:1:1:1:1)")
CONTROLLERS = ("fixed", "random", "sotl1", "sotl2")


@dataclass(frozen=True)
class FlowInput:
    label: str     # file stem, which genflow writes as the flow's label
    profile: str
    seed_offset: int
    duration: int


@dataclass(frozen=True)
class Workload:
    name: str
    job: str                      # "train" or "compare"
    spec_kind: str                # genspec --kind
    lane_length_m: float
    flows: tuple[FlowInput, ...]
    config: dict = field(default_factory=dict)

    def setup_argvs(self, seed: int, work: Path) -> list[list[str]]:
        """The genspec and genflow calls that make this workload's inputs."""
        argvs = [["genspec", "--kind", self.spec_kind, "--lane-length",
                  str(self.lane_length_m), "--out", str(work / "spec.json")]]
        for flow in self.flows:
            argvs.append(["genflow", "--profile", flow.profile,
                          "--seed", str(1000 * seed + flow.seed_offset),
                          "--duration", str(flow.duration),
                          "--out", str(work / f"{flow.label}.json")])
        return argvs

    def write_config(self, seed: int, work: Path) -> Path:
        doc = dict(self.config)
        doc.update(
            intersection="spec.json",
            flows=[f"{flow.label}.json" for flow in self.flows],
            seed=seed,
        )
        path = work / "config.json"
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return path

    def job_argv(self, work: Path) -> list[str]:
        config = str(work / "config.json")
        if self.job == "train":
            return ["train", "--config", config, "--out", str(work / "run")]
        return ["compare", "--config", config, "--out", str(work / "compare.csv")]

    @property
    def updates_per_call(self) -> int:
        return self.config.get("total_epochs", 0) * UPDATES_PER_EPOCH

    @property
    def warmup(self) -> int:
        return 2 * self.config.get("dqn", {}).get("batch_size", DEFAULT_BATCH)


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance toy setup: two-phase spec, 150 m lanes, asymmetric
        # clustered demand, wad/acyclic/SMDP with the default batch-512 DQN.
        # Nearly all of its time is batch-512 network math.
        Workload(
            name="train-toy",
            job="train",
            spec_kind="two-phase",
            lane_length_m=150.0,
            flows=tuple(FlowInput(f"toy{k}", TOY_PROFILE, k, 600) for k in (1, 2, 3)),
            config=dict(holdout_index=2, variant="wad", action_mode="acyclic",
                        process="smdp", total_epochs=1, eval_every=1),
        ),
        # Default 8-lane, 8-phase spec with 300 m lanes, wads (dim 40),
        # acyclic control, MDP stepping and batch 32 on uniform demand that
        # builds queues: the per-transition path (tick, observe, batch-1
        # forward, replay, per-call optimizer overhead) does most of the work.
        Workload(
            name="train-grid-mdp",
            job="train",
            spec_kind="default",
            lane_length_m=300.0,
            flows=tuple(FlowInput(f"grid{k}", GRID_MDP_PROFILE, k, 3600) for k in (1, 2, 3)),
            config=dict(holdout_index=2, variant="wads", action_mode="acyclic",
                        process="mdp", dqn={"batch_size": 32}, total_epochs=2,
                        eval_every=2),
        ),
        # Every baseline on light uniform and saturated clustered demand, both
        # halves of each flow: pure simulator and controller throughput, with
        # no env or network code at all.
        Workload(
            name="compare-grid",
            job="compare",
            spec_kind="default",
            lane_length_m=300.0,
            flows=(
                FlowInput("light1", LIGHT_PROFILE, 1, 3600),
                FlowInput("light2", LIGHT_PROFILE, 2, 3600),
                FlowInput("saturated1", SATURATED_PROFILE, 3, 3600),
            ),
            config=dict(controllers=list(CONTROLLERS)),
        ),
    )
}
