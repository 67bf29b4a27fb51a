"""Command-line entry points: train, eval, compare, sweep, genflow, genspec.

`genflow` and `genspec` need only the stdlib `core`. The other commands
import `harness`, `agents` and `sim` (and so numpy) when they run, so the
first of them in a process pays that import. The parser is built once per
process, on the first `main` call, and every later call parses with it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import core
from .core import require_writable

# Each `genspec --kind` and the ready-made intersection it writes.
SPEC_KINDS = {"default": core.default_intersection, "two-phase": core.two_phase_intersection}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficlab",
        description="Adaptive traffic-signal control lab: train and evaluate "
        "signal controllers on a deterministic single-intersection simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a DQN controller from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the config output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one half of a flow file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--flow", required=True)
    p.add_argument("--split", choices=("val", "test"), required=True)
    p.add_argument("--spec", default=None,
                   help="intersection document; defaults to the one stored in the checkpoint")
    p.add_argument("--trace", default=None, help="write a per-tick trajectory CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="run every configured controller on every flow")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--repeats", type=_repeat_count, default=None,
                   help="average stochastic controllers over this many seeded runs")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="Q-value grid over artificial two-lane queue states")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--grid-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lanes", type=_lane_pair, default=None,
                   help="lane pair as 'a,b' (default: one per phase)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("genflow", help="generate a synthetic flow file")
    p.add_argument("--profile", required=True,
                   help="e.g. 'uniform(rate_per_lane=0.05,n_lanes=8)' or "
                        "'clustered(cluster_size=5,inter_cluster_gap=60,within_gap=2,lane_weights=1:1:1:1)'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=int, default=3600)
    p.set_defaults(func=cmd_genflow)

    p = sub.add_parser("genspec", help="write a ready-made intersection document")
    p.add_argument("--kind", choices=tuple(SPEC_KINDS), default="default")
    p.add_argument("--out", required=True)
    p.add_argument("--lane-length", type=float, default=core.DEFAULT_LANE_LENGTH_M)
    p.set_defaults(func=cmd_genspec)

    return parser


def cmd_train(args) -> int:
    from . import harness

    config = harness.ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    require_writable("out_dir" if args.out is None else "--out", config.out_dir,
                     directory=True)
    result = harness.run_training(config)
    print(f"metrics: {result.metrics_path}")
    print(f"best checkpoint: {result.best_checkpoint}")
    print(f"best validation travel time: {result.best_val_travel_time:.2f} s")
    return 0


def cmd_eval(args) -> int:
    from . import harness
    from .agents import checkpoint_spec, load_checkpoint
    from .sim import trajectory_rows

    if args.trace is not None:
        require_writable("--trace", args.trace)
    agent, meta = load_checkpoint(args.checkpoint)
    if args.spec is not None:
        spec = core.read_document(args.spec, core.load_intersection)
    else:
        spec = checkpoint_spec(args.checkpoint, meta)
    flow = core.read_document(args.flow, core.load_flow)
    if not flow.label:  # the label genflow would have written
        flow = dataclasses.replace(flow, label=Path(args.flow).stem)
    val, test = core.split_halves(flow)
    part = val if args.split == "val" else test

    trace_rows = []
    on_tick = None
    if args.trace is not None:
        def on_tick(state):
            trace_rows.extend(trajectory_rows(state))

    # Read through the module attribute at call time, so it can be swapped.
    controller = sys.modules[__name__].GreedyController(agent, spec, meta)
    tt = harness.evaluate(controller, spec, part, on_tick=on_tick)
    if args.trace is not None:
        columns = ("tick", "vehicle", "lane", "position_m", "speed_ms", "status")
        harness.write_csv(args.trace, columns, [dict(zip(columns, r)) for r in trace_rows])
        print(f"trace: {args.trace}")
    print(f"avg travel time ({args.split}): {tt:.2f} s")
    return 0


def cmd_compare(args) -> int:
    from . import harness

    require_writable("--out", args.out)
    config = harness.ExperimentConfig.from_file(args.config)
    if args.repeats is not None:
        config.repeats = args.repeats
    rows = harness.compare(config)
    harness.write_csv(args.out, harness.COMPARE_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _repeat_count(text: str) -> int:
    try:
        repeats = int(text)
    except ValueError:
        repeats = 0
    if repeats < 1:
        raise argparse.ArgumentTypeError(
            f"repeats must be an integer of at least 1, got {text!r}")
    return repeats


def _lane_pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"lanes must be two lane indices as 'a,b', got {text!r}") from None


def cmd_sweep(args) -> int:
    from . import harness

    require_writable("--out", args.out)
    rows = harness.qvalue_sweep(args.checkpoint, args.grid_max, args.lanes)
    harness.write_csv(args.out, harness.SWEEP_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_genflow(args) -> int:
    require_writable("--out", args.out)
    core.require_integer("duration", args.duration, core.MIN_SPLIT_DURATION_S,
                         core.MAX_FLOW_DURATION_S)
    profile = core.parse_profile(args.profile)
    flow = core.generate_flow(profile, seed=args.seed, duration=args.duration,
                              label=Path(args.out).stem)
    with core.output_file(args.out) as fh:
        fh.write(core.flow_to_json(flow))
    print(f"wrote {len(flow.vehicles)} vehicles to {args.out}")
    return 0


def cmd_genspec(args) -> int:
    require_writable("--out", args.out)
    spec = SPEC_KINDS[args.kind](lane_length_m=args.lane_length)
    with core.output_file(args.out) as fh:
        json.dump(core.intersection_to_document(spec), fh, indent=2)
    print(f"wrote {args.kind} intersection ({spec.n_lanes} lanes, "
          f"{spec.n_phases} phases) to {args.out}")
    return 0


def __getattr__(name):
    # PEP 562, as in the package: `GreedyController` loads `agents` on first use.
    if name == "GreedyController":
        from .agents import GreedyController
        return GreedyController
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
