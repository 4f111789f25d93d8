"""Check, or re-pin, the golden output hashes in ``golden.json``.

    python3 perfbench/golden.py           # exit 1 when an output changed
    python3 perfbench/golden.py --write   # re-pin after a declared change

Hashes each step's output at the default seed (after its independent
check passes) and the exit code and output of each README CLI example.  A
changed hash is not a failure of the benchmark: it is a behaviour change
that the change introducing it must declare, then re-pin.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run
from workloads import STEPS

TIMEOUT_S = 600.0


def current(seed: int) -> dict:
    deadline = time.perf_counter() + TIMEOUT_S
    steps = {}
    for step in STEPS.values():
        out = run.OUT / f"{step.name}.golden.out"
        out.unlink(missing_ok=True)
        stdout = run.OUT / f"{step.name}.golden.stdout"
        sample = run.run_child(["-m", "uconvex.cli", *step.argv(seed, out)],
                               deadline, stdout, step.name)
        run.OutputJudge(step).judge(sample, out)
        if sample.error is not None:
            raise RuntimeError(f"{step.name}: {sample.error}")
        steps[step.name] = sample.sha256
    return {"default_seed": seed, "steps": steps,
            "readme": run.readme_digests(deadline)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="store the current hashes as the goldens")
    ns = parser.parse_args(argv)
    run.OUT.mkdir(parents=True, exist_ok=True)
    pinned = json.loads(run.GOLDEN.read_text())
    now = current(pinned["default_seed"])
    changed = 0
    for group in ("steps", "readme"):
        for label, value in now[group].items():
            status = run.golden_status(pinned[group].get(label), value)
            changed += status != "match"
            print(f"{group} {label}: {status}")
    if ns.write:
        run.GOLDEN.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
        print(f"wrote {run.GOLDEN.relative_to(run.ROOT)}")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
