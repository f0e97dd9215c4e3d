"""The benchmark's workloads: fixed sets of experiment configs.

Each workload is a list of (label, config text) pairs in the runner's
own ``key = value`` format.  The seed is the only input that varies
between runs; it is written into every config of the workload, so one
seed always gives the same batches.
"""

from __future__ import annotations

WORKLOADS = {
    # Cost sits in drawing random values and in the max-statistic
    # kernels; covariance and lasso code barely runs.
    "mc-draws": {
        "workers": 2,
        "configs": [
            ("tailcheck", """
                experiment = tailcheck
                alpha = 0.5, 1, 2
                n = 100, 1000
                q = 10, 100
                reps = 100
            """),
            ("clt", """
                experiment = clt
                law = exponential
                q = 50
                n = 100, 300, 1000
                stat_reps = 200
                reps = 4
            """),
            ("bootstrap", """
                experiment = bootstrap
                q = 100
                n = 500
                reps = 100
            """),
            ("norms", """
                experiment = norms
                alpha = 0.5, 1, 2
                n = 100000
                reps = 5
            """),
        ],
    },
    # Cost sits in the certification kernels (rip_net/quarter_net,
    # cone_min_oracle, the Lasso solver); single-threaded baseline.
    "certify": {
        "workers": 1,
        "configs": [
            ("rip", """
                experiment = rip
                p = 20
                k = 3
                n = 200, 3200
                reps = 2
            """),
            ("re", """
                experiment = re
                n = 100, 400
                cone_trials = 2000
                reps = 4
            """),
            ("lasso", """
                experiment = lasso
                p = 200
                n = 500, 8000
                reps = 5
            """),
        ],
    },
    # Tiny inputs and many calls: runner dispatch, per-call generator
    # set-up and CSV writing dominate.  One worker: at two, every task
    # hands the interpreter lock between threads, which made round times
    # follow the host's CPU steal (quartile spread 0.27 of the median,
    # against 0.13 at one worker); the thread pool is measured on mc-draws.
    "small-tasks": {
        "workers": 1,
        "configs": [
            ("covariance", """
                experiment = covariance
                p = 5
                n = 20
                reps = 10000
            """),
            ("tailcheck", """
                experiment = tailcheck
                n = 10
                q = 3
                reps = 1000
            """),
            ("norms", """
                experiment = norms
                n = 50
            """),
        ],
    },
}


def config_texts(workload: str, seed: int):
    """(label, text) pairs of the workload with its seed and workers set."""
    spec = WORKLOADS[workload]
    out = []
    for label, body in spec["configs"]:
        lines = [line.strip() for line in body.strip().splitlines()]
        lines.append(f"seed = {seed}")
        lines.append(f"workers = {spec['workers']}")
        out.append((label, "\n".join(lines) + "\n"))
    return out
